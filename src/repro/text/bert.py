"""MiniBert: a small BERT-style masked language model.

Substitutes for the HuggingFace pre-trained BERT used by the paper's
attribute-embedding module.  Architecture follows BERT exactly at reduced
scale: learned token + position embeddings, LayerNorm, a stack of post-LN
transformer encoder blocks, and the final hidden state of the ``[CLS]``
token as the sequence representation C(e) (paper Eq. 6).

:meth:`MiniBert.forward` computes on the real tokens only: every
position-wise layer runs on their packed ``(N, D)`` rows, and only
attention's scores, softmax and ``probs @ V`` see the padded grid
(:class:`~repro.nn.attention.TokenLayout`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Tensor,
    TokenLayout,
    TransformerEncoder,
)
from .tokenizer import WordPieceTokenizer


@dataclass
class BertConfig:
    """Hyper-parameters for :class:`MiniBert`.

    Defaults are sized for CPU-scale experiments; the paper's BERT-base
    values would be dim=768, num_heads=12, num_layers=12, max_len=128.
    """

    vocab_size: int
    dim: int = 64
    num_heads: int = 4
    ff_dim: int = 128
    num_layers: int = 2
    max_len: int = 64
    dropout: float = 0.1

    def __post_init__(self) -> None:
        if self.dim % self.num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the special tokens")


class MiniBert(Module):
    """BERT-style encoder producing per-token states and a [CLS] vector."""

    def __init__(self, config: BertConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.dim, rng)
        self.position_embedding = Embedding(config.max_len, config.dim, rng)
        self.embed_norm = LayerNorm(config.dim)
        self.embed_dropout = Dropout(config.dropout, rng)
        self.encoder = TransformerEncoder(
            config.dim, config.num_heads, config.ff_dim,
            config.num_layers, rng, config.dropout,
        )

    def forward(self, ids: np.ndarray,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """Encode token ids ``(B, T)`` into hidden states ``(B, T, D)``.

        ``mask`` marks the real tokens (``None``: every token is real).
        Only they are encoded; the states at padding slots are zero.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError(f"expected (batch, seq) ids, got shape {ids.shape}")
        if ids.shape[1] > self.config.max_len:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds max_len "
                f"{self.config.max_len}"
            )
        if mask is None:
            layout = TokenLayout.dense(*ids.shape)
        elif np.shape(mask) != ids.shape:
            raise ValueError(f"mask shape {np.shape(mask)} does not match "
                             f"ids shape {ids.shape}")
        else:
            layout = TokenLayout(mask)
        tokens = ids.reshape(-1)[layout.real]
        positions = layout.real % ids.shape[1]
        rows = self.token_embedding(tokens) + self.position_embedding(positions)
        rows = self.embed_dropout(self.embed_norm(rows))
        return layout.pad(self.encoder(rows, layout))

    def encode_cls(self, ids: np.ndarray,
                   mask: Optional[np.ndarray] = None) -> Tensor:
        """Return C(e): the final hidden state of the leading [CLS] token."""
        hidden = self.forward(ids, mask)
        return hidden[:, 0, :]


class BertForMaskedLM(Module):
    """MiniBert plus a masked-language-model head."""

    def __init__(self, config: BertConfig, rng: np.random.Generator):
        super().__init__()
        self.bert = MiniBert(config, rng)
        self.transform = Linear(config.dim, config.dim, rng)
        self.norm = LayerNorm(config.dim)
        # Output projection shares no weights with the input embedding to
        # keep the autograd graph simple; BERT's tying is an optimisation,
        # not required for the representation property SDEA uses.
        self.decoder = Linear(config.dim, config.vocab_size, rng)

    def forward(self, ids: np.ndarray, mask: Optional[np.ndarray],
                positions: np.ndarray) -> Tensor:
        """MLM logits ``(len(positions), vocab_size)``.

        ``positions`` index the flattened ``(B * T)`` token grid.  As in
        BERT's ``gather_indexes``, only those hidden states go through
        the head, so the ``(D, V)`` projection runs on the masked tokens
        alone instead of on every position of the batch.
        """
        hidden = self.bert(ids, mask)
        batch, steps, dim = hidden.shape
        picked = hidden.reshape(batch * steps, dim)[np.asarray(positions)]
        transformed = self.norm(self.transform(picked).tanh())
        return self.decoder(transformed)


class SequenceEncoder:
    """Padded token rows, handed out in batches trimmed to their longest row.

    Each row is ``[CLS]`` + word pieces followed by trailing ``[PAD]``
    (:meth:`WordPieceTokenizer.encode`).  MiniBert computes position-wise
    layers on the real tokens only, and masked keys get zero attention
    weight, so in eval mode its states at the real tokens are the same
    function of the same tokens at any width (up to float rounding in
    the sums over keys).  The batch width is the attention grid's T:
    cutting the columns that are padding in every selected row shrinks
    the ``(B, H, T, T)`` scores.
    """

    def __init__(self, ids: np.ndarray, mask: np.ndarray):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.mask = np.asarray(mask, dtype=bool)
        self.lengths = self.mask.sum(axis=1)

    @classmethod
    def from_texts(cls, tokenizer: WordPieceTokenizer, texts: Sequence[str],
                   max_len: int) -> "SequenceEncoder":
        """Tokenise every text once into ``max_len``-wide rows."""
        ids = np.empty((len(texts), max_len), dtype=np.int64)
        mask = np.empty((len(texts), max_len), dtype=bool)
        for row, text in enumerate(texts):
            ids[row], mask[row] = tokenizer.encode(text, max_len)
        return cls(ids, mask)

    def __len__(self) -> int:
        return len(self.ids)

    def batch(self, rows: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Token ids + attention mask of ``rows``, cut to the longest one."""
        idx = np.asarray(rows, dtype=int)
        width = int(self.lengths[idx].max(initial=0))
        return self.ids[idx, :width], self.mask[idx, :width]
