"""Attribute embedding module (paper Section III-A).

``H_a(e) = MLP(BERT("[CLS]" || S(e)))`` — Eq. 5–7.  ``S(e)`` is the
attribute sequence produced by Algorithm 1 (:mod:`repro.kg.sequences`).

Pre-trained-BERT substitution (see DESIGN.md): MiniBert's token
embeddings are initialised from LSA vectors of the corpus and pooling is
IDF-weighted, supplying the distributional-semantics prior a downloaded
BERT would bring; MLM pre-training and Algorithm-2 fine-tuning then
refine the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..nn import Linear, Module, Tensor, concatenate, get_default_dtype, \
    no_grad
from ..text.bert import BertForMaskedLM, MiniBert, SequenceEncoder
from ..text.lsa import CorpusStats, corpus_stats
from ..text.pretrain import PretrainConfig, pretrain_mlm
from ..text.tokenizer import WordPieceTokenizer


class AttributeEmbeddingModule(Module):
    """MiniBert encoder + MLP head producing attribute embeddings.

    Pooling: the paper takes the [CLS] final state (Eq. 6).  With a
    full-size pre-trained BERT the [CLS] vector is already a strong
    sequence summary; our CPU-scale MiniBert receives far less
    pre-training, so by default we concatenate the [CLS] state with an
    IDF-weighted mean of the token states before the MLP head — the mean
    term supplies the token-overlap signal immediately while fine-tuning
    shapes the [CLS] term.  Set ``pooling='cls'`` for the strict paper
    form (compared in the ablation bench).
    """

    def __init__(self, bert: MiniBert, embed_dim: int,
                 rng: np.random.Generator, pooling: str = "cls_mean",
                 idf: Optional[np.ndarray] = None):
        super().__init__()
        if pooling not in ("cls", "mean", "cls_mean"):
            raise ValueError(f"unknown pooling {pooling!r}")
        self.bert = bert
        self.pooling = pooling
        self.idf = idf
        in_dim = bert.config.dim * (2 if pooling == "cls_mean" else 1)
        self.head = Linear(in_dim, embed_dim, rng)
        self.embed_dim = embed_dim

    def _pool_weights(self, ids: np.ndarray, mask: np.ndarray,
                      dtype) -> np.ndarray:
        weights = mask.astype(dtype)
        if self.idf is not None:
            weights *= self.idf[ids]
        weights /= np.maximum(weights.sum(axis=1, keepdims=True), 1e-12)
        return weights

    def forward(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """Encode token batches into attribute embeddings ``(B, embed_dim)``."""
        hidden = self.bert(ids, mask)           # (B, T, D)
        cls = hidden[:, 0, :]                   # C(e), Eq. 6
        if self.pooling == "cls":
            pooled = cls
        else:
            weights = self._pool_weights(ids, mask, hidden.dtype)
            mean = (hidden * Tensor(weights[:, :, None])).sum(axis=1)
            pooled = mean if self.pooling == "mean" else concatenate(
                [cls, mean], axis=-1
            )
        return self.head(pooled)                # H_a(e), Eq. 7


def encode_all(module: AttributeEmbeddingModule, encoder: SequenceEncoder,
               batch_size: int = 64) -> np.ndarray:
    """Embed every entity with gradients disabled (lines 2–3 of Alg. 2).

    Entities go through in blocks of similar length (a stable sort by
    token count), so each block is trimmed to little more than its own
    rows' width; every row is written back in entity order.  Returns an
    ``(n, embed_dim)`` float array.
    """
    was_training = module.training
    module.eval()
    order = np.argsort(encoder.lengths, kind="stable")
    out = np.empty((len(encoder), module.embed_dim), dtype=get_default_dtype())
    with no_grad():
        for start in range(0, len(order), batch_size):
            rows = order[start:start + batch_size]
            out[rows] = module(*encoder.batch(rows)).numpy()
    if was_training:
        module.train()
    return out


@dataclass
class PreparedEncoder:
    """Everything the Alg.-2 trainer needs, built from raw text."""

    module: AttributeEmbeddingModule
    tokenizer: WordPieceTokenizer
    encoder1: SequenceEncoder
    encoder2: SequenceEncoder
    stats: CorpusStats
    mlm_losses: List[float]


def prepare_text_encoder(texts1: Sequence[str], texts2: Sequence[str],
                         config, rng: np.random.Generator,
                         ) -> PreparedEncoder:
    """Build tokenizer + LSA-initialised, MLM-pre-trained attribute encoder.

    Shared by SDEA (attribute sequences) and BERT-INT-lite (entity names).
    ``config`` is an :class:`repro.core.config.SDEAConfig`.
    """
    tokenizer = WordPieceTokenizer.train(list(texts1) + list(texts2),
                                         vocab_size=config.vocab_size)
    bert_config = config.bert_config(tokenizer.vocab_size)
    mlm = BertForMaskedLM(bert_config, rng)

    encoder1 = SequenceEncoder.from_texts(tokenizer, texts1,
                                          config.max_seq_len)
    encoder2 = SequenceEncoder.from_texts(tokenizer, texts2,
                                          config.max_seq_len)
    all_ids = np.concatenate([encoder1.ids, encoder2.ids])
    all_mask = np.concatenate([encoder1.mask, encoder2.mask])
    stats = corpus_stats(all_ids, all_mask, tokenizer.vocab_size,
                         bert_config.dim)
    # Pre-trained prior: LSA vectors as initial token embeddings.
    # repro: noqa[R001] below — init-time weight seeding before any
    # graph exists, equivalent to torch's `with no_grad(): weight.copy_()`.
    mlm.bert.token_embedding.weight.data[...] = stats.token_vectors  # repro: noqa[R001]

    mlm_losses: List[float] = []
    if config.mlm_epochs > 0:
        mlm_losses = pretrain_mlm(
            mlm, tokenizer.vocab, all_ids, all_mask,
            PretrainConfig(
                epochs=config.mlm_epochs,
                lr=config.mlm_lr,
                seed=config.seed + 3,
            ),
        )
    module = AttributeEmbeddingModule(
        mlm.bert, config.embed_dim, rng,
        pooling=config.pooling, idf=stats.idf,
    )
    return PreparedEncoder(
        module=module, tokenizer=tokenizer,
        encoder1=encoder1, encoder2=encoder2,
        stats=stats, mlm_losses=mlm_losses,
    )
