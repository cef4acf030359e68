"""Masked-language-model pre-training for MiniBert.

The paper fine-tunes a *pre-trained* BERT; since no pre-trained weights can
be downloaded in this environment, we pre-train MiniBert in-repo on a
corpus drawn from the knowledge graphs' attribute values (plus any extra
text the caller supplies).  This gives the attribute-embedding module the
property it needs: tokens that co-occur or share subwords produce nearby
[CLS] representations before any alignment supervision is seen.

Masking follows BERT: 15% of tokens are selected; of these 80% become
``[MASK]``, 10% a random token, 10% stay unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from ..nn import Adam, clip_grad_norm
from ..nn import functional as F
from ..obs import telemetry, trace
from .bert import BertConfig, BertForMaskedLM, SequenceEncoder
from .tokenizer import WordPieceTokenizer
from .vocab import Vocab

IGNORE_INDEX = -100


@dataclass
class PretrainConfig:
    """Hyper-parameters for MLM pre-training."""

    epochs: int = 3
    batch_size: int = 16
    lr: float = 1e-3
    mask_prob: float = 0.15
    max_len: int = 32  # row width build_pretrained_bert tokenizes to
    max_grad_norm: float = 5.0
    seed: int = 13


def mask_tokens(ids: np.ndarray, attention: np.ndarray, mask_id: int,
                vocab_size: int, rng: np.random.Generator,
                mask_prob: float = 0.15) -> tuple[np.ndarray, np.ndarray]:
    """Apply BERT's 80/10/10 masking.

    Returns ``(corrupted_ids, labels)`` where ``labels`` is the original
    token at masked positions and :data:`IGNORE_INDEX` elsewhere.  Position
    0 ([CLS]) and padding are never masked.
    """
    ids = np.array(ids, copy=True)
    labels = np.full_like(ids, IGNORE_INDEX)
    candidates = attention.copy()
    candidates[:, 0] = False  # never mask [CLS]
    selection = (rng.random(ids.shape) < mask_prob) & candidates
    labels[selection] = ids[selection]

    roll = rng.random(ids.shape)
    replace_mask = selection & (roll < 0.8)
    random_mask = selection & (roll >= 0.8) & (roll < 0.9)
    ids[replace_mask] = mask_id
    # random tokens drawn from the non-special range
    n_random = int(random_mask.sum())
    if n_random:
        ids[random_mask] = rng.integers(5, vocab_size, size=n_random)
    return ids, labels


def pretrain_mlm(model: BertForMaskedLM, vocab: Vocab, ids: np.ndarray,
                 mask: np.ndarray, config: PretrainConfig) -> List[float]:
    """Pre-train ``model`` on padded token rows; return per-epoch mean losses.

    ``ids``/``mask`` are ``[CLS]``-led rows as :class:`SequenceEncoder`
    holds them.  Rows with no token after ``[CLS]`` (blank texts) are
    dropped; every batch is trimmed to its longest row, the width of
    its attention grid.  MiniBert's position-wise layers and dropout
    run on the batch's real tokens only, and the head on the masked
    ones.  Each epoch emits one ``epoch`` telemetry event.
    """
    rng = np.random.default_rng(config.seed)
    mask = np.asarray(mask, dtype=bool)
    keep = mask.sum(axis=1) > 1
    if not keep.any():
        raise ValueError("pre-training corpus is empty")
    rows = SequenceEncoder(np.asarray(ids)[keep], mask[keep])
    optimizer = Adam(model.parameters(), lr=config.lr)
    epoch_losses: List[float] = []

    model.train()
    for epoch in range(config.epochs):
        epoch_start = time.perf_counter()
        grad_norm = None
        with trace.span("mlm/epoch", epoch=epoch):
            order = rng.permutation(len(rows))
            losses: List[float] = []
            for start in range(0, len(order), config.batch_size):
                with trace.span("batch"):
                    batch_ids, attention = rows.batch(
                        order[start:start + config.batch_size])
                    corrupted, labels = mask_tokens(
                        batch_ids, attention, vocab.mask_id, len(vocab), rng,
                        config.mask_prob
                    )
                    flat_labels = labels.reshape(-1)
                    positions = np.flatnonzero(flat_labels != IGNORE_INDEX)
                    if not len(positions):
                        continue
                    logits = model(corrupted, attention, positions)
                    loss = F.cross_entropy(logits, flat_labels[positions])
                    optimizer.zero_grad()
                    loss.backward()
                    grad_norm = clip_grad_norm(model.parameters(),
                                               config.max_grad_norm)
                    optimizer.step()
                    losses.append(loss.item())
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        epoch_losses.append(mean_loss)
        telemetry.emit("epoch", phase="mlm", epoch=epoch, loss=mean_loss,
                       seconds=time.perf_counter() - epoch_start,
                       lr=config.lr, grad_norm=grad_norm)
    model.eval()
    return epoch_losses


def build_pretrained_bert(corpus: Iterable[str], bert_config: BertConfig | None = None,
                          pretrain_config: PretrainConfig | None = None,
                          vocab_size: int = 1200, seed: int = 13
                          ) -> tuple[BertForMaskedLM, WordPieceTokenizer]:
    """Train tokenizer + MLM from a corpus; the one-call pre-training path.

    Returns the trained MLM wrapper (whose ``.bert`` is the encoder SDEA
    fine-tunes) and the tokenizer.
    """
    corpus = list(corpus)
    tokenizer = WordPieceTokenizer.train(corpus, vocab_size=vocab_size)
    if bert_config is None:
        bert_config = BertConfig(vocab_size=tokenizer.vocab_size)
    if pretrain_config is None:
        pretrain_config = PretrainConfig(seed=seed)
    rng = np.random.default_rng(seed)
    model = BertForMaskedLM(bert_config, rng)
    rows = SequenceEncoder.from_texts(tokenizer, corpus,
                                      pretrain_config.max_len)
    pretrain_mlm(model, tokenizer.vocab, rows.ids, rows.mask,
                 pretrain_config)
    return model, tokenizer
