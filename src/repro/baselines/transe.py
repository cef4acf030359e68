"""TransE-family baselines: MTransE and JAPE-Stru.

TransE interprets a relation as a translation: ``h + r ≈ t``.  The two
baselines differ exactly as the paper describes (Section V-B1):

* **MTransE** trains TransE per KG *without negative sampling* plus an
  alignment term pulling seed pairs together — the paper attributes its
  inferior results to the missing negatives.
* **JAPE-Stru** is the structure-only variant of JAPE: TransE with
  uniform negative sampling (corrupt head or tail) and the same seed
  alignment term, which the paper shows beats MTransE.

Both share one embedding space for the two KGs (entity ids of KG2 are
offset by ``kg1.num_entities``), the standard simplification used by
OpenEA's implementations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..kg.pair import AlignmentSplit, KGPair
from ..nn import Adam, Embedding, Module
from ..nn import functional as F
from ..obs import telemetry
from .base import Aligner, links_arrays


@dataclass
class TransEConfig:
    """Hyper-parameters shared by the TransE-family baselines."""

    dim: int = 64
    epochs: int = 60
    lr: float = 1e-2
    margin: float = 1.0
    batch_size: int = 256
    negative_sampling: bool = True
    align_weight: float = 5.0
    seed: int = 11


class _TransEModel(Module):
    """Joint entity/relation embedding table over two KGs."""

    def __init__(self, num_entities: int, num_relations: int, dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.entities = Embedding(num_entities, dim, rng, std=0.1)
        self.relations = Embedding(max(num_relations, 1), dim, rng, std=0.1)

    def forward(self, heads: np.ndarray, relations: np.ndarray,
                tails: np.ndarray):
        h = self.entities(heads)
        r = self.relations(relations)
        t = self.entities(tails)
        return F.l2_distance(h + r, t)


class TransEAligner(Aligner):
    """Shared TransE trainer; MTransE / JAPE-Stru are thin presets."""

    name = "transe"

    def __init__(self, config: Optional[TransEConfig] = None,
                 warm_start: bool = False):
        self.config = config or TransEConfig()
        self.warm_start = warm_start
        self._model: Optional[_TransEModel] = None
        self._offset = 0
        self._n1 = 0
        self._n2 = 0

    def fit(self, pair: KGPair, split: Optional[AlignmentSplit] = None,
            extra_train_links: Optional[List[tuple[int, int]]] = None) -> None:
        """Train; ``extra_train_links`` adds pseudo-labels (bootstrapping)."""
        config = self.config
        split = split or pair.split()
        rng = np.random.default_rng(config.seed)
        self._n1, self._n2 = pair.kg1.num_entities, pair.kg2.num_entities
        self._offset = self._n1
        total_entities = self._n1 + self._n2
        total_relations = pair.kg1.num_relations + pair.kg2.num_relations
        rel_offset = pair.kg1.num_relations

        triples: List[tuple[int, int, int]] = [
            (h, r, t) for h, r, t in pair.kg1.rel_triples
        ]
        triples += [
            (h + self._offset, r + rel_offset, t + self._offset)
            for h, r, t in pair.kg2.rel_triples
        ]
        triples_arr = np.array(triples, dtype=int) if triples else np.zeros((0, 3), int)
        train_links = list(split.train) + list(extra_train_links or ())
        src, tgt = links_arrays(train_links)
        tgt = tgt + self._offset

        if self._model is None or not self.warm_start:
            self._model = _TransEModel(total_entities, total_relations,
                                       config.dim, rng)
        optimizer = Adam(self._model.parameters(), lr=config.lr)

        for epoch in range(config.epochs):
            epoch_start = time.perf_counter()
            epoch_loss, epoch_batches = 0.0, 0
            order = rng.permutation(len(triples_arr))
            for start in range(0, len(order), config.batch_size):
                batch = triples_arr[order[start:start + config.batch_size]]
                if batch.size == 0:
                    continue
                heads, relations, tails = batch[:, 0], batch[:, 1], batch[:, 2]
                pos = self._model(heads, relations, tails)
                if config.negative_sampling:
                    corrupt_heads = rng.random(len(batch)) < 0.5
                    neg_heads = heads.copy()
                    neg_tails = tails.copy()
                    random_entities = rng.integers(total_entities, size=len(batch))
                    neg_heads[corrupt_heads] = random_entities[corrupt_heads]
                    neg_tails[~corrupt_heads] = random_entities[~corrupt_heads]
                    neg = self._model(neg_heads, relations, neg_tails)
                    loss = F.margin_ranking_loss(pos, neg, config.margin)
                else:
                    loss = pos.mean()  # plain score minimisation (MTransE)
                if len(src):
                    h1 = self._model.entities(src)
                    h2 = self._model.entities(tgt)
                    loss = loss + config.align_weight * F.l2_distance(h1, h2).mean()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                epoch_batches += 1
            self._normalize_entities()
            telemetry.emit(
                "epoch", phase="transe", epoch=epoch,
                loss=epoch_loss / max(epoch_batches, 1),
                seconds=time.perf_counter() - epoch_start, lr=optimizer.lr,
            )

    def _normalize_entities(self) -> None:
        """TransE constrains entity embeddings to the unit sphere.

        Exact (not ≤ 1) normalisation matters for MTransE: without
        negative sampling, a ≤ 1 ball lets all embeddings collapse toward
        the origin.
        """
        assert self._model is not None
        weights = self._model.entities.weight.data
        norms = np.linalg.norm(weights, axis=1, keepdims=True)
        np.divide(weights, np.maximum(norms, 1e-12), out=weights)

    def embeddings(self, side: int) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("fit() must be called first")
        weights = self._model.entities.weight.data
        if side == 1:
            return weights[:self._n1]
        return weights[self._offset:self._offset + self._n2]


class MTransE(TransEAligner):
    """MTransE: TransE without negative sampling + alignment mapping."""

    name = "mtranse"

    def __init__(self, config: Optional[TransEConfig] = None):
        config = config or TransEConfig()
        config.negative_sampling = False
        super().__init__(config)


class JAPEStru(TransEAligner):
    """JAPE-Stru: structure-only JAPE = TransE with negative sampling."""

    name = "jape-stru"

    def __init__(self, config: Optional[TransEConfig] = None):
        config = config or TransEConfig()
        config.negative_sampling = True
        super().__init__(config)
