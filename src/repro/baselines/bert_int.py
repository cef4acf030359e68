"""BERT-INT-lite — a BERT-based interaction model over entity *names*.

BERT-INT (Tang et al., IJCAI 2020) encodes entity names/descriptions with
a fine-tuned BERT and adds pairwise *interaction* features between the
neighbor sets.  The paper stresses its "strong dependency on entity name":
excellent where names are literally aligned (FR-EN, SRPRS) and "does not
even work" on OpenEA D-W where one side uses Wikidata Q-ids (Table V:
0.6 / 0.0 Hits@1).

This lite version keeps both ingredients at our scale: a MiniBert
fine-tuned on name strings with the same margin-loss/hard-negative
procedure as SDEA's Algorithm 2, plus a neighbor-name interaction score
(mean over one side's neighbors of the max similarity to the other
side's neighbors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..align.evaluator import EvaluationResult
from ..align.matching import stable_matching
from ..align.metrics import evaluate_similarity, hits_at_1_from_assignment
from ..align.similarity import cosine_similarity_matrix
from ..core.attribute_module import prepare_text_encoder
from ..core.config import SDEAConfig
from ..core.trainer import pretrain_attribute_module
from ..kg.graph import KnowledgeGraph
from ..kg.pair import AlignmentSplit, KGPair, Link
from .base import Aligner
from .cea import entity_display_name


@dataclass
class BertIntConfig:
    """BERT-INT-lite hyper-parameters (reuses SDEA's attribute trainer)."""

    sdea: SDEAConfig = None
    interaction_weight: float = 0.3
    max_neighbors: int = 8
    seed: int = 53

    def __post_init__(self):
        if self.sdea is None:
            self.sdea = SDEAConfig(
                max_seq_len=16, attr_epochs=8, mlm_epochs=2,
                vocab_size=900, seed=self.seed,
            )


class BertInt(Aligner):
    """Name-encoder + neighbor-name interaction aligner."""

    name = "bert-int"

    def __init__(self, config: Optional[BertIntConfig] = None):
        self.config = config or BertIntConfig()
        self._pair: Optional[KGPair] = None
        self._name_emb1: Optional[np.ndarray] = None
        self._name_emb2: Optional[np.ndarray] = None
        self._neighbors1: List[List[int]] = []
        self._neighbors2: List[List[int]] = []

    def fit(self, pair: KGPair, split: Optional[AlignmentSplit] = None) -> None:
        config = self.config.sdea
        split = split or pair.split()
        self._pair = pair
        rng = np.random.default_rng(config.seed)

        names1 = [entity_display_name(pair.kg1, e) for e in pair.kg1.entities()]
        names2 = [entity_display_name(pair.kg2, e) for e in pair.kg2.entities()]
        prepared = prepare_text_encoder(names1, names2, config, rng)
        self._name_emb1, self._name_emb2, _ = pretrain_attribute_module(
            prepared.module, prepared.encoder1, prepared.encoder2,
            split.train, split.valid, config,
        )
        self._neighbors1 = _neighbor_lists(pair.kg1, self.config.max_neighbors)
        self._neighbors2 = _neighbor_lists(pair.kg2, self.config.max_neighbors)

    def embeddings(self, side: int) -> np.ndarray:
        """Name embeddings only (the interaction part is pairwise)."""
        emb = self._name_emb1 if side == 1 else self._name_emb2
        if emb is None:
            raise RuntimeError("fit() must be called first")
        return emb

    def interaction_similarity(self, links: Sequence[Link]) -> np.ndarray:
        """Neighbor-name interaction matrix over the links grid."""
        assert self._name_emb1 is not None and self._name_emb2 is not None
        links = list(links)
        src = [a for a, _ in links]
        tgt = [b for _, b in links]
        out = np.zeros((len(src), len(tgt)))
        unit1 = _unit(self._name_emb1)
        unit2 = _unit(self._name_emb2)
        nbr_src = [unit1[self._neighbors1[a]] if self._neighbors1[a] else None
                   for a in src]
        nbr_tgt = [unit2[self._neighbors2[b]] if self._neighbors2[b] else None
                   for b in tgt]
        for i, mat_a in enumerate(nbr_src):
            if mat_a is None:
                continue
            for j, mat_b in enumerate(nbr_tgt):
                if mat_b is None:
                    continue
                sim = mat_a @ mat_b.T
                out[i, j] = 0.5 * (sim.max(axis=1).mean() + sim.max(axis=0).mean())
        return out

    def evaluate(self, links: Sequence[Link],
                 with_stable_matching: bool = False) -> EvaluationResult:
        links = list(links)
        src = np.array([a for a, _ in links], dtype=int)
        tgt = np.array([b for _, b in links], dtype=int)
        name_sim = cosine_similarity_matrix(
            self.embeddings(1)[src], self.embeddings(2)[tgt]
        )
        w = self.config.interaction_weight
        similarity = (1.0 - w) * name_sim + w * self.interaction_similarity(links)
        targets = np.arange(similarity.shape[0])
        metrics = evaluate_similarity(similarity, targets)
        stable = None
        if with_stable_matching:
            assignment = stable_matching(similarity)
            stable = hits_at_1_from_assignment(assignment, targets)
        return EvaluationResult(metrics=metrics, stable_hits_at_1=stable)


def _neighbor_lists(graph: KnowledgeGraph, cap: int) -> List[List[int]]:
    return [graph.neighbor_entities(e)[:cap] for e in graph.entities()]


def _unit(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    # Rank in float64, as repro.align does.  The interaction loop runs
    # one tiny matmul and four reductions per link pair, and numpy's
    # float32 scalars make each pair ~30% slower than float64 ones.
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, eps)
