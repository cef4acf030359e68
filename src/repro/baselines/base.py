"""Common interface for all entity-alignment methods (SDEA + baselines).

Every method implements :class:`Aligner`: ``fit`` on a pair + split, then
``embeddings(side)`` for ranking, evaluated uniformly by
:func:`repro.align.evaluate_embeddings`.  Methods that produce a hard 1-1
assignment instead of embeddings (CEA) override ``evaluate`` directly.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from ..align.evaluator import EvaluationResult, evaluate_embeddings
from ..kg.pair import AlignmentSplit, KGPair, Link


class Aligner(abc.ABC):
    """Abstract entity aligner."""

    name: str = "aligner"

    @abc.abstractmethod
    def fit(self, pair: KGPair, split: Optional[AlignmentSplit] = None) -> None:
        """Train on the pair's seed alignment (the split's train links)."""

    @abc.abstractmethod
    def embeddings(self, side: int) -> np.ndarray:
        """Entity embeddings for KG ``side`` (1 or 2), indexed by entity id."""

    def evaluate(self, links: Sequence[Link],
                 with_stable_matching: bool = False) -> EvaluationResult:
        """Rank-based evaluation of held-out links."""
        return evaluate_embeddings(
            self.embeddings(1), self.embeddings(2), links,
            with_stable_matching=with_stable_matching,
        )


def adjacency_matrix(num_entities: int, triples, normalize: bool = True,
                     self_loops: bool = True) -> np.ndarray:
    """Dense (optionally symmetric-normalised) adjacency from rel triples.

    Used by the GCN/GAT baselines.  ``D^-1/2 (A + I) D^-1/2`` when
    ``normalize``; multi-edges collapse to weight 1.
    """
    adjacency = np.zeros((num_entities, num_entities))
    for head, _, tail in triples:
        adjacency[head, tail] = 1.0
        adjacency[tail, head] = 1.0
    if self_loops:
        np.fill_diagonal(adjacency, 1.0)
    if normalize:
        degree = adjacency.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1.0))
        adjacency = adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    return adjacency


def links_arrays(links: Sequence[Link]) -> tuple[np.ndarray, np.ndarray]:
    """Split link tuples into source / target id arrays."""
    links = list(links)
    if not links:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    sources = np.array([a for a, _ in links], dtype=int)
    targets = np.array([b for _, b in links], dtype=int)
    return sources, targets
