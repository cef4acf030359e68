"""Relation embedding module (paper Section III-B).

Feeds the attribute embeddings of an entity's neighbors through a BiGRU
(Eq. 8–11), derives a global attention vector from the final state
(Eq. 12), scores each neighbor by inner product (Eq. 13–14) and pools
their states by the attention weights (Eq. 15).

Entities without relational neighbors use their own attribute embedding
as a single pseudo-neighbor so the module is total over the entity set
(the weighted sum then degenerates to a transform of H_a, which is the
natural "no structure available" behaviour).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..kg.graph import KnowledgeGraph
from ..nn import BiGRU, GlobalAttentionPooling, Module, Tensor


class NeighborIndex:
    """Pre-computed, padded neighbor lists for one KG.

    Attributes
    ----------
    neighbor_ids:
        ``(n, max_neighbors)`` int array; entry is a neighbor entity id or
        the entity's own id at padded / pseudo-neighbor slots.
    mask:
        ``(n, max_neighbors)`` bool; True at valid slots.
    lengths:
        number of valid slots per entity (≥ 1).
    """

    def __init__(self, graph: KnowledgeGraph, max_neighbors: int,
                 rng: np.random.Generator | None = None):
        n = graph.num_entities
        self.neighbor_ids = np.zeros((n, max_neighbors), dtype=int)
        self.mask = np.zeros((n, max_neighbors), dtype=bool)
        self.lengths = np.zeros(n, dtype=int)
        for entity in graph.entities():
            neighbors = graph.neighbor_entities(entity)
            if len(neighbors) > max_neighbors:
                if rng is not None:
                    chosen = rng.choice(len(neighbors), size=max_neighbors,
                                        replace=False)
                    neighbors = [neighbors[i] for i in sorted(chosen)]
                else:
                    neighbors = neighbors[:max_neighbors]
            if not neighbors:
                neighbors = [entity]  # self pseudo-neighbor
            count = len(neighbors)
            self.neighbor_ids[entity, :count] = neighbors
            self.neighbor_ids[entity, count:] = entity
            self.mask[entity, :count] = True
            self.lengths[entity] = count

    def batch(self, entity_ids: Sequence[int]
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        idx = np.asarray(entity_ids, dtype=int)
        return self.neighbor_ids[idx], self.mask[idx], self.lengths[idx]


class RelationEmbeddingModule(Module):
    """Neighbor aggregator producing H_r.

    The paper's design is a BiGRU + global attention (Eq. 8–15); Section
    III-B also names the alternatives it was chosen over — "averaging the
    neighbor's embeddings, pooling, and directly using the attention
    mechanism".  All four are implemented and selectable so the design
    choice can be ablated (``bench_aggregators``):

    * ``bigru_attention`` — the paper's design (default);
    * ``attention_only``  — global attention over a linear projection of
      the raw neighbor embeddings (no recurrent context);
    * ``mean``            — masked mean of projected neighbors;
    * ``max``             — masked elementwise max of projected neighbors.
    """

    AGGREGATORS = ("bigru_attention", "attention_only", "mean", "max")

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator,
                 aggregator: str = "bigru_attention"):
        super().__init__()
        if aggregator not in self.AGGREGATORS:
            raise ValueError(
                f"unknown aggregator {aggregator!r}; "
                f"choose from {self.AGGREGATORS}"
            )
        self.aggregator = aggregator
        self.hidden_dim = hidden_dim
        if aggregator == "bigru_attention":
            self.bigru = BiGRU(input_dim, hidden_dim, rng)
            self.pooling = GlobalAttentionPooling(hidden_dim, rng)
        else:
            from ..nn import Linear
            self.project = Linear(input_dim, hidden_dim, rng)
            if aggregator == "attention_only":
                self.pooling = GlobalAttentionPooling(hidden_dim, rng)

    def forward(self, neighbor_embeddings: Tensor, mask: np.ndarray,
                lengths: np.ndarray, return_weights: bool = False):
        """Aggregate neighbor attribute embeddings into H_r.

        Parameters
        ----------
        neighbor_embeddings:
            ``(B, T, D_in)`` attribute embeddings of each neighbor slot.
        mask:
            ``(B, T)`` validity mask.
        lengths:
            valid-slot counts, used to select h_n (the last real state).
        return_weights:
            Also return attention weights (attention aggregators only).
        """
        batch = neighbor_embeddings.shape[0]
        lengths = np.asarray(lengths)
        if self.aggregator == "bigru_attention":
            states = self.bigru(neighbor_embeddings, mask)  # (B, T, D)
            last = states[np.arange(batch), lengths - 1, :]  # h_n
            return self.pooling(states, last, mask,
                                return_weights=return_weights)
        states = self.project(neighbor_embeddings).tanh()
        if self.aggregator == "attention_only":
            last = states[np.arange(batch), lengths - 1, :]
            return self.pooling(states, last, mask,
                                return_weights=return_weights)
        weights = mask.astype(states.dtype)
        if self.aggregator == "mean":
            weights /= np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
            pooled = (states * Tensor(weights[:, :, None])).sum(axis=1)
        else:  # max: mask out padding with a large negative offset
            offset = np.where(mask, 0.0, -1e9)[:, :, None]
            pooled = (states + Tensor(offset)).max(axis=1)
        if return_weights:
            return pooled, Tensor(weights)
        return pooled


def gather_neighbor_embeddings(attr_embeddings: np.ndarray,
                               neighbor_ids: np.ndarray) -> Tensor:
    """Look up (frozen) attribute embeddings for padded neighbor ids.

    The attribute embeddings are treated as constants here — the paper
    trains the relation module with the attribute module frozen
    (Algorithm 3 takes ``H_a`` as a fixed input).
    """
    return Tensor(attr_embeddings[neighbor_ids])


def mean_pool_neighbors(attr_embeddings: np.ndarray,
                        neighbor_ids: np.ndarray,
                        mask: np.ndarray) -> np.ndarray:
    """Ablation baseline: plain mean over neighbor attribute embeddings.

    The paper mentions "averaging the neighbor's embeddings" as the
    alternative the BiGRU-attention design is measured against.
    """
    gathered = attr_embeddings[neighbor_ids]  # (B, T, D)
    weights = mask.astype(np.float64)
    weights /= np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
    return (gathered * weights[:, :, None]).sum(axis=1)
