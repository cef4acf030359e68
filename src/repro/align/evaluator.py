"""End-to-end evaluation of embedding-based aligners on a KG pair split.

Candidate targets follow the paper's protocol: for each test source entity
the model ranks *all test target entities* (the standard DBP15K/SRPRS
evaluation), using cosine similarity over final embeddings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..kg.pair import KGPair, Link
from ..obs import metrics, telemetry, trace
from .matching import stable_matching
from .metrics import (
    AlignmentMetrics,
    evaluate_similarity,
    hits_at_1_from_assignment,
    metrics_from_ranks,
)
from .similarity import (
    cosine_similarity_matrix,
    csls_similarity_matrix,
    rank_of_target,
)


@dataclass(frozen=True)
class EvaluationResult:
    """Metrics plus optional stable-matching Hits@1 and the raw matrix."""

    metrics: AlignmentMetrics
    stable_hits_at_1: Optional[float] = None

    def __str__(self) -> str:
        base = str(self.metrics)
        if self.stable_hits_at_1 is not None:
            base += f"  stable-H@1={100 * self.stable_hits_at_1:5.1f}"
        return base


def _link_rows(embeddings1: np.ndarray, embeddings2: np.ndarray,
               links: Sequence[Link]) -> tuple[np.ndarray, np.ndarray]:
    """The test-source and test-target embedding rows, in link order."""
    sources = np.array([e1 for e1, _ in links], dtype=int)
    target_ids = np.array([e2 for _, e2 in links], dtype=int)
    return embeddings1[sources], embeddings2[target_ids]


def similarity_for_links(embeddings1: np.ndarray, embeddings2: np.ndarray,
                         links: Sequence[Link]) -> tuple[np.ndarray, np.ndarray]:
    """Build the (test sources × test targets) similarity matrix.

    Returns ``(similarity, targets)`` where ``targets[i]`` is the column
    index of row i's ground-truth counterpart.
    """
    links = list(links)
    similarity = cosine_similarity_matrix(*_link_rows(embeddings1,
                                                      embeddings2, links))
    return similarity, np.arange(len(links))


def evaluate_embeddings(embeddings1: np.ndarray, embeddings2: np.ndarray,
                        links: Sequence[Link],
                        with_stable_matching: bool = False,
                        csls_k: int = 0) -> EvaluationResult:
    """Evaluate entity embeddings against ground-truth links.

    Parameters
    ----------
    csls_k:
        When > 0, re-rank with CSLS using ``csls_k`` nearest neighbors
        instead of plain cosine (hubness correction).
    """
    if not links:
        raise ValueError("cannot evaluate with zero links")
    links = list(links)
    start = time.perf_counter()
    with trace.span("evaluate/rank", links=len(links)):
        rows = _link_rows(embeddings1, embeddings2, links)
        similarity = (csls_similarity_matrix(*rows, k=csls_k) if csls_k > 0
                      else cosine_similarity_matrix(*rows))
        targets = np.arange(len(links))
        alignment_metrics = evaluate_similarity(similarity, targets)
    metrics.gauge("eval.candidate_set_size").set(similarity.shape[1])
    telemetry.emit("eval", hits_at_1=alignment_metrics.hits_at_1,
                   hits_at_10=alignment_metrics.hits_at_10,
                   mrr=alignment_metrics.mrr,
                   seconds=time.perf_counter() - start)
    stable = None
    if with_stable_matching:
        with trace.span("evaluate/stable_matching"):
            assignment = stable_matching(similarity)
            stable = hits_at_1_from_assignment(assignment, targets)
    return EvaluationResult(metrics=alignment_metrics, stable_hits_at_1=stable)


def evaluate_by_degree_bucket(embeddings1: np.ndarray, embeddings2: np.ndarray,
                              pair: KGPair, links: Sequence[Link],
                              buckets: Sequence[tuple[int, int]] = (
                                  (1, 3), (4, 10), (11, 10**9)),
                              ) -> Dict[str, AlignmentMetrics]:
    """Per-degree-bucket metrics (long-tail analysis, Section V-B2).

    Buckets are applied to the *source* entity's relational degree in kg1.
    """
    links = list(links)
    similarity, targets = similarity_for_links(embeddings1, embeddings2, links)
    degrees = np.array([pair.kg1.degree(e1) for e1, _ in links])
    out: Dict[str, AlignmentMetrics] = {}
    ranks = rank_of_target(similarity, targets)
    for lo, hi in buckets:
        mask = (degrees >= lo) & (degrees <= hi)
        label = f"{lo}~{hi}" if hi < 10**9 else f"{lo}+"
        out[label] = metrics_from_ranks(ranks[mask])
    return out
