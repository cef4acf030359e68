"""Composite differentiable functions built on :mod:`repro.nn.tensor`.

These are the numerically-stable building blocks (softmax, losses,
normalisation) shared by the transformer, GRU, and baseline models.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .kernels import (
    fused_cross_entropy,
    fused_log_softmax,
    fused_softmax,
    kernel_active,
)
from .tensor import Tensor, concatenate, where  # noqa: F401 (re-export)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``.

    Routes to the fused single-node kernel when active (see
    :mod:`repro.nn.kernels`); the composed path below is the reference
    the kernel is validated against.
    """
    if kernel_active():
        return fused_softmax(x, axis=axis)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    if kernel_active():
        return fused_log_softmax(x, axis=axis)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: Optional[int] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets``.

    Parameters
    ----------
    logits:
        Unnormalised class scores of shape ``(N, C)``.
    targets:
        Integer class indices of shape ``(N,)``.
    ignore_index:
        Target value whose rows contribute zero loss (e.g. padding).
    """
    if kernel_active():
        return fused_cross_entropy(logits, targets,
                                   ignore_index=ignore_index)
    targets = np.asarray(targets)
    log_probs = log_softmax(logits, axis=-1)
    n = logits.shape[0]
    if ignore_index is not None:
        mask = targets != ignore_index
        if not mask.any():
            return Tensor(0.0)
        rows = np.nonzero(mask)[0]
        picked = log_probs[rows, targets[rows]]
        return -picked.sum() / float(len(rows))
    picked = log_probs[np.arange(n), targets]
    return -picked.sum() / float(n)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = prediction - target
    return (diff * diff).mean()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise rows of ``x`` to unit L2 norm."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def l2_distance(a: Tensor, b: Tensor, axis: int = -1,
                eps: float = 1e-12) -> Tensor:
    """Euclidean distance between paired rows of ``a`` and ``b``."""
    diff = a - b
    return ((diff * diff).sum(axis=axis) + eps).sqrt()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation), used by BERT."""
    c = np.sqrt(2.0 / np.pi)
    inner = (x + x * x * x * 0.044715) * c
    return x * (inner.tanh() + 1.0) * 0.5


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool) -> Tensor:
    """Inverted dropout: zero a fraction ``p`` of entries during training."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * Tensor(mask)


def margin_ranking_loss(pos_distance: Tensor, neg_distance: Tensor,
                        margin: float) -> Tensor:
    """Margin-based ranking loss (paper Eq. 18).

    ``max(0, d(e, e+) - d(e, e-) + margin)`` averaged over the batch: pulls
    matched pairs together and pushes negatives at least ``margin`` away.
    """
    return (pos_distance - neg_distance + margin).clip_min(0.0).mean()


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Cosine similarity between paired rows of ``a`` and ``b``."""
    return (l2_normalize(a, axis=axis) * l2_normalize(b, axis=axis)).sum(axis=axis)
