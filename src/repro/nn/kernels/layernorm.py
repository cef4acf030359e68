"""Fused LayerNorm kernel.

The composed reference (:class:`repro.nn.layers.LayerNorm`) builds ~10
autograd nodes per call (mean, center, variance, sqrt, divide, scale,
shift).  This kernel is one node over the same arithmetic: the forward
replicates the reference numpy ops (bitwise-identical output) and the
backward replays the composed graph's float operations in the engine's
dispatch order (bit-for-bit gradients).
"""

from __future__ import annotations

import numpy as np

from ..ops import _unbroadcast, defop, numel
from ..tensor import Tensor, apply

__all__ = ["fused_layer_norm"]


def _layer_norm_forward(x, gamma, beta, eps):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    # Divide (not multiply-by-reciprocal) so the forward stays bitwise
    # identical to the composed reference.
    normed = centered / std
    out = normed * gamma
    out += beta
    return out, (normed, centered, std)


def _layer_norm_vjp(g, out, saved, x, gamma, beta, eps):
    normed, centered, std = saved
    dim = x.shape[-1]
    # The leading-axes reductions _unbroadcast performs for the
    # (dim,)-shaped gamma/beta parents of the composed graph.
    lead = tuple(range(g.ndim - 1))
    dgamma = (g * normed).sum(axis=lead)
    dbeta = g.sum(axis=lead)
    # Replay of the composed chain in the engine's dispatch order:
    # scale -> divide -> sqrt -> +eps -> mean -> square (two identical
    # contributions) -> center -> mean.  ``std`` is shaped like the mean.
    gnd = g * gamma
    gce = gnd / std
    gst = _unbroadcast(-gnd * centered / (std ** 2), std.shape)
    gv = gst / (2.0 * std)
    gsq = np.broadcast_to(gv / dim, centered.shape)
    tmp = gsq * centered
    gce = gce + tmp
    gce = gce + tmp
    gm = _unbroadcast(-gce, std.shape)
    gx = gce + np.broadcast_to(gm / dim, gce.shape)
    return (gx, dgamma, dbeta)


# mean, center, square-mean, sqrt, divide, scale, shift: ~8 per element.
# The backward reads gamma; x's intermediates come from ``saved``.
LAYER_NORM = defop("fused_layer_norm", _layer_norm_forward, _layer_norm_vjp,
                   lambda operands, out: 8 * numel(out), saves=True,
                   reads=(1,))


def fused_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
                     eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the final axis as one autograd node."""
    return apply(LAYER_NORM, x, gamma, beta, eps=eps)
