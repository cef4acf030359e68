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

from ..tensor import Tensor, _unbroadcast

__all__ = ["fused_layer_norm"]


def fused_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
                     eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the final axis as one autograd node."""
    dim = x.shape[-1]
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    # Divide (not multiply-by-reciprocal) so the forward stays bitwise
    # identical to the composed reference.
    normed = centered / std
    out = normed * gamma.data
    out += beta.data
    gamma_data = gamma.data

    def backward(g):
        # The leading-axes reductions _unbroadcast performs for the
        # (dim,)-shaped gamma/beta parents of the composed graph.
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * normed).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        # Replay of the composed chain in the engine's dispatch
        # order: scale -> divide -> sqrt -> +eps -> mean -> square
        # (two identical contributions) -> center -> mean.
        gnd = g * gamma_data
        gce = gnd / std
        gst = _unbroadcast(-gnd * centered / (std ** 2), std.shape)
        gv = gst / (2.0 * std)
        gsq = np.broadcast_to(gv / dim, centered.shape)
        tmp = gsq * centered
        gce = gce + tmp
        gce = gce + tmp
        gm = _unbroadcast(-gce, mean.shape)
        gx = gce + np.broadcast_to(gm / dim, gce.shape)
        return (gx, dgamma, dbeta)

    return x._make_child(out, (x, gamma, beta), backward)
