"""Fused softmax-family kernels.

The composed reference in :mod:`repro.nn.functional` builds 4–7 autograd
nodes per call (shift, exp, sum, div, ...); at attention sizes the
dispatch overhead dwarfs the arithmetic (softmax ran at 0.32 GFLOP/s vs
30 for a plain matmul on the same host).  Each kernel here is one
autograd node whose forward replicates the reference numpy arithmetic
op-for-op in-place (bitwise-identical outputs, fewer temporaries).

The backward replays the composed graph's float operations in the
engine's dispatch order, so gradients are bit-for-bit identical to the
unfused path.  The reference softmax/log-softmax *detach* the row-max
(it is wrapped in a fresh constant ``Tensor``), so the composed
backward is exactly the sub → exp → sum → div chain and can be replayed
without a max-mask term.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, _unbroadcast

__all__ = ["fused_softmax", "fused_log_softmax", "fused_cross_entropy"]


def fused_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis`` as one autograd node."""
    # exp(x - max) computed in the single ``exp`` buffer; the reference
    # allocates shift and exp separately but in-place ufuncs produce the
    # same bits.
    exp = np.subtract(x.data, x.data.max(axis=axis, keepdims=True))
    np.exp(exp, out=exp)
    denom = exp.sum(axis=axis, keepdims=True)
    out = exp / denom  # keep ``exp`` intact for the backward

    def backward(g):
        # Composed dispatch order: div assigns e's grad (g / denom)
        # and denom's grad (unbroadcast(-g * e / denom**2)), then the
        # sum node broadcasts denom's grad back onto e, then exp
        # multiplies by e; the detached-max sub passes through.
        ge = g / denom
        tmp = np.negative(g)
        tmp *= exp
        tmp /= denom ** 2
        ge += _unbroadcast(tmp, denom.shape)
        ge *= exp
        return (ge,)

    return x._make_child(out, (x,), backward)


def fused_log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis`` as one node."""
    shifted = np.subtract(x.data, x.data.max(axis=axis, keepdims=True))
    exp = np.exp(shifted)
    denom = exp.sum(axis=axis, keepdims=True)
    # Same reduction order as the reference: shifted - log(sum(exp)).
    out = shifted
    out -= np.log(denom)

    def backward(g):
        # Composed order: the outer sub assigns g to ``shifted`` and
        # -g (summed) to log(denom); the log/sum/exp chain then adds
        # broadcast(g_denom / denom) * exp onto ``shifted``'s grad.
        tmp = np.negative(g)
        gdenom = _unbroadcast(tmp, denom.shape)
        gdenom /= denom
        np.multiply(np.broadcast_to(gdenom, exp.shape), exp, out=tmp)
        tmp += g
        return (tmp,)

    return x._make_child(out, (x,), backward)


def fused_cross_entropy(logits: Tensor, targets: np.ndarray,
                        ignore_index: Optional[int] = None) -> Tensor:
    """Mean cross-entropy over ``(N, C)`` logits as one autograd node.

    Matches :func:`repro.nn.functional.cross_entropy` exactly, including
    the ``ignore_index`` row-masking semantics, but the entire
    log-softmax → gather → mean pipeline collapses to a single node.
    """
    targets = np.asarray(targets)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=-1, keepdims=True)
    log_probs = shifted
    log_probs -= np.log(denom)
    n = logits.shape[0]
    if ignore_index is not None:
        rows = np.nonzero(targets != ignore_index)[0]
        if rows.size == 0:
            return Tensor(0.0)  # reference returns a constant here too
        picked_targets = targets[rows]
    else:
        rows = np.arange(n)
        picked_targets = targets
    picked = log_probs[rows, picked_targets]
    count = float(len(rows))
    out = np.asarray(-picked.sum() / count)

    def backward(g):
        # Composed chain: div -> neg -> sum -> getitem scatter, then
        # the log-softmax backward with the scattered grad.
        gpick = np.broadcast_to(-(g / count), (len(rows),))
        full = np.zeros_like(logits.data)
        np.add.at(full, (rows, picked_targets), gpick)
        tmp = np.negative(full)
        gdenom = _unbroadcast(tmp, denom.shape)
        gdenom /= denom
        np.multiply(np.broadcast_to(gdenom, exp.shape), exp, out=tmp)
        tmp += full
        return (tmp,)

    return logits._make_child(out, (logits,), backward)
