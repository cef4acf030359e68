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

from ..ops import _unbroadcast, defop, in_elems, numel
from ..tensor import Tensor, apply

__all__ = ["fused_softmax", "fused_log_softmax", "fused_cross_entropy"]


def _softmax_forward(x, axis):
    # exp(x - max) computed in the single ``exp`` buffer; the reference
    # allocates shift and exp separately but in-place ufuncs produce the
    # same bits.
    exp = np.subtract(x, x.max(axis=axis, keepdims=True))
    np.exp(exp, out=exp)
    denom = exp.sum(axis=axis, keepdims=True)
    out = exp / denom  # keep ``exp`` intact for the backward
    return out, (exp, denom)


def _softmax_vjp(g, out, saved, x, axis):
    # Composed dispatch order: div assigns e's grad (g / denom) and
    # denom's grad (unbroadcast(-g * e / denom**2)), then the sum node
    # broadcasts denom's grad back onto e, then exp multiplies by e; the
    # detached-max sub passes through.
    exp, denom = saved
    ge = g / denom
    tmp = np.negative(g)
    tmp *= exp
    tmp /= denom ** 2
    ge += _unbroadcast(tmp, denom.shape)
    ge *= exp
    return (ge,)


def _log_softmax_forward(x, axis):
    shifted = np.subtract(x, x.max(axis=axis, keepdims=True))
    exp = np.exp(shifted)
    denom = exp.sum(axis=axis, keepdims=True)
    # Same reduction order as the reference: shifted - log(sum(exp)).
    out = shifted
    out -= np.log(denom)
    return out, (exp, denom)


def _log_softmax_vjp(g, out, saved, x, axis):
    # Composed order: the outer sub assigns g to ``shifted`` and -g
    # (summed) to log(denom); the log/sum/exp chain then adds
    # broadcast(g_denom / denom) * exp onto ``shifted``'s grad.
    exp, denom = saved
    tmp = np.negative(g)
    gdenom = _unbroadcast(tmp, denom.shape)
    gdenom /= denom
    np.multiply(np.broadcast_to(gdenom, exp.shape), exp, out=tmp)
    tmp += g
    return (tmp,)


def _cross_entropy_forward(logits, targets, ignore_index):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=-1, keepdims=True)
    log_probs = shifted
    log_probs -= np.log(denom)
    if ignore_index is not None:
        rows = np.nonzero(targets != ignore_index)[0]
        picked_targets = targets[rows]
    else:
        rows = np.arange(logits.shape[0])
        picked_targets = targets
    picked = log_probs[rows, picked_targets]
    out = np.asarray(-picked.sum() / float(len(rows)))
    return out, (exp, denom, rows, picked_targets)


def _cross_entropy_vjp(g, out, saved, logits, targets, ignore_index):
    # Composed chain: div -> neg -> sum -> getitem scatter, then the
    # log-softmax backward with the scattered grad.
    exp, denom, rows, picked_targets = saved
    gpick = np.broadcast_to(-(g / float(len(rows))), (len(rows),))
    full = np.zeros_like(logits)
    np.add.at(full, (rows, picked_targets), gpick)
    tmp = np.negative(full)
    gdenom = _unbroadcast(tmp, denom.shape)
    gdenom /= denom
    np.multiply(np.broadcast_to(gdenom, exp.shape), exp, out=tmp)
    tmp += full
    return (tmp,)


# FLOPs mirror the composed decompositions the kernels replace: max,
# subtract, exp, sum, divide (softmax, 5 per element); log-softmax adds
# a log (6); cross-entropy is dominated by its logits' log-softmax.
# Each backward reads only its saved buffers.
SOFTMAX = defop("fused_softmax", _softmax_forward, _softmax_vjp,
                lambda operands, out: 5 * numel(out), saves=True, reads=())

LOG_SOFTMAX = defop("fused_log_softmax", _log_softmax_forward,
                    _log_softmax_vjp, lambda operands, out: 6 * numel(out),
                    saves=True, reads=())

CROSS_ENTROPY = defop("fused_cross_entropy", _cross_entropy_forward,
                      _cross_entropy_vjp,
                      lambda operands, out: 6 * in_elems(operands, out),
                      saves=True, reads=())


def fused_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis`` as one autograd node."""
    return apply(SOFTMAX, x, axis=axis)


def fused_log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis`` as one node."""
    return apply(LOG_SOFTMAX, x, axis=axis)


def fused_cross_entropy(logits: Tensor, targets: np.ndarray,
                        ignore_index: Optional[int] = None) -> Tensor:
    """Mean cross-entropy over ``(N, C)`` logits as one autograd node.

    Matches :func:`repro.nn.functional.cross_entropy` exactly, including
    the ``ignore_index`` row-masking semantics, but the entire
    log-softmax → gather → mean pipeline collapses to a single node.
    """
    targets = np.asarray(targets)
    if ignore_index is not None and not np.any(targets != ignore_index):
        return Tensor(0.0)  # reference returns a constant here too
    return apply(CROSS_ENTROPY, logits, targets=targets,
                 ignore_index=ignore_index)
