"""The engine's primitives, each stated once.

Every differentiable operation of the autograd engine is one :class:`Op`
record in :data:`OPS`, after HIPS autograd's ``primitive`` + ``defvjp``
pattern.  A record holds

* ``name`` — what the profiler, anomaly mode and ``repro ir`` print;
* ``forward(*arrays, **attrs)`` — the numpy computation.  When
  ``saves`` is set it returns ``(out, saved)``: forward buffers the VJP
  reads (the fused kernels' intermediates, ``relu``'s mask);
* ``vjp(g, out, saved, *arrays, **attrs)`` — one gradient (or ``None``)
  per operand.  Every input arrives as an argument, so the engine, the
  IR replay and the tests can all call it on whatever arrays they hold;
* ``reads`` — which of those arrays the VJP reads the values of:
  operand positions, and ``"out"`` for the op's own output.  It may
  still use any operand's shape.  The IR's liveness planner (G001)
  frees a buffer once no VJP that reads it is left to run;
* ``flops(operand_shapes, out_shape)`` — the analytic FLOP estimate.

Everything else is derived from the table: ``Tensor``'s op methods and
``concatenate``/``stack``/``where`` apply records through one
:func:`repro.nn.tensor.apply`, the profiler and the IR read
``name``/``flops``/attributes off the recorded call, and replay re-runs
``forward`` and ``vjp`` on snapshot arrays.
The composed ops live here; the fused kernels register beside their
math in :mod:`repro.nn.kernels`.

FLOP conventions (``docs/observability.md``): elementwise arithmetic,
simple transcendentals, ``relu``/``clip_min`` and ``where`` count one
FLOP per output element, ``tanh``/``sigmoid`` four; ``matmul`` counts
``2 * K * prod(out)``; reductions count one per input element (``mean``
adds a divide per output element); data movement counts 0.  The
profiler charges a backward node twice its forward estimate.

Forward and VJP expressions are the engine's original arithmetic,
operation for operation, so results are bitwise unchanged.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["DEFAULT_DTYPE", "Op", "OPS", "defop", "flops_for"]

#: The engine's one floating dtype, PyTorch's default.  Parameters,
#: activations, gradients, optimizer slots and checkpoints are all
#: float32; against float64 it cut end-to-end run time by 27-43% with
#: Hits@1 within 2% (docs/performance.md).  Code follows its operands'
#: dtype or reads ``repro.nn.get_default_dtype()`` (which the tests'
#: float64 window changes), never a hard-coded ``np.float64`` (lint
#: rule R005).
DEFAULT_DTYPE = np.float32

Shape = Tuple[int, ...]


@dataclass(frozen=True)
class Op:
    """One primitive: see the module docstring for each field's contract."""

    name: str
    forward: Optional[Callable]
    vjp: Callable
    flops: Callable[[Sequence[Shape], Shape], int]
    saves: bool = False
    #: ``None``: not declared, so every operand and the output count
    #: as read.
    reads: Optional[Tuple[Union[int, str], ...]] = None


#: Every registered primitive, by name.
OPS: Dict[str, Op] = {}


def defop(name: str, forward: Callable, vjp: Callable, flops: Callable,
          saves: bool = False, *,
          reads: Tuple[Union[int, str], ...]) -> Op:
    """Register one primitive and return its record."""
    if name in OPS:
        raise ValueError(f"op {name!r} is already registered")
    op = OPS[name] = Op(name, forward, vjp, flops, saves, tuple(reads))
    return op


def flops_for(name: str, operand_shapes: Sequence[Shape], out_shape: Shape) -> int:
    """Forward FLOP estimate of the op called ``name`` (0 for an unknown op)."""
    op = OPS.get(name)
    return 0 if op is None else op.flops(operand_shapes, out_shape)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    Inverse of numpy broadcasting: axes that were added are summed away and
    axes that were stretched from size 1 are summed back to size 1.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes that broadcasting added.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------- #
# FLOP formulas
# ---------------------------------------------------------------------- #
def numel(shape: Sequence[int]) -> int:
    out = 1
    for entry in shape:
        out *= int(entry)
    return out


def _out_elems(operands: Sequence[Shape], out: Shape) -> int:
    return numel(out)


def _out_elems_x4(operands: Sequence[Shape], out: Shape) -> int:
    return 4 * numel(out)


def in_elems(operands: Sequence[Shape], out: Shape) -> int:
    return numel(operands[0]) if operands else numel(out)


def _mean_flops(operands: Sequence[Shape], out: Shape) -> int:
    return in_elems(operands, out) + numel(out)


def _matmul_flops(operands: Sequence[Shape], out: Shape) -> int:
    # K is always the last axis of the first operand, for every numpy
    # ``@`` arity (vec-vec, mat-vec, vec-mat, batched mat-mat): the
    # output holds prod(out) dot products of length K, 2 FLOPs each.
    if not operands or not operands[0]:
        return 0
    return 2 * int(operands[0][-1]) * numel(out)


def _zero(operands: Sequence[Shape], out: Shape) -> int:
    return 0


# ---------------------------------------------------------------------- #
# Elementwise arithmetic
# ---------------------------------------------------------------------- #
ADD = defop(
    "add", operator.add,
    lambda g, out, saved, a, b: (_unbroadcast(g, a.shape),
                                 _unbroadcast(g, b.shape)),
    _out_elems, reads=())

SUB = defop(
    "sub", operator.sub,
    lambda g, out, saved, a, b: (_unbroadcast(g, a.shape),
                                 _unbroadcast(-g, b.shape)),
    _out_elems, reads=())

MUL = defop(
    "mul", operator.mul,
    lambda g, out, saved, a, b: (_unbroadcast(g * b, a.shape),
                                 _unbroadcast(g * a, b.shape)),
    _out_elems, reads=(0, 1))

DIV = defop(
    "div", operator.truediv,
    lambda g, out, saved, a, b: (_unbroadcast(g / b, a.shape),
                                 _unbroadcast(-g * a / (b**2), b.shape)),
    _out_elems, reads=(0, 1))

NEG = defop("neg", operator.neg, lambda g, out, saved, a: (-g,),
            _out_elems, reads=())

POW = defop(
    "pow", lambda a, exponent: a**exponent,
    lambda g, out, saved, a, exponent: (g * exponent * a ** (exponent - 1),),
    _out_elems, reads=(0,))


# ---------------------------------------------------------------------- #
# Matrix and shape operations
# ---------------------------------------------------------------------- #
def _matmul_vjp(g, out, saved, a, b):
    if a.ndim == 1 and b.ndim == 1:
        return (g * b, g * a)
    if b.ndim == 1:
        ga = np.expand_dims(g, -1) * b
        gb = np.tensordot(g, a, axes=(tuple(range(g.ndim)),
                                      tuple(range(g.ndim))))
        return (_unbroadcast(ga, a.shape), gb)
    if a.ndim == 1:
        ga = (g[..., None, :] @ np.swapaxes(b, -1, -2)).reshape(
            g.shape[:-1] + (a.shape[0],)
        )
        ga = _unbroadcast(ga, a.shape)
        gb = a[:, None] * g[..., None, :]
        return (ga, _unbroadcast(gb, b.shape))
    ga = g @ np.swapaxes(b, -1, -2)
    gb = np.swapaxes(a, -1, -2) @ g
    return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))


MATMUL = defop("matmul", operator.matmul, _matmul_vjp, _matmul_flops,
               reads=(0, 1))

TRANSPOSE = defop(
    "transpose", lambda a, axes: np.transpose(a, axes),
    lambda g, out, saved, a, axes: (np.transpose(g, np.argsort(axes)),),
    _zero, reads=())

SWAPAXES = defop(
    "swapaxes", lambda a, axis1, axis2: np.swapaxes(a, axis1, axis2),
    lambda g, out, saved, a, axis1, axis2: (np.swapaxes(g, axis1, axis2),),
    _zero, reads=())

RESHAPE = defop(
    "reshape", lambda a, shape: a.reshape(shape),
    lambda g, out, saved, a, shape: (g.reshape(a.shape),),
    _zero, reads=())


# ---------------------------------------------------------------------- #
# Reductions
# ---------------------------------------------------------------------- #
def _sum_vjp(g, out, saved, a, axis, keepdims):
    if axis is None:
        return (np.broadcast_to(g, a.shape).copy(),)
    g_expanded = g if keepdims else np.expand_dims(g, axis)
    return (np.broadcast_to(g_expanded, a.shape).copy(),)


def _mean_vjp(g, out, saved, a, axis, keepdims):
    if axis is None:
        count = a.size
        return (np.broadcast_to(g / count, a.shape).copy(),)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    count = int(np.prod([a.shape[ax] for ax in axes]))
    g_expanded = g if keepdims else np.expand_dims(g, axis)
    return (np.broadcast_to(g_expanded / count, a.shape).copy(),)


def _max_vjp(g, out, saved, a, axis, keepdims):
    # Gradient flows to (all) argmax positions.
    if axis is None:
        mask = (a == out).astype(g.dtype)
        return (mask * g / mask.sum(),)
    out_e = out if keepdims else np.expand_dims(out, axis)
    g_e = g if keepdims else np.expand_dims(g, axis)
    mask = (a == out_e).astype(g.dtype)
    mask /= mask.sum(axis=axis, keepdims=True)
    return (mask * g_e,)


SUM = defop("sum", lambda a, axis, keepdims: a.sum(axis=axis, keepdims=keepdims),
            _sum_vjp, in_elems, reads=())

MEAN = defop("mean",
             lambda a, axis, keepdims: a.mean(axis=axis, keepdims=keepdims),
             _mean_vjp, _mean_flops, reads=())

MAX = defop("max", lambda a, axis, keepdims: a.max(axis=axis, keepdims=keepdims),
            _max_vjp, in_elems, reads=(0, "out"))


# ---------------------------------------------------------------------- #
# Elementwise nonlinearities
# ---------------------------------------------------------------------- #
def _sigmoid(a):
    # Numerically stable: exp only ever sees non-positive arguments.
    positive = a >= 0
    exp_neg = np.exp(-np.abs(a))
    return np.where(positive, 1.0 / (1.0 + exp_neg),
                    exp_neg / (1.0 + exp_neg))


def _relu(a):
    mask = a > 0
    return a * mask, mask


EXP = defop("exp", np.exp, lambda g, out, saved, a: (g * out,),
            _out_elems, reads=("out",))

LOG = defop("log", np.log, lambda g, out, saved, a: (g / a,),
            _out_elems, reads=(0,))

SQRT = defop("sqrt", np.sqrt, lambda g, out, saved, a: (g / (2.0 * out),),
             _out_elems, reads=("out",))

TANH = defop("tanh", np.tanh, lambda g, out, saved, a: (g * (1.0 - out**2),),
             _out_elems_x4, reads=("out",))

SIGMOID = defop("sigmoid", _sigmoid,
                lambda g, out, saved, a: (g * out * (1.0 - out),),
                _out_elems_x4, reads=("out",))

RELU = defop("relu", _relu, lambda g, out, mask, a: (g * mask,),
             _out_elems, saves=True, reads=())

ABS = defop("abs", np.abs, lambda g, out, saved, a: (g * np.sign(a),),
            _out_elems, reads=(0,))

# Elementwise ``max(x, minimum)``; used for hinge losses.
CLIP_MIN = defop(
    "clip_min", lambda a, minimum: np.maximum(a, minimum),
    lambda g, out, saved, a, minimum: (g * (a > minimum),),
    _out_elems, reads=(0,))


# ---------------------------------------------------------------------- #
# Indexing, gathering, joining
# ---------------------------------------------------------------------- #
def _scatter_add(full, index, g):
    """``np.add.at(full, index, g)``, the gradient of a gather.

    ``add.at`` adds element by element.  When ``index`` is an integer
    array with no repeated row, one buffered ``full[index] += g`` does
    the same additions (each ``0.0 + g``) about ten times faster.
    """
    if isinstance(index, np.ndarray) and index.dtype.kind in "iu" \
            and len(full):
        rows = index.reshape(-1) % len(full)
        if np.bincount(rows, minlength=len(full)).max(initial=0) <= 1:
            full[index] += g
            return
    np.add.at(full, index, g)


def _getitem_vjp(g, out, saved, a, index):
    full = np.zeros_like(a)
    _scatter_add(full, index, g)
    return (full,)


def _take_vjp(g, out, saved, a, indices, axis):
    # The gradient scatters with accumulation.  ``g`` holds the index's
    # axes where ``a`` held ``axis``; move both to the front, where a
    # gather along axis 0 puts them.
    full = np.zeros_like(a)
    axis %= a.ndim
    index_axes = range(axis, axis + np.ndim(indices))
    _scatter_add(np.moveaxis(full, axis, 0), indices,
                 np.moveaxis(g, index_axes, range(len(index_axes))))
    return (full,)


def _concatenate_vjp(g, out, saved, *parts, axis):
    offsets = np.cumsum([0] + [part.shape[axis] for part in parts])
    grads = []
    for i in range(len(parts)):
        sl = [slice(None)] * g.ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        grads.append(g[tuple(sl)])
    return tuple(grads)


def _where_vjp(g, out, saved, a, b, condition):
    return (
        _unbroadcast(np.where(condition, g, 0.0), a.shape),
        _unbroadcast(np.where(condition, 0.0, g), b.shape),
    )


GETITEM = defop("getitem", lambda a, index: a[index], _getitem_vjp,
                _zero, reads=())

TAKE = defop("take", lambda a, indices, axis: np.take(a, indices, axis=axis),
             _take_vjp, _zero, reads=())

CONCATENATE = defop(
    "concatenate", lambda *parts, axis: np.concatenate(parts, axis=axis),
    _concatenate_vjp, _zero, reads=())

STACK = defop(
    "stack", lambda *parts, axis: np.stack(parts, axis=axis),
    lambda g, out, saved, *parts, axis: tuple(
        np.take(g, i, axis=axis) for i in range(len(parts))),
    _zero, reads=())

WHERE = defop(
    "where", lambda a, b, condition: np.where(condition, a, b), _where_vjp,
    _out_elems, reads=())
