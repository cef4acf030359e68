"""Analytic FLOP estimates for the ``repro.nn`` op surface.

This is the shape-driven counterpart of :mod:`.abstract`: the same op
vocabulary (every ``Tensor`` method and ``tensor.py`` free function that
creates an autograd child), but instead of propagating symbolic shapes
it maps ``(op, operand shapes, output shape)`` to a floating-operation
estimate.  The op profiler (:mod:`repro.obs.profile`) uses it to turn
recorded op events into FLOP totals, and ``benchmarks/bench_hotpath.py``
derives FLOP/s from the same formulas — one FLOP model, shared by both.

Conventions (documented in ``docs/observability.md``):

* elementwise arithmetic, comparisons-with-grad (``relu``/``clip_min``),
  simple transcendentals (``exp``/``log``/``sqrt``) and ``where`` count
  **1 FLOP per output element**;
* ``tanh``/``sigmoid`` count **4 FLOPs per element** (composite
  exp-based formulas);
* ``matmul`` counts the textbook ``2 * K * prod(out)`` multiply-adds,
  where ``K`` is the contracted dimension;
* reductions (``sum``/``max``) count one FLOP per *input* element;
  ``mean`` adds one divide per output element;
* pure data movement (``transpose``, ``reshape``, ``getitem``, ``take``,
  ``concatenate``, ``stack``, ...) counts **0** — its cost shows up in
  wall time and output bytes, not FLOPs;
* a backward pass is estimated at **2x** the forward op (one gradient
  per operand, same contraction sizes) by the profiler.

Estimates are deterministic functions of shapes — no timing, no
hardware model.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

__all__ = ["FLOP_FORMULAS", "flops_for", "covered_ops"]

Shape = Tuple[int, ...]


def _numel(shape: Sequence[int]) -> int:
    out = 1
    for entry in shape:
        out *= int(entry)
    return out


def _out_elems(parents: Sequence[Shape], out: Shape) -> int:
    return _numel(out)


def _out_elems_x4(parents: Sequence[Shape], out: Shape) -> int:
    return 4 * _numel(out)


def _in_elems(parents: Sequence[Shape], out: Shape) -> int:
    return _numel(parents[0]) if parents else _numel(out)


def _mean_flops(parents: Sequence[Shape], out: Shape) -> int:
    return _in_elems(parents, out) + _numel(out)


def _matmul_flops(parents: Sequence[Shape], out: Shape) -> int:
    # K is always the last axis of the first operand, for every numpy
    # ``@`` arity (vec-vec, mat-vec, vec-mat, batched mat-mat): the
    # output holds prod(out) dot products of length K, 2 FLOPs each.
    if not parents or not parents[0]:
        return 0
    contracted = int(parents[0][-1])
    return 2 * contracted * _numel(out)


def _zero(parents: Sequence[Shape], out: Shape) -> int:
    return 0


# --------------------------------------------------------------------- #
# Fused kernels (repro.nn.kernels) — one autograd node for an entire
# composed subgraph, so the FLOP model must charge the whole subgraph to
# the single node.  Formulas mirror the reference decompositions the
# kernels replace (same matmul contractions, same per-element op
# counts), so fused and reference runs report comparable FLOP totals.
# --------------------------------------------------------------------- #

def _gru_fused_flops(parents: Sequence[Shape], out: Shape) -> int:
    # Parents lead with x: (B, T, D); out is (B, T, H).  Per output
    # element: three matmul contractions (x-projection to 3H,
    # h-projection to 2H, candidate (r*h) projection to H -> 6D + 6H
    # multiply-adds) plus two sigmoids, one tanh and the gate/blend
    # arithmetic (~22 FLOPs).
    if not parents or not parents[0] or not out:
        return 0
    d_in = int(parents[0][-1])
    hidden = int(out[-1])
    return _numel(out) * (6 * d_in + 6 * hidden + 22)


def _softmax_fused_flops(parents: Sequence[Shape], out: Shape) -> int:
    # max, subtract, exp, sum, divide — 5 per element.
    return 5 * _numel(out)


def _log_softmax_fused_flops(parents: Sequence[Shape], out: Shape) -> int:
    # max, subtract, exp, sum, log, subtract — 6 per element.
    return 6 * _numel(out)


def _cross_entropy_fused_flops(parents: Sequence[Shape], out: Shape) -> int:
    # log-softmax over the logits plus the gather/mean — dominated by
    # the 6-per-logit log-softmax; the picked-row reduction is O(rows).
    return 6 * _in_elems(parents, out)


def _layer_norm_fused_flops(parents: Sequence[Shape], out: Shape) -> int:
    # mean, center, square-mean, sqrt, divide, scale, shift — ~8/elem.
    return 8 * _numel(out)


#: op name -> (parent shapes, out shape) -> FLOP estimate.  Op names are
#: the friendly names the profiler derives from the engine's backward
#: closures (dunders stripped: ``__add__`` -> ``add``,
#: ``__truediv__`` -> ``div``).
FLOP_FORMULAS: Dict[str, Callable[[Sequence[Shape], Shape], int]] = {
    # elementwise arithmetic
    "add": _out_elems,
    "sub": _out_elems,
    "mul": _out_elems,
    "div": _out_elems,
    "neg": _out_elems,
    "pow": _out_elems,
    "abs": _out_elems,
    "relu": _out_elems,
    "clip_min": _out_elems,
    "where": _out_elems,
    # transcendentals
    "exp": _out_elems,
    "log": _out_elems,
    "sqrt": _out_elems,
    "tanh": _out_elems_x4,
    "sigmoid": _out_elems_x4,
    # contractions
    "matmul": _matmul_flops,
    # reductions
    "sum": _in_elems,
    "max": _in_elems,
    "mean": _mean_flops,
    # fused kernels (single autograd node = whole composed subgraph)
    "fused_gru_sequence": _gru_fused_flops,
    "fused_softmax": _softmax_fused_flops,
    "fused_log_softmax": _log_softmax_fused_flops,
    "fused_cross_entropy": _cross_entropy_fused_flops,
    "fused_layer_norm": _layer_norm_fused_flops,
    # data movement
    "transpose": _zero,
    "swapaxes": _zero,
    "reshape": _zero,
    "getitem": _zero,
    "take": _zero,
    "concatenate": _zero,
    "stack": _zero,
}


def covered_ops() -> Tuple[str, ...]:
    """The op names the FLOP model knows about, sorted."""
    return tuple(sorted(FLOP_FORMULAS))


def flops_for(op: str, parent_shapes: Sequence[Shape], out_shape: Shape) -> int:
    """Estimate forward FLOPs for one op from operand/output shapes.

    Unknown ops estimate 0 — the profiler still records their wall time
    and bytes, so nothing is lost, just not FLOP-counted.
    """
    formula = FLOP_FORMULAS.get(op)
    if formula is None:
        return 0
    try:
        return int(formula(parent_shapes, out_shape))
    except (IndexError, TypeError, ValueError):
        return 0
