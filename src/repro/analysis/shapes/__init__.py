"""repro.analysis.shapes — symbolic shape/dtype abstract interpretation.

Three layers (see ``docs/static_analysis.md``):

* :mod:`.dims` — symbolic dimension algebra: named :class:`Dim` atoms
  (``B``, ``T``, ``H_a`` ...) with small concrete *witness* sizes,
  affine :class:`DimExpr` combinations (``H_r + H_a + H_m`` from
  concatenation), a :class:`ShapeEnv` that maps witness sizes back to
  atoms, and a constraint kit for fail-fast config validation.
* :mod:`.abstract` — :class:`AbstractTensor`, a ``repro.nn.Tensor``
  subclass carrying only ``(shape, dtype, requires_grad)`` whose
  ``.data`` is a zero-stride witness view; the full nn op surface
  executes on it with zero real FLOPs, raising
  :class:`AbstractShapeError` on hard violations and recording
  suspicious-but-legal events (silent size-1 broadcasts, dtype drift)
  on the active :class:`SymbolicTrace`.
* :mod:`.spec` — the :func:`shape_spec` contract decorator for layer
  ``forward`` methods plus :func:`verify_module_calls`, which checks
  the declared templates at every module boundary.

The whole-model interpreter (:mod:`.interpreter`) and the per-method
probes (:mod:`.probes`) are intentionally *not* imported here: they
pull in ``repro.core`` / ``repro.baselines``, while this package must
stay importable from inside ``repro.nn`` (the layers import
:func:`shape_spec` at class-definition time).  Import them explicitly::

    from repro.analysis.shapes.interpreter import shape_check
"""

from .abstract import (
    AbstractShapeError,
    AbstractTensor,
    ShapeEvent,
    SymbolicTrace,
    broadcast_sym,
    current_trace,
    lift_tensor,
)
from .dims import (
    Constraint,
    ConstraintError,
    Dim,
    DimExpr,
    Divides,
    Eq,
    OneOf,
    Positive,
    ShapeEnv,
    as_expr,
    check_constraints,
    contains_guarded,
    enforce_constraints,
)
from .spec import ShapeSpec, shape_spec, verify_module_calls

__all__ = [
    "Dim", "DimExpr", "ShapeEnv", "as_expr", "contains_guarded",
    "Constraint", "ConstraintError", "Eq", "Divides", "Positive", "OneOf",
    "check_constraints", "enforce_constraints",
    "AbstractTensor", "AbstractShapeError", "ShapeEvent", "SymbolicTrace",
    "current_trace", "lift_tensor", "broadcast_sym",
    "ShapeSpec", "shape_spec", "verify_module_calls",
]
