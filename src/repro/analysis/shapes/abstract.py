"""Abstract tensors: the ``repro.nn`` op surface over symbolic shapes.

:class:`AbstractTensor` subclasses :class:`repro.nn.Tensor` but carries
only ``(shape, dtype, requires_grad)`` — its ``.data`` is a zero-stride
``np.broadcast_to`` view of a single scalar, so a whole forward pass
executes with zero real FLOPs and near-zero memory while every shape
rule (numpy broadcasting, matmul contraction, reshape conservation,
reduction/keepdims, concat/stack) is checked symbolically.

Shape entries are ints, :class:`~.dims.Dim` atoms, or affine
:class:`~.dims.DimExpr` combinations; dtypes are inferred by probing the
actual numpy operation on 0-d operands, so promotion semantics are exact
by construction.  While a :class:`SymbolicTrace` is active, suspicious
but legal events are recorded on it: a size-1 axis silently stretched
against a broadcast-guarded dim (lost ``keepdims`` bugs) and floating
results that deviate from the engine dtype (``nn.get_default_dtype()``).
Hard shape violations raise :class:`AbstractShapeError`.

The class adds no op methods: it overrides the one ``Tensor._apply``
every op goes through and runs the op's shape rule from the registry
(:mod:`repro.nn.ops`) instead of its numpy forward, handing the rule a
:class:`RuleContext`.  ``nn.tensor.apply`` gives the call to the first
abstract operand, so mixed real/abstract expressions (``real +
abstract``, ``concatenate([real, abstract])``) stay abstract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ...nn.tensor import Tensor, get_default_dtype, is_grad_enabled
from .dims import Dim, DimExpr, ShapeEnv, as_expr, contains_guarded

__all__ = [
    "AbstractShapeError",
    "AbstractTensor",
    "Operand",
    "RuleContext",
    "ShapeEvent",
    "SymbolicTrace",
    "current_trace",
    "lift_tensor",
]


class AbstractShapeError(ValueError):
    """A shape rule is statically violated during abstract execution."""


def _fmt_shape(sym: tuple) -> str:
    return "(" + ", ".join(repr(e) for e in sym) + ")"


def _is_symbolic(entry) -> bool:
    return isinstance(entry, (Dim, DimExpr))


# ---------------------------------------------------------------------- #
# Trace context: collects suspicious-but-legal events during a check run
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShapeEvent:
    """One recorded observation (kind: 'stretch' | 'dtype' | custom)."""

    kind: str
    op: str
    message: str


class SymbolicTrace:
    """Active while a forward is being abstractly executed.

    Carries the :class:`ShapeEnv` used to lift real arrays into symbolic
    shapes and accumulates deduplicated :class:`ShapeEvent` records
    (loops re-emit the same event every iteration; one copy is enough).
    """

    def __init__(self, env: Optional[ShapeEnv] = None):
        self.env = env
        self.events: List[ShapeEvent] = []

    def record(self, kind: str, op: str, message: str) -> None:
        event = ShapeEvent(kind, op, message)
        if event not in self.events:
            self.events.append(event)

    def __enter__(self) -> "SymbolicTrace":
        global _CURRENT
        self._prev = _CURRENT
        _CURRENT = self
        return self

    def __exit__(self, *exc) -> None:
        global _CURRENT
        _CURRENT = self._prev


_CURRENT: Optional[SymbolicTrace] = None


def current_trace() -> Optional[SymbolicTrace]:
    return _CURRENT


def _resym(shape: Sequence[int]) -> tuple:
    """Map a concrete shape through the active trace's environment."""
    trace = _CURRENT
    if trace is not None and trace.env is not None:
        return trace.env.resymbolize(shape)
    return tuple(int(s) for s in shape)


# ---------------------------------------------------------------------- #
# Symbolic broadcasting
# ---------------------------------------------------------------------- #
def broadcast_sym(a_sym: tuple, b_sym: tuple, op: str) -> tuple:
    """Numpy broadcasting over symbolic shapes.

    Raises :class:`AbstractShapeError` on incompatible axes.  An axis
    explicitly present with size 1 that stretches against a
    broadcast-guarded dim (the batch axis) records a 'stretch' event on
    the active trace — legal numpy, almost always a lost ``keepdims``.
    """
    la, lb = len(a_sym), len(b_sym)
    out = []
    for i in range(1, max(la, lb) + 1):
        ea = a_sym[la - i] if i <= la else None
        eb = b_sym[lb - i] if i <= lb else None
        if ea is None:
            out.append(eb)
            continue
        if eb is None:
            out.append(ea)
            continue
        wa, wb = int(ea), int(eb)
        if wa == wb:
            out.append(ea if _is_symbolic(ea) else eb)
        elif wa == 1 or wb == 1:
            target = eb if wa == 1 else ea
            out.append(target)
            trace = _CURRENT
            if trace is not None and contains_guarded(target):
                trace.record(
                    "stretch", op,
                    f"size-1 axis silently broadcast to {target!r} in op "
                    f"'{op}': {_fmt_shape(a_sym)} vs {_fmt_shape(b_sym)}",
                )
        else:
            raise AbstractShapeError(
                f"operands could not be broadcast together in op '{op}': "
                f"{_fmt_shape(a_sym)} vs {_fmt_shape(b_sym)}"
            )
    return tuple(reversed(out))


def _note_dtype(op: str, dtype: np.dtype) -> None:
    trace = _CURRENT
    if trace is None or dtype.kind not in "fc":
        return
    engine = get_default_dtype()
    if dtype != engine:
        trace.record(
            "dtype", op,
            f"op '{op}' produced {dtype} — deviates from the engine "
            f"dtype ({engine})",
        )


# ---------------------------------------------------------------------- #
# What an op's shape rule works with (Op.shape in repro.nn.ops)
# ---------------------------------------------------------------------- #
class Operand(NamedTuple):
    """One operand as a shape rule sees it."""

    shape: tuple
    #: A 0-d array of the operand's dtype, lifted the way the eager
    #: ``Tensor._apply`` lifts it, so a rule's probe promotes exactly as
    #: the eager forward does.
    probe: object
    requires_grad: bool

    @property
    def dtype(self) -> np.dtype:
        return np.asarray(self.probe).dtype

    @classmethod
    def of(cls, value) -> "Operand":
        if isinstance(value, AbstractTensor):
            return cls(value.sym, np.ones((), value.data.dtype),
                       value.requires_grad)
        if isinstance(value, Tensor):
            return cls(_resym(value.shape), np.ones((), value.data.dtype),
                       value.requires_grad)
        arr = Tensor(value).data
        return cls(_resym(arr.shape), np.ones((), arr.dtype), False)


class RuleContext:
    """The symbolic toolkit one op's shape rule runs with."""

    def __init__(self, op):
        self.op = op

    def broadcast(self, *shapes) -> tuple:
        """Broadcast the shapes left to right (see :func:`broadcast_sym`)."""
        out = shapes[0]
        for shape in shapes[1:]:
            out = broadcast_sym(out, shape, self.op.name)
        return out

    def dtype(self, operands: Sequence[Operand], attrs: dict) -> np.dtype:
        """The dtype the op's numpy forward gives on 0-d probes."""
        out = self.op.forward(*(o.probe for o in operands), **attrs)
        return np.asarray(out[0] if self.op.saves else out).dtype

    @staticmethod
    def error(message: str) -> AbstractShapeError:
        return AbstractShapeError(message)

    @staticmethod
    def resym(shape: Sequence[int]) -> tuple:
        return _resym(shape)

    @staticmethod
    def fmt(shape: tuple) -> str:
        return _fmt_shape(shape)

    @staticmethod
    def total(entries: Sequence):
        """Sum of dims (a concatenated axis), affine when symbolic."""
        total = as_expr(entries[0])
        for entry in entries[1:]:
            total = total + as_expr(entry)
        return total.const if not total.terms else total

    @staticmethod
    def pick(entries: Sequence):
        """The symbolic entry among equal-sized ones, else the first."""
        return next((e for e in entries if _is_symbolic(e)), entries[0])


# ---------------------------------------------------------------------- #
# The abstract tensor itself
# ---------------------------------------------------------------------- #
class AbstractTensor(Tensor):
    """A Tensor that executes shape/dtype rules only.

    ``shape`` returns the *symbolic* tuple; ``.data`` is a zero-stride
    witness array (every symbolic dim degraded to its witness int via
    ``__index__``) so raw-numpy code paths inside forwards keep working.
    No autograd graph is recorded — only ``requires_grad`` propagation.
    """

    __slots__ = ("sym",)

    def __init__(self, shape: Sequence, dtype=None,
                 requires_grad: bool = False):
        sym = tuple(shape)
        witness = tuple(int(e) for e in sym)
        if any(w < 0 for w in witness):
            raise ValueError(f"negative dimension in {_fmt_shape(sym)}")
        # Bypass Tensor.__init__: it would copy and force the engine
        # dtype, destroying both the zero-memory witness and dtype
        # tracking.
        if dtype is None:
            dtype = get_default_dtype()
        self.data = np.broadcast_to(np.zeros((), dtype=np.dtype(dtype)),
                                    witness)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()
        self._ctx = None
        self.sym = sym

    @property
    def shape(self) -> tuple:
        return self.sym

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return (f"AbstractTensor(shape={_fmt_shape(self.sym)}, "
                f"dtype={self.data.dtype}{grad_note})")

    def detach(self) -> "AbstractTensor":
        return AbstractTensor(self.sym, self.data.dtype, requires_grad=False)

    @staticmethod
    def _apply(op, operands: tuple, attrs: dict) -> "AbstractTensor":
        """Run ``op``'s shape rule in place of its forward."""
        args = [Operand.of(value) for value in operands]
        shape, dtype = op.shape(RuleContext(op), *args, **attrs)
        dtype = np.dtype(dtype)
        _note_dtype(op.name, dtype)
        rg = is_grad_enabled() and any(a.requires_grad for a in args)
        return AbstractTensor(shape, dtype, requires_grad=rg)


def lift_tensor(tensor: Tensor, env: Optional[ShapeEnv] = None) -> AbstractTensor:
    """Lift a real tensor into the abstract world, resymbolizing its shape."""
    sym = env.resymbolize(tensor.shape) if env is not None else _resym(tensor.shape)
    return AbstractTensor(sym, tensor.data.dtype,
                          requires_grad=tensor.requires_grad)
