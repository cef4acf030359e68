"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the neural-network substrate used by the
SDEA reproduction.  It provides a :class:`Tensor` wrapper around a numpy
array that records the operations applied to it and can back-propagate
gradients through arbitrary compositions of the supported operations.

The design mirrors the familiar PyTorch surface (``requires_grad``,
``.backward()``, ``.grad``) but is deliberately small: only the operations
needed by the models in this repository are implemented.  Every operation
supports full numpy broadcasting; gradients of broadcast operands are
reduced back to the operand's original shape.

The operations themselves are records in :mod:`repro.nn.ops`; the op
methods here only normalise arguments and hand the record to
:func:`apply`, which runs its forward and, while gradients flow, stores
an :class:`OpCall` as the output's backward node.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import hooks as _hooks
from . import ops as _ops
from .ops import DEFAULT_DTYPE, Op, _unbroadcast  # noqa: F401 (re-export)

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Gradient recording and the floating dtype are per-thread, so a
# no_grad() or default_dtype() window on one thread cannot change a
# training step running on another.
_state = threading.local()
_ENGINE_DTYPE = np.dtype(DEFAULT_DTYPE)


class no_grad:
    """Context manager that disables gradient tracking.

    Used during evaluation to avoid building the autograd graph::

        with no_grad():
            scores = model(batch)

    The flag is thread-local: disabling gradients on one thread leaves
    every other thread's recording untouched.
    """

    def __enter__(self) -> "no_grad":
        self._prev = getattr(_state, "enabled", True)
        _state.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _state.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return getattr(_state, "enabled", True)


class default_dtype:
    """Context manager that sets the floating dtype of new tensors.

    The engine computes in :data:`DEFAULT_DTYPE` (float32).  Inside the
    window, tensors, their gradients and the backward seed take
    ``dtype`` instead::

        with default_dtype(np.float64):
            check_gradients(...)

    float64 is the tests' reference precision: a central difference at
    ``eps=1e-6`` has about 1e-2 relative error in float32.  Nothing
    under ``src/`` enters the window.  Like :class:`no_grad`, it is
    thread-local.
    """

    def __init__(self, dtype):
        self._dtype = np.dtype(dtype)

    def __enter__(self) -> "default_dtype":
        self._prev = get_default_dtype()
        _state.dtype = self._dtype
        return self

    def __exit__(self, *exc) -> None:
        _state.dtype = self._prev


def get_default_dtype() -> np.dtype:
    """Return the floating dtype new tensors take on this thread."""
    return getattr(_state, "dtype", _ENGINE_DTYPE)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array.  Floating point data and
        Python ``int`` scalars are stored in the engine dtype
        (:func:`get_default_dtype`, float32 unless a
        :class:`default_dtype` window says otherwise), so an op never
        promotes against a lifted constant; other integer and boolean
        arrays keep their dtype.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` for this
        tensor during :meth:`backward`.
    """

    # _ctx holds op provenance (an OpProvenance record) while anomaly
    # detection (repro.analysis.anomaly) is active; None otherwise.
    # __weakref__ lets the op profiler (repro.obs.profile) track live
    # tensor bytes without keeping outputs alive.
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_ctx", "__weakref__")
    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind in "fc" or type(data) is int:
            arr = arr.astype(get_default_dtype(), copy=False)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional["OpCall"] = None
        self._parents: tuple = ()
        self._ctx = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------ #
    # Autograd machinery
    # ------------------------------------------------------------------ #
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"],
                    backward: Callable[[np.ndarray], tuple]) -> "Tensor":
        """Record an op outside the registry.

        ``backward`` maps the output's gradient to one contribution per
        parent.  Such a node has no forward to re-run, so the IR replay
        treats it as opaque; tests build faulty "kernels" this way.
        """
        return _record(OPAQUE, {"backward": backward}, None, data,
                       tuple(parents))

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=get_default_dtype(), copy=True)
        else:
            self.grad += grad  # repro: noqa[R001] engine leaf accumulation

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to 1.0, which is only valid for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=get_default_dtype())
        observers = _hooks.observers
        for observer in observers:
            observer.backward_started(self, grad)

        # Topologically order the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate into .grad
                node._accumulate(node_grad)
            if node._backward is not None:
                node._backward_dispatch(node_grad, grads)
        for observer in observers:
            observer.backward_finished(self, grad)

    def _backward_dispatch(self, grad: np.ndarray, grads: dict) -> None:
        """Invoke the op's backward fn, routing parent grads via ``grads``."""
        contributions = self._backward(grad)
        observers = _hooks.observers
        if observers:
            for observer in observers:
                observer.node_dispatched(self, grad, contributions)
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not (
                parent.requires_grad or parent._backward is not None
            ):
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic (the ops themselves live in repro.nn.ops)
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply(_ops.ADD, self, other)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return apply(_ops.SUB, self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return apply(_ops.SUB, other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply(_ops.MUL, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply(_ops.DIV, self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return apply(_ops.DIV, other, self)

    def __neg__(self) -> "Tensor":
        return apply(_ops.NEG, self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return apply(_ops.POW, self, exponent=exponent)

    # ------------------------------------------------------------------ #
    # Comparisons (no grad; return numpy bool arrays)
    # ------------------------------------------------------------------ #
    def __gt__(self, other):
        return self.data > _raw(other)

    def __lt__(self, other):
        return self.data < _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)

    # ------------------------------------------------------------------ #
    # Matrix operations
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting batched operands (numpy @ semantics)."""
        return apply(_ops.MATMUL, self, other)

    __matmul__ = matmul

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (full reversal when no axes are given)."""
        axes = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        return apply(_ops.TRANSPOSE, self, axes=axes)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Interchange two axes."""
        return apply(_ops.SWAPAXES, self, axis1=axis1, axis2=axis2)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply(_ops.RESHAPE, self, shape=shape)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply(_ops.SUM, self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply(_ops.MEAN, self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; gradient flows to (all) argmax positions."""
        return apply(_ops.MAX, self, axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        return apply(_ops.EXP, self)

    def log(self) -> "Tensor":
        return apply(_ops.LOG, self)

    def sqrt(self) -> "Tensor":
        return apply(_ops.SQRT, self)

    def tanh(self) -> "Tensor":
        return apply(_ops.TANH, self)

    def sigmoid(self) -> "Tensor":
        return apply(_ops.SIGMOID, self)

    def relu(self) -> "Tensor":
        return apply(_ops.RELU, self)

    def abs(self) -> "Tensor":
        return apply(_ops.ABS, self)

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise ``max(x, minimum)``; used for hinge losses."""
        return apply(_ops.CLIP_MIN, self, minimum=minimum)

    # ------------------------------------------------------------------ #
    # Indexing / gathering
    # ------------------------------------------------------------------ #
    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        return apply(_ops.GETITEM, self, index=index)

    def take(self, indices: np.ndarray, axis: int = 0) -> "Tensor":
        """Gather rows along ``axis`` (gradient scatters with accumulation)."""
        return apply(_ops.TAKE, self, indices=np.asarray(_raw(indices)),
                     axis=axis)


class OpCall:
    """One application of an op: the backward node of its output.

    Holds what the op's VJP needs besides the incoming gradient — the
    op's attributes, the forward buffers it saved, its raw output and
    its input tensors, whose ``.data`` is read when the node runs.
    Observers (:mod:`repro.nn.hooks`) read ``op.name``, ``op.flops``
    and ``attrs`` off it.
    """

    __slots__ = ("op", "attrs", "saved", "out", "inputs")

    def __init__(self, op: Op, attrs: dict, saved, out: np.ndarray,
                 inputs: tuple):
        self.op = op
        self.attrs = attrs
        self.saved = saved
        self.out = out
        self.inputs = inputs

    def __call__(self, grad: np.ndarray) -> tuple:
        return self.op.vjp(grad, self.out, self.saved,
                           *[t.data for t in self.inputs], **self.attrs)


#: The op of a ``Tensor._make_child`` node: its one attribute is the
#: hand-written backward, and it has no forward or FLOP formula.
OPAQUE = Op("opaque", forward=None,
            vjp=lambda g, out, saved, *inputs, backward: backward(g),
            flops=lambda operands, out: 0)


def _record(op: Op, attrs: dict, saved, data, inputs: tuple) -> Tensor:
    """Wrap an op's output and, when gradients flow, attach its node."""
    out = Tensor(data)
    track = False
    if getattr(_state, "enabled", True):
        for t in inputs:
            if t.requires_grad:
                track = True
                break
    observers = _hooks.observers
    if track or observers:
        call = OpCall(op, attrs, saved, data, inputs)
        if track:
            out.requires_grad = True
            out._parents = inputs
            out._backward = call
        for observer in observers:
            observer.op_created(out, call)
    return out


def apply(op: Op, *operands, **attrs) -> Tensor:
    """Run the registered ``op`` on ``operands`` with ``attrs`` and
    record it in the graph."""
    inputs = tuple([value if isinstance(value, Tensor) else Tensor(value)
                    for value in operands])
    result = op.forward(*[t.data for t in inputs], **attrs)
    data, saved = result if op.saves else (result, None)
    return _record(op, attrs, saved, data, inputs)


def _raw(value) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


# ---------------------------------------------------------------------- #
# Free functions over tensors
# ---------------------------------------------------------------------- #
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis, with gradient splitting."""
    return apply(_ops.CONCATENATE, *tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    return apply(_ops.STACK, *tensors, axis=axis)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    return apply(_ops.WHERE, a, b,
                 condition=np.asarray(_raw(condition), dtype=bool))


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
