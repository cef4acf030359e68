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
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import hooks as _hooks

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Canonical floating dtype of the engine.  Hot-path code must reference
#: this constant instead of hard-coding ``np.float64`` (lint rule R005),
#: so a future float32/mixed-precision backend is a one-line switch.
DEFAULT_DTYPE = np.float64

# Gradient recording is per-thread, so a no_grad() window on one thread
# cannot disable autograd for a training step running on another.
_grad_state = threading.local()


class no_grad:
    """Context manager that disables gradient tracking.

    Used during evaluation to avoid building the autograd graph::

        with no_grad():
            scores = model(batch)

    The flag is thread-local: disabling gradients on one thread leaves
    every other thread's recording untouched.
    """

    def __enter__(self) -> "no_grad":
        self._prev = getattr(_grad_state, "enabled", True)
        _grad_state.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _grad_state.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return getattr(_grad_state, "enabled", True)


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


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array.  Floating point data is
        stored as ``float64`` for numerical robustness on CPU.
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
        if arr.dtype.kind in "fc":
            arr = arr.astype(DEFAULT_DTYPE, copy=False)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
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
    def _make_child(
        self,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        parents = tuple(parents)
        out = Tensor(data)
        if getattr(_grad_state, "enabled", True) \
                and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        observers = _hooks.observers
        if observers:
            for observer in observers:
                observer.op_created(out, data, parents, backward)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=DEFAULT_DTYPE, copy=True)
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
        grad = np.asarray(grad, dtype=np.float64)
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
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        a, b = self, other

        def backward(g):
            return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

        return self._make_child(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        a, b = self, other

        def backward(g):
            return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))

        return self._make_child(a.data - b.data, (a, b), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape),
            )

        return self._make_child(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g / b.data, a.shape),
                _unbroadcast(-g * a.data / (b.data**2), b.shape),
            )

        return self._make_child(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g):
            return (-g,)

        return self._make_child(-a.data, (a,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        a = self

        def backward(g):
            return (g * exponent * a.data ** (exponent - 1),)

        return self._make_child(a.data**exponent, (a,), backward)

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
        other = _as_tensor(other)
        a, b = self, other
        out = a.data @ b.data

        def backward(g):
            if a.ndim == 1 and b.ndim == 1:
                return (g * b.data, g * a.data)
            if b.ndim == 1:
                ga = np.expand_dims(g, -1) * b.data
                gb = np.tensordot(g, a.data, axes=(tuple(range(g.ndim)),
                                                   tuple(range(g.ndim))))
                return (_unbroadcast(ga, a.shape), gb)
            if a.ndim == 1:
                ga = (g[..., None, :] @ np.swapaxes(b.data, -1, -2)).reshape(
                    g.shape[:-1] + (a.shape[0],)
                )
                ga = _unbroadcast(ga, a.shape)
                gb = a.data[:, None] * g[..., None, :]
                return (ga, _unbroadcast(gb, b.shape))
            ga = g @ np.swapaxes(b.data, -1, -2)
            gb = np.swapaxes(a.data, -1, -2) @ g
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return self._make_child(out, (a, b), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (full reversal when no axes are given)."""
        a = self
        axes_t = tuple(axes) if axes else tuple(reversed(range(a.ndim)))
        inverse = np.argsort(axes_t)

        def backward(g):
            return (np.transpose(g, inverse),)

        return self._make_child(np.transpose(a.data, axes_t), (a,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Interchange two axes."""
        a = self

        def backward(g):
            return (np.swapaxes(g, axis1, axis2),)

        return self._make_child(np.swapaxes(a.data, axis1, axis2), (a,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        original = a.shape

        def backward(g):
            return (g.reshape(original),)

        return self._make_child(a.data.reshape(shape), (a,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).copy(),)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_expanded, a.shape).copy(),)

        return self._make_child(
            a.data.sum(axis=axis, keepdims=keepdims), (a,), backward
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        if axis is None:
            count = a.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([a.shape[ax] for ax in axes]))

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g / count, a.shape).copy(),)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_expanded / count, a.shape).copy(),)

        return self._make_child(
            a.data.mean(axis=axis, keepdims=keepdims), (a,), backward
        )

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; gradient flows to (all) argmax positions."""
        a = self
        out = a.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                mask = (a.data == out).astype(np.float64)
                return (mask * g / mask.sum(),)
            out_e = out if keepdims else np.expand_dims(out, axis)
            g_e = g if keepdims else np.expand_dims(g, axis)
            mask = (a.data == out_e).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            return (mask * g_e,)

        return self._make_child(out, (a,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        a = self
        out = np.exp(a.data)

        def backward(g):
            return (g * out,)

        return self._make_child(out, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(g):
            return (g / a.data,)

        return self._make_child(np.log(a.data), (a,), backward)

    def sqrt(self) -> "Tensor":
        a = self
        out = np.sqrt(a.data)

        def backward(g):
            return (g / (2.0 * out),)

        return self._make_child(out, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        out = np.tanh(a.data)

        def backward(g):
            return (g * (1.0 - out**2),)

        return self._make_child(out, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        # Numerically stable: exp only ever sees non-positive arguments.
        positive = a.data >= 0
        exp_neg = np.exp(-np.abs(a.data))
        out = np.where(positive, 1.0 / (1.0 + exp_neg),
                       exp_neg / (1.0 + exp_neg))

        def backward(g):
            return (g * out * (1.0 - out),)

        return self._make_child(out, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0

        def backward(g):
            return (g * mask,)

        return self._make_child(a.data * mask, (a,), backward)

    def abs(self) -> "Tensor":
        a = self
        sign = np.sign(a.data)

        def backward(g):
            return (g * sign,)

        return self._make_child(np.abs(a.data), (a,), backward)

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise ``max(x, minimum)``; used for hinge losses."""
        a = self
        mask = a.data > minimum

        def backward(g):
            return (g * mask,)

        return self._make_child(np.maximum(a.data, minimum), (a,), backward)

    # ------------------------------------------------------------------ #
    # Indexing / gathering
    # ------------------------------------------------------------------ #
    def __getitem__(self, index) -> "Tensor":
        a = self
        if isinstance(index, Tensor):
            index = index.data
        out = a.data[index]

        def backward(g):
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            return (full,)

        return self._make_child(out, (a,), backward)

    def take(self, indices: np.ndarray, axis: int = 0) -> "Tensor":
        """Gather rows along ``axis`` (gradient scatters with accumulation)."""
        a = self
        indices = np.asarray(_raw(indices))
        out = np.take(a.data, indices, axis=axis)

        def backward(g):
            full = np.zeros_like(a.data)
            if axis == 0:
                np.add.at(full, indices, g)
            else:
                moved_full = np.moveaxis(full, axis, 0)
                moved_g = np.moveaxis(g, axis, 0)
                np.add.at(moved_full, indices, moved_g)
            return (full,)

        return self._make_child(out, (a,), backward)


def _as_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _raw(value) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


# ---------------------------------------------------------------------- #
# Free functions over tensors
# ---------------------------------------------------------------------- #
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis, with gradient splitting."""
    tensors = [_as_tensor(t) for t in tensors]
    for t in tensors:
        # Abstract tensors (repro.analysis.shapes) propagate symbolically.
        override = getattr(t, "_concat_override", None)
        if override is not None:
            return override(tensors, axis)
    sizes = [t.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for i in range(len(tensors)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    anchor = tensors[0]
    return anchor._make_child(out, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [_as_tensor(t) for t in tensors]
    for t in tensors:
        override = getattr(t, "_stack_override", None)
        if override is not None:
            return override(tensors, axis)
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    anchor = tensors[0]
    return anchor._make_child(out, tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    for operand in (a, b):
        override = getattr(operand, "_where_override", None)
        if override is not None:
            return override(condition, a, b)
    condition = np.asarray(_raw(condition), dtype=bool)
    a, b = _as_tensor(a), _as_tensor(b)
    out = np.where(condition, a.data, b.data)

    def backward(g):
        return (
            _unbroadcast(np.where(condition, g, 0.0), a.shape),
            _unbroadcast(np.where(condition, 0.0, g), b.shape),
        )

    return a._make_child(out, (a, b), backward)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
