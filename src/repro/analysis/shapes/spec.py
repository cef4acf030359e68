"""ShapeSpec: declared in/out shape contracts for ``repro.nn`` layers.

Layers declare their contract next to ``forward`` with zero runtime
cost — the decorator only attaches a parsed spec to the function::

    @shape_spec(x="* in_features", returns="* out_features")
    def forward(self, x):
        ...

Template grammar (space-separated tokens per argument):

- ``*``        leading wildcard: any number of leading axes (first
               token only);
- ``8``        integer literal, matched exactly;
- ``name``     resolved as an attribute on the module instance (dotted
               paths allowed: ``cell.input_dim``, ``head.out_features``);
               if no such attribute exists it is a *free variable* bound
               to the first size seen and required to match everywhere
               else in the same call (inputs and returns).

Verification happens only under :func:`verify_module_calls`, which
registers an engine observer (:mod:`repro.nn.hooks`) for the duration
of a shape-check run: after each ``Module`` call the declared spec (if
any) is compared against the actual argument/return shapes (witness
sizes, so symbolic dims participate transparently) and violations are
recorded on the active :class:`~.abstract.SymbolicTrace` as ``spec``
events.  The same observer lifts floating real-Tensor outputs into
:class:`AbstractTensor` so models whose inputs are concrete id arrays
(Embedding front-ends, the MiniBert encoder) go symbolic from the first
layer boundary onward.
"""

from __future__ import annotations

import contextlib
import inspect
import threading
from typing import Dict, Optional, Tuple

from ...nn.hooks import Observer, register_observer
from ...nn.tensor import Tensor
from .abstract import AbstractTensor, SymbolicTrace, lift_tensor

__all__ = ["ShapeSpec", "shape_spec", "verify_module_calls"]

_MISSING = object()


class ShapeSpec:
    """Parsed shape templates for a ``forward`` method's args and return."""

    def __init__(self, returns: Optional[str] = None, **params: str):
        self.param_templates: Dict[str, Tuple[str, ...]] = {
            name: tuple(template.split()) for name, template in params.items()
        }
        self.return_template: Optional[Tuple[str, ...]] = (
            tuple(returns.split()) if returns is not None else None
        )

    def verify(self, module, arguments: Dict[str, object], out,
               trace: SymbolicTrace) -> None:
        bindings: Dict[str, int] = {}
        cls = type(module).__name__
        for name, template in self.param_templates.items():
            value = arguments.get(name)
            shape = getattr(value, "shape", None)
            if value is None or shape is None:
                continue
            self._match(module, template, shape, bindings,
                        f"{cls}.forward arg '{name}'", trace)
        if self.return_template is not None:
            primary = out[0] if isinstance(out, tuple) else out
            shape = getattr(primary, "shape", None)
            if shape is not None:
                self._match(module, self.return_template, shape, bindings,
                            f"{cls}.forward return", trace)

    def _match(self, module, template, shape, bindings, context, trace):
        tokens = template
        if tokens and tokens[0] == "*":
            tail = tokens[1:]
            if len(shape) < len(tail):
                trace.record(
                    "spec", context,
                    f"{context}: expected at least {len(tail)} trailing "
                    f"axes {' '.join(tail)}, got shape "
                    f"({', '.join(repr(e) for e in shape)})",
                )
                return
            entries = shape[len(shape) - len(tail):]
            tokens = tail
        else:
            if len(shape) != len(tokens):
                trace.record(
                    "spec", context,
                    f"{context}: expected rank {len(tokens)} "
                    f"({' '.join(tokens)}), got rank {len(shape)} "
                    f"({', '.join(repr(e) for e in shape)})",
                )
                return
            entries = shape
        for token, entry in zip(tokens, entries):
            actual = int(entry)
            expected = self._resolve(module, token, bindings)
            if expected is None:
                bindings[token] = actual
                continue
            if actual != expected:
                trace.record(
                    "spec", context,
                    f"{context}: axis '{token}' expected {expected}, "
                    f"got {entry!r} (= {actual})",
                )

    @staticmethod
    def _resolve(module, token: str, bindings: Dict[str, int]) -> Optional[int]:
        """Expected witness size for a token, or None for an unbound var."""
        if token.isdigit():
            return int(token)
        obj = module
        for part in token.split("."):
            obj = getattr(obj, part, _MISSING)
            if obj is _MISSING:
                break
        if obj is not _MISSING and isinstance(obj, int):
            return obj
        return bindings.get(token)


def shape_spec(returns: Optional[str] = None, **params: str):
    """Attach a :class:`ShapeSpec` contract to a ``forward`` method."""
    spec = ShapeSpec(returns=returns, **params)

    def decorate(fn):
        fn.__shape_spec__ = spec
        return fn

    return decorate


# Keyed by the forward function object — one entry per decorated layer
# class, so the bound stays generous.  Shared by every thread running a
# shape-check, hence the lock.
_SIG_CACHE_MAX = 1024
_SIG_LOCK = threading.Lock()
_signature_cache: Dict[object, inspect.Signature] = {}


def _bind_arguments(forward, module, args, kwargs) -> Dict[str, object]:
    with _SIG_LOCK:
        sig = _signature_cache.get(forward)
        if sig is None:
            sig = inspect.signature(forward)
            if len(_signature_cache) >= _SIG_CACHE_MAX:
                _signature_cache.clear()
            _signature_cache[forward] = sig
    try:
        bound = sig.bind(module, *args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return dict(bound.arguments)


class _SpecObserver(Observer):
    """Verifies each returning module call's spec and lifts its output."""

    def __init__(self, trace: SymbolicTrace, lift_outputs: bool):
        self.trace = trace
        self.lift_outputs = lift_outputs

    def module_exited(self, module, args, kwargs, out):
        if out is None:  # forward raised; nothing to verify or lift
            return out
        forward = type(module).forward
        spec = getattr(forward, "__shape_spec__", None)
        if spec is not None:
            arguments = _bind_arguments(forward, module, args, kwargs)
            spec.verify(module, arguments, out, self.trace)
        return self._lift(out)

    def _lift(self, out):
        if self.lift_outputs and self.trace.env is not None:
            if (isinstance(out, Tensor) and not isinstance(out, AbstractTensor)
                    and out.data.dtype.kind in "fc"):
                return lift_tensor(out, self.trace.env)
            if isinstance(out, tuple):
                return tuple(self._lift(item) for item in out)
        return out


@contextlib.contextmanager
def verify_module_calls(trace: SymbolicTrace, lift_outputs: bool = True):
    """Verify specs and lift outputs of every ``Module`` call inside the
    context."""
    handle = register_observer(_SpecObserver(trace, lift_outputs))
    try:
        yield
    finally:
        handle.remove()
