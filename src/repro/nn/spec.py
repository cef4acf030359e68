"""Declared shape contracts for ``repro.nn`` layers.

Layers declare their contract next to ``forward``.  The decorator only
attaches a parsed spec to the function, so a call costs nothing extra::

    @shape_spec(x="* in_features", returns="* out_features")
    def forward(self, x):
        ...

Template grammar (space-separated tokens per argument):

- ``*``        leading wildcard: any number of leading axes (first
               token only);
- ``8``        integer literal, matched exactly;
- ``name``     resolved as an ``int`` attribute of the module instance
               (dotted paths allowed: ``cell.input_dim``,
               ``head.out_features``); if no such attribute exists it is
               a *free variable*, bound to the first size seen and
               required to match everywhere else in the same call
               (inputs and return).

:func:`check_call` compares one returned module call's argument and
return shapes with its class's spec.  The training-step IR capture
(:mod:`repro.analysis.ir`) runs it on every module call of the steps it
records and reports the violations as finding G014.
"""

from __future__ import annotations

import inspect
import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["ShapeSpec", "shape_spec", "check_call"]

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

    def verify(self, module, arguments: Dict[str, object], out) -> List[str]:
        """Every way the call's argument and return shapes break the
        templates (``[]`` when they hold)."""
        bindings: Dict[str, int] = {}
        cls = type(module).__name__
        violations: List[str] = []
        for name, template in self.param_templates.items():
            shape = getattr(arguments.get(name), "shape", None)
            if shape is not None:
                violations += self._match(module, template, shape, bindings,
                                          f"{cls}.forward arg '{name}'")
        if self.return_template is not None:
            primary = out[0] if isinstance(out, tuple) else out
            shape = getattr(primary, "shape", None)
            if shape is not None:
                violations += self._match(module, self.return_template,
                                          shape, bindings,
                                          f"{cls}.forward return")
        return violations

    def _match(self, module, tokens, shape, bindings, context) -> List[str]:
        entries = tuple(shape)
        if tokens and tokens[0] == "*":
            tokens = tokens[1:]
            if len(entries) < len(tokens):
                return [f"{context}: expected at least {len(tokens)} "
                        f"trailing axes {' '.join(tokens)}, got shape "
                        f"{entries}"]
            entries = entries[len(entries) - len(tokens):]
        elif len(entries) != len(tokens):
            return [f"{context}: expected rank {len(tokens)} "
                    f"({' '.join(tokens)}), got rank {len(entries)} "
                    f"{entries}"]
        violations = []
        for token, actual in zip(tokens, entries):
            expected = self._resolve(module, token, bindings)
            if expected is None:
                bindings[token] = actual
            elif actual != expected:
                violations.append(f"{context}: axis '{token}' expected "
                                  f"{expected}, got {actual}")
        return violations

    @staticmethod
    def _resolve(module, token: str, bindings: Dict[str, int]) -> Optional[int]:
        """Expected size for a token, or None for an unbound variable."""
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


# Keyed by the forward function object: one entry per decorated layer
# class, so the bound stays generous.  Captures on several threads share
# it, hence the lock.
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


def check_call(module, args, kwargs, out) -> List[str]:
    """Violations of ``module``'s spec by one call of its ``forward``.

    ``[]`` when the class declares no spec or ``forward`` raised
    (``out`` is ``None``).
    """
    forward = type(module).forward
    spec = getattr(forward, "__shape_spec__", None)
    if spec is None or out is None:
        return []
    return spec.verify(module, _bind_arguments(forward, module, args, kwargs),
                       out)
