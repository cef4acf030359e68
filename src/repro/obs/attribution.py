"""Shared op/module attribution for the profiler, chrome trace and IR.

Three tools attribute tensor ops to the module that created them: the
op profiler (:mod:`repro.obs.profile`), the chrome-trace exporter built
on its events (:mod:`repro.obs.chrometrace`), and the training-step IR
capture (:mod:`repro.analysis.ir`).  Before this module each kept its
own copy of the path-building logic, which let ``repro ir --dot`` and
the chrome trace drift apart on naming.  Both now funnel through the
same two primitives:

* :func:`module_label` — one module's display name,
* :class:`ModulePathTracker` — the module-call stack joined with
  :data:`PATH_SEPARATOR` (``SDEAModel/TransformerEncoder/...``).

The op-name derivation from a backward closure (``__qualname__`` of the
op's nested ``backward`` function, mapped through the dunder table) is
shared here too, so every consumer agrees with the FLOP model's op
vocabulary (:mod:`repro.analysis.shapes.flops`).
"""

from __future__ import annotations

import threading
from typing import Dict, List

__all__ = [
    "PATH_SEPARATOR", "module_label", "join_module_path",
    "ModulePathTracker", "op_name_from_backward", "FRIENDLY_OP_NAMES",
    "NAME_CACHE_MAX", "clear_name_cache",
]

#: Separator between module levels in an attribution path.
PATH_SEPARATOR = "/"

#: Friendly names for dunder-implemented ops, matching the FLOP model.
FRIENDLY_OP_NAMES = {
    "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
    "__neg__": "neg", "__pow__": "pow",
    "__getitem__": "getitem", "__matmul__": "matmul",
}

#: Process-level cache keyed by the backward *code object* — one entry
#: per op definition site in the engine.  Ops defined at module level
#: keep it tiny, but dynamically built closures (fused kernels compiled
#: per shape, test fixtures) can mint fresh code objects, so the cache
#: is bounded; and it is shared by every thread that profiles or
#: captures IR, so access goes through ``_NAME_LOCK``: the size check,
#: clear and insert run as one step and the bound holds.
NAME_CACHE_MAX = 1024

_NAME_LOCK = threading.Lock()
_NAME_CACHE: Dict[object, str] = {}


def module_label(module) -> str:
    """Display name of one module in an attribution path."""
    return type(module).__name__


def join_module_path(stack: List[str]) -> str:
    """Render a module stack as a single attribution path string."""
    return PATH_SEPARATOR.join(stack)


def op_name_from_backward(backward) -> str:
    """Friendly op name derived from an op's backward closure.

    Engine ops define ``backward`` as a nested function, so its
    ``__qualname__`` looks like ``Tensor.matmul.<locals>.backward``;
    the enclosing method name is the op.  Dunders map through
    :data:`FRIENDLY_OP_NAMES` to the FLOP-model vocabulary.
    """
    code = getattr(backward, "__code__", None)
    key = code if code is not None else backward
    with _NAME_LOCK:
        name = _NAME_CACHE.get(key)
        if name is None:
            qualname = getattr(backward, "__qualname__", "")
            raw = qualname.split(".<locals>")[0].rsplit(".", 1)[-1] or "op"
            name = FRIENDLY_OP_NAMES.get(raw, raw)
            if len(_NAME_CACHE) >= NAME_CACHE_MAX:
                # Dropping everything is simpler than LRU bookkeeping and
                # just as good: steady state re-fills with the ~30 engine
                # ops in a handful of lookups.
                _NAME_CACHE.clear()
            _NAME_CACHE[key] = name
    return name


def clear_name_cache() -> None:
    """Empty the op-name cache (tests; never required for correctness)."""
    with _NAME_LOCK:
        _NAME_CACHE.clear()


class ModulePathTracker:
    """Maintains the live module-call stack during forward execution.

    Call :meth:`push`/:meth:`pop` from an engine observer's
    ``module_entered``/``module_exited`` (:mod:`repro.nn.hooks`) and
    read :meth:`path` when an op fires.  ``pop`` tolerates an empty
    stack, so a stray exit cannot poison later attribution.
    """

    __slots__ = ("stack",)

    def __init__(self):
        self.stack: List[str] = []

    def push(self, module) -> None:
        self.stack.append(module_label(module))

    def pop(self) -> None:
        if self.stack:
            self.stack.pop()

    def path(self) -> str:
        """The current attribution path (``""`` at top level)."""
        return join_module_path(self.stack)
