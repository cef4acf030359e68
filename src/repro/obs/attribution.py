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

Op names need no derivation: every recorded op carries its registry
record (:mod:`repro.nn.ops`), whose ``name`` all tools print.
"""

from __future__ import annotations

from typing import List

__all__ = [
    "PATH_SEPARATOR", "module_label", "join_module_path",
    "ModulePathTracker",
]

#: Separator between module levels in an attribution path.
PATH_SEPARATOR = "/"


def module_label(module) -> str:
    """Display name of one module in an attribution path."""
    return type(module).__name__


def join_module_path(stack: List[str]) -> str:
    """Render a module stack as a single attribution path string."""
    return PATH_SEPARATOR.join(stack)


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
