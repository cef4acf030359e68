"""One observer registry for the autograd engine and the module layer.

Tools that watch training — the op profiler (:mod:`repro.obs.profile`),
anomaly mode (:mod:`repro.analysis.anomaly`), the IR capture
(:mod:`repro.analysis.ir.capture`) and the shape checker's spec
verifier (:mod:`repro.analysis.shapes.spec`) — subclass
:class:`Observer`, override the events they need and register an
instance with :func:`register_observer`.  No tool replaces an engine
method, so any number of them compose and leave in any order.

The engine calls every registered observer, in registration order, at:

* ``op_created`` — ``Tensor._make_child`` built an op's output;
* ``node_dispatched`` — backward computed one node's parent gradient
  contributions, before they are routed to the parents;
* ``backward_started`` / ``backward_finished`` — around the graph walk
  of ``Tensor.backward`` (``finished`` only when the walk returned);
* ``optimizer_created`` — at the end of ``Optimizer.__init__``;
* ``module_entered`` / ``module_exited`` — around ``Module.__call__``.
  ``module_exited`` runs even when ``forward`` raised (with ``out=None``)
  so paired bookkeeping such as a module stack stays balanced, and its
  return value replaces the output.

Registration is locked and copy-on-write: :data:`observers` is an
immutable tuple that is replaced, never mutated, so the engine iterates
a snapshot without taking the lock.  With nothing registered, each hook
site costs one truthiness check.
"""

from __future__ import annotations

import threading
from typing import Tuple

__all__ = ["Observer", "HookHandle", "register_observer", "observers"]

_LOCK = threading.Lock()

#: Registered observers, in registration order (see module docstring).
observers: Tuple["Observer", ...] = ()


class Observer:
    """Base engine observer: every event is a no-op until overridden."""

    def op_created(self, out, data, parents, backward) -> None:
        """``out`` was built from ``parents``; ``data`` is the raw result
        before the ``Tensor`` constructor cast it, ``backward`` the op's
        closure (also passed when ``out`` records no graph)."""

    def node_dispatched(self, node, grad, contributions) -> None:
        """``node``'s backward mapped ``grad`` to ``contributions``, one
        per parent (``None`` for a parent that gets nothing)."""

    def backward_started(self, root, grad) -> None:
        """``root.backward()`` is about to walk the graph from the seed
        ``grad`` (already a float64 array)."""

    def backward_finished(self, root, grad) -> None:
        """The walk started by ``backward_started`` returned."""

    def optimizer_created(self, optimizer) -> None:
        """``optimizer`` holds its final ``parameters`` list."""

    def module_entered(self, module, args, kwargs) -> None:
        """``module(*args, **kwargs)`` is about to run ``forward``."""

    def module_exited(self, module, args, kwargs, out):
        """``forward`` returned ``out`` (``None`` if it raised); return
        the value the call should produce."""
        return out


class HookHandle:
    """Removal handle returned by :func:`register_observer`.

    Removal is idempotent and independent of every other handle, so
    observers may be removed in any order.
    """

    __slots__ = ("_observer",)

    def __init__(self, observer: Observer):
        self._observer = observer

    def remove(self) -> None:
        global observers
        with _LOCK:
            observers = tuple(o for o in observers if o is not self._observer)


def register_observer(observer: Observer) -> HookHandle:
    """Start calling ``observer`` at every engine event."""
    global observers
    with _LOCK:
        observers = observers + (observer,)
    return HookHandle(observer)
