"""Observability sessions: activate metrics + tracing together.

The instruments default to no-ops; an :class:`ObsSession` swaps a live
metrics registry and span tracer into the process-global slots for the
duration of a ``with`` block (and restores whatever was there before —
sessions nest).  Every :func:`repro.obs.telemetry.emit` inside the block
then updates the registry's trainer and eval series::

    from repro import obs

    with obs.session(runs_dir="runs") as sess:
        result = run_experiment("sdea", pair, split)
        print(sess.tracer.report())

While a session with a ``runs_dir`` is active,
:func:`repro.experiments.run_experiment` streams every invocation's
events to ``<stem>-stream.jsonl`` and then writes its run record
``<stem>.json`` (see :mod:`repro.obs.runrecord`); set ``runs_dir=None``
to collect metrics and spans without persisting anything.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import metrics as metrics_mod
from . import tracing as tracing_mod
from .metrics import Registry
from .tracing import Tracer

__all__ = ["ObsSession", "session", "active_session", "is_active"]

_active: Optional["ObsSession"] = None


class ObsSession:
    """A bundle of live registry + tracer, globally installed.

    With ``profile=True`` the session additionally installs an op-level
    autograd profiler (:class:`repro.obs.profile.OpProfiler`, exposed as
    ``sess.profiler``) for its duration — per-op wall time, FLOP
    estimates, live-tensor bytes and chrome-trace events.
    """

    def __init__(self, runs_dir: Optional[str] = "runs",
                 profile: bool = False,
                 health_rules: Optional[Sequence[str]] = None):
        self.runs_dir = runs_dir
        self.registry = Registry()
        self.tracer = Tracer()
        self.profiler = None
        if profile:
            # Lazy import: profile pulls in repro.nn, which itself
            # imports repro.obs submodules.
            from .profile import OpProfiler
            self.profiler = OpProfiler()
        # Arms the runner's health engine on each recorded run's stream
        # (see repro.obs.health); an empty list arms the defaults.
        self.health_rules: Optional[List[str]] = (
            list(health_rules) if health_rules is not None else None
        )
        #: Set by the runner after each recorded experiment: its stream
        #: path and the health digest of the most recent run.
        self.last_stream_path = None
        self.last_health: Optional[dict] = None
        self._previous = None

    def __enter__(self) -> "ObsSession":
        global _active
        self._previous = (
            metrics_mod.set_registry(self.registry),
            tracing_mod.set_tracer(self.tracer),
            _active,
        )
        _active = self
        if self.profiler is not None:
            self.profiler.install()
        return self

    def __exit__(self, *exc) -> None:
        global _active
        if self.profiler is not None:
            self.profiler.uninstall()
        prev_registry, prev_tracer, prev_active = self._previous
        metrics_mod.set_registry(prev_registry)
        tracing_mod.set_tracer(prev_tracer)
        _active = prev_active


#: ``obs.session(...)`` is the class itself, used as a context manager.
session = ObsSession


def active_session() -> Optional[ObsSession]:
    """The innermost active session, or None when observability is off."""
    return _active


def is_active() -> bool:
    return _active is not None
