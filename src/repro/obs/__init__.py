"""repro.obs — dependency-free observability for the whole stack.

Its parts (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  registry with labeled series and percentile estimates.
* :mod:`repro.obs.tracing` — hierarchical span tracer/profiler
  (``with trace.span("attr_pretrain/epoch", epoch=i): ...``).
* :mod:`repro.obs.runrecord` — per-run JSON manifests under ``runs/``,
  and the one stem a recorded run's files share, claimed when it starts.
* :mod:`repro.obs.profile` — opt-in op-level autograd profiler
  (``obs.session(profile=True)``): per-op wall time, analytic FLOPs,
  live-tensor bytes, forward/backward split.
* :mod:`repro.obs.chrometrace` — catapult-JSON export of spans + op
  events, viewable in Perfetto (``repro obs --chrome-trace``).
* :mod:`repro.obs.telemetry` — the one event API, ``telemetry.emit``:
  it derives the trainer/eval registry series from each event, then
  appends it to the live, tail-able JSONL stream every recorded run
  writes next to its record (``repro obs watch``).
* :mod:`repro.obs.health` — declarative health rules
  (``loss.nonfinite``, ``hits@1.drop(vs=baseline, abs=0.02)``, ...)
  evaluated online against the stream; ``repro run --health-gate``.
* :mod:`repro.obs.compare` — cross-run analytics over ``runs/``
  (``repro obs list / diff / compare / prune``).

Everything is a no-op until a :class:`session` is entered (or a live
registry/tracer/stream is installed explicitly), so instrumented hot
paths cost ~nothing by default.  Typical use::

    from repro import obs

    with obs.session(runs_dir="runs") as sess:
        run_experiment("sdea", pair, split)   # runs/<id>.json + stream
        print(sess.tracer.report())

Instrumented library code imports the submodules and calls through the
process-global instances::

    from repro.obs import metrics, telemetry, trace

    metrics.counter("optim.steps").inc()
    with trace.span("evaluate/rank"):
        ...
    telemetry.emit("epoch", phase="attr", epoch=epoch, loss=loss)
"""

from . import compare, health, metrics, telemetry
from . import tracing as trace
from .chrometrace import (
    build_chrome_trace,
    record_to_chrome_trace,
    span_tree_to_events,
    write_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
    get_registry,
    set_registry,
    use_registry,
)
from .runrecord import (
    DEFAULT_RUNS_DIR,
    RunRecord,
    format_record,
    latest_record,
    list_records,
    load_record,
    version_stamp,
    write_record,
)
from .compare import (
    RunDiff,
    RunSummary,
    diff_records,
    list_runs,
    prune_runs,
)
from .health import DEFAULT_RULES, Alert, HealthEngine, HealthRule, parse_rules
from .session import ObsSession, active_session, is_active, session
from .telemetry import (
    STREAM_SUFFIX,
    NullStream,
    TelemetryStream,
    get_stream,
    read_stream,
    set_stream,
    use_stream,
)
from .tracing import (
    NullTracer,
    SpanNode,
    Tracer,
    format_span_tree,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "metrics", "trace", "telemetry", "health", "compare",
    "TelemetryStream", "NullStream", "get_stream", "set_stream",
    "use_stream", "read_stream", "STREAM_SUFFIX",
    "HealthRule", "HealthEngine", "Alert", "parse_rules", "DEFAULT_RULES",
    "RunSummary", "RunDiff", "list_runs", "diff_records", "prune_runs",
    "Counter", "Gauge", "Histogram", "Registry", "NullRegistry",
    "get_registry", "set_registry", "use_registry",
    "Tracer", "NullTracer", "SpanNode", "format_span_tree",
    "get_tracer", "set_tracer", "use_tracer",
    "RunRecord", "write_record", "load_record", "latest_record",
    "list_records", "format_record", "version_stamp", "DEFAULT_RUNS_DIR",
    "ObsSession", "session", "active_session", "is_active",
    "build_chrome_trace", "record_to_chrome_trace", "span_tree_to_events",
    "write_chrome_trace",
]

# NOTE: repro.obs.profile (OpProfiler, active_profiler) is imported
# lazily — it reaches into repro.nn for its hook points, and this
# package must stay importable from inside repro.nn (optim/layers pull
# in metrics/tracing at import time).  Use
# ``from repro.obs.profile import OpProfiler`` or
# ``obs.session(profile=True)``.
