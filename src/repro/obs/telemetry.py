"""Live run telemetry: an append-only, tail-able JSONL event stream.

While :mod:`repro.obs.runrecord` writes *one* JSON manifest after a run
finishes, this module streams structured events *while the run is in
flight*: every epoch loop emits one ``epoch`` event per epoch (plus a
``validation`` event where it validates and an ``early_stop`` event
where it stops early), the evaluator an ``eval`` event per ranking, the
runner ``run_start`` / ``phase`` / ``run_end`` markers, and the health
engine (:mod:`repro.obs.health`) ``alert`` events.  Each line is a flat JSON
object carrying ``ts``, ``schema_version`` and an ``event`` name, so the
stream can be tailed with ``tail -f`` or ``repro obs watch`` and parsed
by anything that reads JSONL.

Every run that writes a record streams, under the stem the runner
claims when the run starts (:func:`repro.obs.runrecord.claim_stem`)::

    with obs.session(runs_dir="runs"):
        run_experiment("sdea", pair, split)
    # runs/<stem>.json            the run record
    # runs/<stem>-stream.jsonl    one event per line

:func:`emit` is the one event API.  Before it appends an event to the
stream it updates the registry series :data:`DERIVED` names for the
event's kind (``trainer.loss``, ``trainer.valid_hits1``,
``eval.hits_at_1``, ...), so a run's record holds the same per-epoch
facts as its stream without the trainer restating them.  Like the other
instruments, the stream goes through a process-global slot that defaults
to a no-op :class:`NullStream`: instrumented code calls :func:`emit`
unconditionally and pays two cheap calls when no session is active.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import metrics as metrics_mod
from .runrecord import STREAM_SUFFIX

__all__ = [
    "STREAM_SCHEMA_VERSION", "STREAM_SUFFIX", "DERIVED",
    "TelemetryStream", "NullStream",
    "get_stream", "set_stream", "use_stream", "emit", "is_active",
    "read_stream", "iter_stream", "latest_stream", "stream_status",
    "format_status_line",
]

#: Version stamped on every stream event; readers warn (never crash) on
#: versions they do not know (see :func:`read_stream`).
STREAM_SCHEMA_VERSION = 1

#: The registry series :func:`emit` derives from each event kind, as
#: ``(instrument, series, event field, label fields)``.  A counter counts
#: the event; a gauge or histogram takes the field's value and is
#: skipped when the event lacks the field or holds ``None`` in it.
DERIVED: Dict[str, Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]],
                         ...]] = {
    "epoch": (
        ("counter", "trainer.epochs", None, ("phase",)),
        ("gauge", "trainer.loss", "loss", ("phase",)),
        ("gauge", "trainer.lr", "lr", ("phase",)),
        ("histogram", "trainer.epoch_seconds", "seconds", ("phase",)),
        ("gauge", "trainer.loss_curve", "loss", ("phase", "epoch")),
    ),
    "validation": (
        ("gauge", "trainer.valid_hits1", "hits1", ("phase",)),
    ),
    "eval": (
        ("counter", "eval.rankings", None, ()),
        ("histogram", "eval.ranking_seconds", "seconds", ()),
        ("gauge", "eval.hits_at_1", "hits_at_1", ()),
    ),
}


class TelemetryStream:
    """Append-only JSONL event stream.

    Parameters
    ----------
    path:
        Output file; opened in append mode, one JSON object per line,
        flushed per event so ``tail -f`` sees lines immediately.
    engine:
        Optional :class:`repro.obs.health.HealthEngine`; every emitted
        event is fed to it and any alerts it fires are appended to the
        stream as ``alert`` events.
    """

    def __init__(self, path, engine=None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self.engine = engine
        self.events_written = 0
        self._closed = False

    def emit(self, event: str, **fields) -> None:
        """Append one event line, then any alerts it fires."""
        if self._closed:
            return
        record = self._write(event, fields)
        if self.engine is not None and event != "alert":
            for alert in self.engine.observe(record):
                self._write("alert", alert.to_fields())

    def _write(self, event: str, fields: Dict[str, object]
               ) -> Dict[str, object]:
        record: Dict[str, object] = {
            "ts": time.time(),
            "schema_version": STREAM_SCHEMA_VERSION,
            "event": event,
        }
        record.update(fields)
        self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self._fh.flush()
        self.events_written += 1
        return record

    def close(self) -> None:
        """Append the ``stream_end`` marker and close the file."""
        if self._closed:
            return
        summary: Dict[str, object] = {"events": self.events_written}
        if self.engine is not None:
            summary.update(self.engine.alert_counts())
        self._write("stream_end", summary)
        self._fh.close()
        self._closed = True


class NullStream:
    """The no-op default: every emit is a cheap drop."""

    __slots__ = ()
    events_written = 0
    engine = None

    def emit(self, event: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass


_NULL_STREAM = NullStream()
_default = _NULL_STREAM


def get_stream():
    """The process-global telemetry stream (a no-op by default)."""
    return _default


def set_stream(stream: Optional[TelemetryStream]):
    """Install ``stream`` globally; ``None`` restores the no-op stream.
    Returns the previously installed stream."""
    global _default
    previous = _default
    _default = stream if stream is not None else _NULL_STREAM
    return previous


class use_stream:
    """Context manager installing ``stream`` globally for the block."""

    def __init__(self, stream: Optional[TelemetryStream]):
        self.stream = stream
        self._previous = None

    def __enter__(self):
        self._previous = set_stream(self.stream)
        return get_stream()

    def __exit__(self, *exc) -> None:
        set_stream(self._previous)


def emit(event: str, **fields) -> None:
    """Update the event's :data:`DERIVED` series in the global registry,
    then append the event to the global stream.  Each step is a no-op
    while its slot holds the null default."""
    registry = metrics_mod.get_registry()
    if registry.enabled:
        for instrument, name, field, label_names in DERIVED.get(event, ()):
            labels = {key: fields[key] for key in label_names
                      if key in fields}
            if instrument == "counter":
                registry.counter(name).inc(**labels)
                continue
            value = fields.get(field)
            if value is None:
                continue
            if instrument == "gauge":
                registry.gauge(name).set(value, **labels)
            else:
                registry.histogram(name).observe(value, **labels)
    _default.emit(event, **fields)


def is_active() -> bool:
    return _default is not _NULL_STREAM


# ---------------------------------------------------------------------- #
# Read side
# ---------------------------------------------------------------------- #
def read_stream(path, on_warning: Optional[Callable[[str], None]] = None
                ) -> List[Dict[str, object]]:
    """Parse a stream file into a list of event dicts.

    Unknown ``schema_version`` values and malformed lines produce one
    warning each (via ``on_warning``, default :func:`warnings.warn`) and
    are otherwise skipped/kept best-effort — a partially written tail
    line, common while a run is live, is never an error.
    """
    if on_warning is None:
        import warnings

        def on_warning(message: str) -> None:  # noqa: F811
            warnings.warn(message, stacklevel=3)

    out: List[Dict[str, object]] = []
    warned_version = False
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail line of a live stream
        if not isinstance(record, dict):
            continue
        version = record.get("schema_version")
        if (not warned_version and isinstance(version, int)
                and version > STREAM_SCHEMA_VERSION):
            on_warning(
                f"{path}: stream schema_version {version} is newer than "
                f"this reader ({STREAM_SCHEMA_VERSION}); "
                "fields may be missing"
            )
            warned_version = True
        out.append(record)
    return out


def iter_stream(path, poll_seconds: float = 0.5,
                timeout: Optional[float] = None
                ) -> Iterator[Dict[str, object]]:
    """Tail a live stream: yield events as they are appended.

    Stops on a ``stream_end`` event, or after ``timeout`` seconds without
    one (``None`` = wait forever).  Torn/partial tail lines are retried
    on the next poll.
    """
    path = Path(path)
    deadline = None if timeout is None else time.monotonic() + timeout
    offset = 0
    buffer = ""
    while True:
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(offset)
                chunk = fh.read()
                offset = fh.tell()
            buffer += chunk
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yield record
                    if record.get("event") == "stream_end":
                        return
        if deadline is not None and time.monotonic() > deadline:
            return
        time.sleep(poll_seconds)


def latest_stream(runs_dir) -> Optional[Path]:
    """The most recently modified ``*-stream.jsonl`` under ``runs_dir``."""
    directory = Path(runs_dir)
    if not directory.is_dir():
        return None
    streams = sorted(directory.glob(f"*{STREAM_SUFFIX}"),
                     key=lambda p: p.stat().st_mtime)
    return streams[-1] if streams else None


def stream_status(events: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold a stream's events into the latest-known run state.

    The dict behind ``repro obs watch``'s status line: run identity,
    current phase/epoch, latest loss / hits@1 / epoch seconds, alert
    counts, and whether the stream has ended.
    """
    status: Dict[str, object] = {"alerts_warn": 0, "alerts_fail": 0,
                                 "events": 0, "ended": False}
    for record in events:
        status["events"] += 1
        kind = record.get("event")
        if kind == "run_start":
            for key in ("method", "dataset"):
                if key in record:
                    status[key] = record[key]
        elif kind == "epoch":
            for key in ("phase", "epoch", "loss", "lr", "grad_norm"):
                if key in record:
                    status[key] = record[key]
            if "seconds" in record:
                status["epoch_seconds"] = record["seconds"]
        elif kind == "validation":
            if "hits1" in record:
                status["hits@1"] = record["hits1"]
        elif kind == "eval":
            if "hits_at_1" in record:
                status["hits@1"] = record["hits_at_1"]
        elif kind == "phase":
            status["phase"] = record.get("name", status.get("phase"))
        elif kind == "alert":
            if record.get("severity") == "fail":
                status["alerts_fail"] += 1
            else:
                status["alerts_warn"] += 1
        elif kind == "run_end":
            if "hits_at_1" in record:
                status["hits@1"] = record["hits_at_1"]
        elif kind == "stream_end":
            status["ended"] = True
    return status


def format_status_line(status: Dict[str, object]) -> str:
    """One compact ``key=value`` line for the ``watch`` renderer."""
    parts: List[str] = []
    if "method" in status:
        dataset = status.get("dataset", "?")
        parts.append(f"{status['method']}@{dataset}")
    if "phase" in status:
        phase = status["phase"]
        epoch = status.get("epoch")
        parts.append(f"phase={phase}" + (f" epoch={epoch}"
                                         if epoch is not None else ""))
    for key, fmt in (("loss", ".4g"), ("hits@1", ".3f"),
                     ("epoch_seconds", ".2f"), ("grad_norm", ".3g")):
        value = status.get(key)
        if isinstance(value, (int, float)):
            parts.append(f"{key}={value:{fmt}}")
    parts.append(f"alerts={status['alerts_warn']}w/{status['alerts_fail']}f")
    parts.append(f"events={status['events']}")
    if status.get("ended"):
        parts.append("[ended]")
    return "  ".join(parts)
