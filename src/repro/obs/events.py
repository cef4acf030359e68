"""Leveled, structured (``key=value``) event logging.

Events are flat dicts: a level, an event name, and arbitrary scalar
fields.  They fan out to *sinks*:

* :class:`JsonlSink` — one JSON object per line, for machine analysis.
* :class:`StderrSink` — human-readable ``LEVEL event k=v k=v`` lines.

With no sinks configured (the default), :meth:`EventLog.log` drops the
record before formatting anything, so instrumented hot loops cost ~one
attribute load + comparison.  Per-batch events should additionally go
through :meth:`EventLog.every` so that even with sinks attached only
every *n*-th occurrence is emitted (rate limiting)::

    events.every(50, "batch", phase="attr", loss=loss)
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, TextIO

__all__ = [
    "DEBUG", "INFO", "WARN", "ERROR", "LEVELS",
    "EventLog", "JsonlSink", "StderrSink",
    "get_event_log", "set_event_log", "use_event_log",
    "debug", "info", "warn", "error", "every",
]

DEBUG, INFO, WARN, ERROR = 10, 20, 30, 40
LEVELS: Dict[int, str] = {DEBUG: "DEBUG", INFO: "INFO", WARN: "WARN",
                          ERROR: "ERROR"}

Sink = Callable[[Dict[str, object]], None]


def format_kv(record: Dict[str, object]) -> str:
    """``LEVEL event key=value ...`` rendering of one record."""
    level = LEVELS.get(int(record.get("level", INFO)), "INFO")
    event = record.get("event", "?")
    fields = " ".join(
        f"{k}={_scalar(v)}" for k, v in record.items()
        if k not in ("level", "event", "ts")
    )
    return f"{level:<5} {event}" + (f" {fields}" if fields else "")


def _scalar(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    return f'"{text}"' if " " in text else text


class JsonlSink:
    """Append records as JSON lines to an open stream or a path."""

    def __init__(self, target):
        if hasattr(target, "write"):
            self._stream: TextIO = target
            self._owns = False
        else:
            self._stream = open(target, "a", encoding="utf-8")
            self._owns = True

    def __call__(self, record: Dict[str, object]) -> None:
        self._stream.write(json.dumps(record, sort_keys=True,
                                      default=str) + "\n")

    def close(self) -> None:
        self._stream.flush()
        if self._owns:
            self._stream.close()


class StderrSink:
    """Human-readable sink with a minimum level."""

    def __init__(self, min_level: int = INFO, stream: Optional[TextIO] = None):
        self.min_level = min_level
        self.stream = stream

    def __call__(self, record: Dict[str, object]) -> None:
        if int(record.get("level", INFO)) < self.min_level:
            return
        stream = self.stream if self.stream is not None else sys.stderr
        stream.write(format_kv(record) + "\n")


class EventLog:
    """Dispatches structured records to zero or more sinks."""

    def __init__(self, sinks: Optional[List[Sink]] = None):
        self.sinks: List[Sink] = list(sinks or [])
        self._every_counts: Dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return bool(self.sinks)

    def add_sink(self, sink: Sink) -> None:
        self.sinks.append(sink)

    def log(self, level: int, event: str, **fields) -> None:
        if not self.sinks:
            return
        record: Dict[str, object] = {"ts": time.time(), "level": level,
                                     "event": event}
        record.update(fields)
        for sink in self.sinks:
            sink(record)

    def debug(self, event: str, **fields) -> None:
        self.log(DEBUG, event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log(INFO, event, **fields)

    def warn(self, event: str, **fields) -> None:
        self.log(WARN, event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log(ERROR, event, **fields)

    def every(self, n: int, event: str, level: int = DEBUG, **fields) -> None:
        """Rate-limited logging: emit the 1st, then every ``n``-th call.

        Use for per-batch events so sinks see a bounded stream.  The
        occurrence index is attached as ``seq``.
        """
        if not self.sinks:
            return
        seq = self._every_counts.get(event, 0)
        self._every_counts[event] = seq + 1
        if n <= 1 or seq % n == 0:
            self.log(level, event, seq=seq, **fields)

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


_NULL_LOG = EventLog()  # no sinks => every call is a cheap drop
_default: EventLog = _NULL_LOG


def get_event_log() -> EventLog:
    """The process-global event log (sink-less — a no-op — by default)."""
    return _default


def set_event_log(log: Optional[EventLog]) -> EventLog:
    """Install ``log`` globally; ``None`` restores the sink-less default.
    Returns the previously installed log."""
    global _default
    previous = _default
    _default = log if log is not None else _NULL_LOG
    return previous


class use_event_log:
    """Context manager installing ``log`` globally for the block."""

    def __init__(self, log: Optional[EventLog]):
        self.log = log
        self._previous: Optional[EventLog] = None

    def __enter__(self) -> EventLog:
        self._previous = set_event_log(self.log)
        return get_event_log()

    def __exit__(self, *exc) -> None:
        set_event_log(self._previous)


def debug(event: str, **fields) -> None:
    _default.log(DEBUG, event, **fields)


def info(event: str, **fields) -> None:
    _default.log(INFO, event, **fields)


def warn(event: str, **fields) -> None:
    _default.log(WARN, event, **fields)


def error(event: str, **fields) -> None:
    _default.log(ERROR, event, **fields)


def every(n: int, event: str, level: int = DEBUG, **fields) -> None:
    _default.every(n, event, level=level, **fields)
