"""Chrome-trace (catapult JSON) export for spans and op events.

Produces the ``{"traceEvents": [...]}`` format that Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` load directly.  Two
event sources merge into one timeline:

* **Span lanes** (tid 0) — synthesized from the aggregated span tree
  (:meth:`repro.obs.tracing.Tracer.to_dict` or a run record's
  ``spans``).  The tracer aggregates repeated spans, so begin/end
  timestamps are gone; each node is laid out as one complete (``ph: X``)
  event whose duration is the node's *summed* wall time, children placed
  sequentially from the parent's start.  Durations are real, the layout
  within a parent is schematic — read it as a flame graph, not a strict
  timeline.
* **Op lanes** (tid 1 forward, tid 2 backward) — true timestamped events
  recorded live by :class:`repro.obs.profile.OpProfiler`, with FLOPs /
  bytes / module path in ``args``.

Both clocks are relative to session start, so when a profiling session
records spans and ops together the lanes line up in Perfetto.

Every event carries the required ``ph`` / ``ts`` / ``pid`` / ``tid``
keys and the event list is sorted by ``ts`` (schema-checked in
``tests/test_chrometrace.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "span_tree_to_events", "build_chrome_trace", "write_chrome_trace",
    "record_to_chrome_trace",
]

_PID = 1
_SPAN_TID = 0
_FWD_TID = 1
_BWD_TID = 2


def _thread_meta(tid: int, name: str) -> Dict[str, object]:
    # ph:"M" metadata names the lane in the viewer; ts present so the
    # whole event list has a uniform schema.
    return {"ph": "M", "name": "thread_name", "ts": 0.0,
            "pid": _PID, "tid": tid, "args": {"name": name}}


def span_tree_to_events(tree: Dict[str, object],
                        start_us: float = 0.0,
                        pid: int = _PID,
                        tid: int = _SPAN_TID) -> List[Dict[str, object]]:
    """Flatten an aggregated span tree into complete (``X``) events.

    ``tree`` is ``Tracer.to_dict()`` output (or a run record's
    ``spans``).  Children are laid out sequentially from the parent's
    start; a child whose summed wall time exceeds the remaining parent
    budget still gets its full duration (aggregation can make siblings
    overlap — durations win over layout).
    """
    events: List[Dict[str, object]] = []

    def walk(node: Dict[str, object], begin_us: float) -> None:
        wall_us = float(node.get("wall_seconds", 0.0)) * 1e6
        event: Dict[str, object] = {
            "ph": "X", "name": str(node.get("name", "?")),
            "cat": "span", "ts": begin_us, "dur": wall_us,
            "pid": pid, "tid": tid,
            "args": {"calls": int(node.get("calls", 0))},
        }
        attrs = node.get("attrs")
        if attrs:
            event["args"]["attrs"] = attrs
        if node.get("errors"):
            event["args"]["errors"] = int(node["errors"])
        events.append(event)
        cursor = begin_us
        for child in node.get("children", []):  # type: ignore[union-attr]
            walk(child, cursor)
            cursor += float(child.get("wall_seconds", 0.0)) * 1e6

    walk(tree, start_us)
    return events


def build_chrome_trace(
    span_tree: Optional[Dict[str, object]] = None,
    op_events: Optional[List[Dict[str, object]]] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble a catapult-JSON document from spans and/or op events."""
    events: List[Dict[str, object]] = [_thread_meta(_SPAN_TID, "spans")]
    if op_events:
        events.append(_thread_meta(_FWD_TID, "ops/forward"))
        events.append(_thread_meta(_BWD_TID, "ops/backward"))
    if span_tree:
        events.extend(span_tree_to_events(span_tree))
    if op_events:
        events.extend(op_events)
    # Stable sort keeps metadata (ts 0) ahead of same-ts X events and
    # guarantees monotone timestamps for consumers that stream.
    events.sort(key=lambda event: float(event.get("ts", 0.0)))
    out: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        out["metadata"] = metadata
    return out


def write_chrome_trace(path, trace: Dict[str, object]) -> Path:
    """Serialise a trace document; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace), encoding="utf-8")
    return path


def record_to_chrome_trace(record) -> Dict[str, object]:
    """Convert a :class:`repro.obs.runrecord.RunRecord`'s span data to a
    chrome trace — works for any recorded run, even when op profiling
    was off (``repro obs --chrome-trace``)."""
    if not record.spans:
        raise ValueError(
            f"run record {record.run_id} has no span data to convert"
        )
    metadata = {
        "run_id": record.run_id,
        "method": record.method,
        "dataset": record.dataset,
    }
    return build_chrome_trace(span_tree=record.spans, metadata=metadata)
