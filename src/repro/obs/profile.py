"""Op-level autograd profiler: wall time, FLOPs, bytes, fwd/bwd split.

The span tracer (:mod:`repro.obs.tracing`) answers *which phase is
slow*; :class:`OpProfiler` answers *which tensor op*, at the granularity
the numpy autograd engine actually executes: every op output built by
``Tensor._make_child`` (forward) and every backward node dispatch.  It
is an engine observer (:mod:`repro.nn.hooks`), and for each op it
records

* call count and wall seconds,
* an analytic FLOP estimate from operand shapes (the shared FLOP model
  in :mod:`repro.analysis.shapes.flops`; backward ops are estimated at
  2x their forward formula),
* output bytes (forward only),
* the owning module path (``SDEAModel/TransformerEncoder/...``),
  maintained from the observer's module enter/exit events; backward
  ops inherit the path of the module that *created* the output tensor
  (tracked through a weak map).

Live **tensor memory** is tracked by attaching a ``weakref.finalize``
to every op output: ``live_bytes`` rises on creation and falls when the
tensor is garbage-collected, and the high-water mark is exported as the
``profile.peak_tensor_bytes`` gauge.

Timing model — ops are timed as *self time*: the engine reports an op
after computing it (the forward result, or a backward node's gradient
contributions), so an op's duration is measured as the gap since the
previous profiler event (previous op, module boundary, or backward
start).  In the single-threaded engine this attributes each op's numpy
compute plus the python glue leading up to it.

Like the rest of ``repro.obs`` the profiler is **zero-overhead by
default**: it observes nothing until :meth:`OpProfiler.install` runs
(normally via ``obs.session(profile=True)``), and ``uninstall`` removes
it from the registry whatever else is registered.
"""

from __future__ import annotations

import json
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..nn.hooks import Observer, register_observer
from . import metrics
from .attribution import ModulePathTracker, op_name_from_backward

__all__ = [
    "OpEvent", "OpStat", "OpProfiler",
    "active_profiler", "format_op_table", "format_summary_json",
]


@dataclass
class OpStat:
    """Aggregated statistics for one (op, phase, module) bucket."""

    calls: int = 0
    wall: float = 0.0
    flops: int = 0
    out_bytes: int = 0

    def add(self, wall: float, flops: int, out_bytes: int) -> None:
        self.calls += 1
        self.wall += wall
        self.flops += flops
        self.out_bytes += out_bytes

    def merge(self, other: "OpStat") -> None:
        self.calls += other.calls
        self.wall += other.wall
        self.flops += other.flops
        self.out_bytes += other.out_bytes

    def to_dict(self) -> Dict[str, object]:
        return {"calls": self.calls, "wall_seconds": self.wall,
                "flops": self.flops, "out_bytes": self.out_bytes}


@dataclass(frozen=True)
class OpEvent:
    """One raw op occurrence (chrome-trace material)."""

    name: str
    phase: str          # "forward" | "backward"
    ts: float           # seconds since profiler install
    dur: float          # seconds
    flops: int
    out_bytes: int
    module: str

    def to_trace_event(self, pid: int = 1, tid: int = 1) -> Dict[str, object]:
        args: Dict[str, object] = {"flops": self.flops}
        if self.out_bytes:
            args["out_bytes"] = self.out_bytes
        if self.module:
            args["module"] = self.module
        return {
            "ph": "X", "name": self.name, "cat": self.phase,
            "ts": self.ts * 1e6, "dur": self.dur * 1e6,
            "pid": pid, "tid": tid, "args": args,
        }


_active: Optional["OpProfiler"] = None


def active_profiler() -> Optional["OpProfiler"]:
    """The currently installed :class:`OpProfiler`, or ``None``."""
    return _active


class OpProfiler(Observer):
    """Deterministic op-level profiler for the numpy autograd engine.

    Use through ``obs.session(profile=True)`` or directly::

        profiler = OpProfiler()
        profiler.install()
        try:
            loss = model(batch); loss.backward()
        finally:
            profiler.uninstall()
        print(profiler.report())
    """

    def __init__(self, max_events: int = 200_000):
        self.max_events = int(max_events)
        #: (op, phase, module path) -> OpStat
        self.stats: Dict[Tuple[str, str, str], OpStat] = {}
        self.events: List[OpEvent] = []
        self.dropped_events = 0
        self.live_bytes = 0
        self.peak_live_bytes = 0
        self._installed = False
        self._t0 = 0.0
        self._mark = 0.0
        # Shared with chrome trace + IR capture so attribution paths
        # cannot drift between the tools (repro.obs.attribution).
        self._paths = ModulePathTracker()
        # id-keyed creator map would leak; Tensor now has __weakref__,
        # so a WeakKeyDictionary (identity hash) attributes backward
        # ops to the forward module without pinning tensors.
        self._creators: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._hook_handle = None
        self._flops_for = None  # bound at install()

    # ------------------------------------------------------------------ #
    # Install / uninstall
    # ------------------------------------------------------------------ #
    def install(self) -> "OpProfiler":
        """Start observing the engine; idempotent, one profiler at a time."""
        global _active
        if self._installed:
            return self
        if _active is not None:
            raise RuntimeError("another OpProfiler is already installed")
        from ..analysis.shapes.flops import flops_for

        self._flops_for = flops_for
        self._hook_handle = register_observer(self)
        self._t0 = self._mark = time.perf_counter()
        self._installed = True
        _active = self
        return self

    def uninstall(self) -> None:
        """Stop observing the engine; idempotent."""
        global _active
        if not self._installed:
            return
        self._hook_handle.remove()
        self._hook_handle = None
        self._installed = False
        if _active is self:
            _active = None
        # Push the final gauges so a metrics snapshot taken after the
        # session sees the high-water mark.
        self._export_gauges()

    def __enter__(self) -> "OpProfiler":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Engine events
    # ------------------------------------------------------------------ #
    def module_entered(self, module, args, kwargs) -> None:
        self._paths.push(module)
        self._mark = time.perf_counter()

    def module_exited(self, module, args, kwargs, out):
        self._paths.pop()
        self._mark = time.perf_counter()
        return out

    def backward_started(self, root, grad) -> None:
        self._mark = time.perf_counter()

    def op_created(self, out, data, parents, backward) -> None:
        now = time.perf_counter()
        wall = now - self._mark
        op = op_name_from_backward(backward)
        flops = self._flops_for(op, [p.shape for p in parents],
                                out.data.shape)
        nbytes = int(getattr(out.data, "nbytes", 0))
        module = self._paths.path()
        self._bump(op, "forward", module, wall, flops, nbytes,
                   ts=self._mark - self._t0)
        # Live-memory accounting: finalize fires when the output dies.
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
            self._export_gauges()
        weakref.finalize(out, self._on_tensor_freed, nbytes)
        if module:
            self._creators[out] = module
        self._mark = time.perf_counter()

    def node_dispatched(self, node, grad, contributions) -> None:
        now = time.perf_counter()
        wall = now - self._mark
        op = op_name_from_backward(node._backward)
        # Standard estimate: backward of an op costs ~2x its forward
        # (one gradient per operand over the same contraction sizes).
        flops = 2 * self._flops_for(
            op, [p.shape for p in node._parents], node.shape
        )
        module = self._creators.get(node, "")
        self._bump(op, "backward", module, wall, flops, 0,
                   ts=self._mark - self._t0)
        self._mark = time.perf_counter()

    def _on_tensor_freed(self, nbytes: int) -> None:
        self.live_bytes -= nbytes

    def _export_gauges(self) -> None:
        metrics.gauge("profile.peak_tensor_bytes").set(self.peak_live_bytes)
        metrics.gauge("profile.live_tensor_bytes").set(max(self.live_bytes, 0))

    def _bump(self, op: str, phase: str, module: str, wall: float,
              flops: int, out_bytes: int, ts: float) -> None:
        key = (op, phase, module)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = OpStat()
        stat.add(wall, flops, out_bytes)
        if len(self.events) < self.max_events:
            self.events.append(OpEvent(
                name=op, phase=phase, ts=ts, dur=wall,
                flops=flops, out_bytes=out_bytes, module=module,
            ))
        else:
            self.dropped_events += 1

    # ------------------------------------------------------------------ #
    # Aggregated views
    # ------------------------------------------------------------------ #
    def by_op(self) -> Dict[str, Dict[str, OpStat]]:
        """``{op: {"forward": OpStat, "backward": OpStat}}`` (merged
        across modules; phases only present when observed)."""
        out: Dict[str, Dict[str, OpStat]] = {}
        for (op, phase, _module), stat in self.stats.items():
            bucket = out.setdefault(op, {})
            merged = bucket.setdefault(phase, OpStat())
            merged.merge(stat)
        return out

    def by_module(self) -> Dict[str, OpStat]:
        """Total cost per owning module path (all ops, both phases)."""
        out: Dict[str, OpStat] = {}
        for (_op, _phase, module), stat in self.stats.items():
            merged = out.setdefault(module or "(top)", OpStat())
            merged.merge(stat)
        return out

    def total_flops(self) -> int:
        return sum(stat.flops for stat in self.stats.values())

    def total_wall(self) -> float:
        return sum(stat.wall for stat in self.stats.values())

    def total_calls(self) -> int:
        return sum(stat.calls for stat in self.stats.values())

    def summary(self, top: int = 10) -> Dict[str, object]:
        """JSON-able digest embedded in run records."""
        rows = _op_rows(self.by_op())
        return {
            "totals": {
                "ops": self.total_calls(),
                "wall_seconds": self.total_wall(),
                "flops_estimate": self.total_flops(),
                "peak_tensor_bytes": self.peak_live_bytes,
                "dropped_events": self.dropped_events,
            },
            "top_ops": rows[:top],
        }

    def to_dict(self) -> Dict[str, object]:
        """Full JSON export: summary plus the per-module breakdown."""
        out = self.summary(top=len(self.stats) or 1)
        out["by_module"] = {
            module: stat.to_dict()
            for module, stat in sorted(
                self.by_module().items(),
                key=lambda item: -item[1].wall,
            )
        }
        return out

    def report(self, top: int = 15) -> str:
        """Human-readable per-op table with forward/backward split."""
        return format_op_table(self.by_op(), top=top,
                               totals=self.summary(top=0)["totals"])

    # ------------------------------------------------------------------ #
    # Chrome trace
    # ------------------------------------------------------------------ #
    def trace_events(self, pid: int = 1) -> List[Dict[str, object]]:
        """Raw op events as chrome-trace ``X`` events (forward on one
        thread lane, backward on another)."""
        out = []
        for event in self.events:
            tid = 1 if event.phase == "forward" else 2
            out.append(event.to_trace_event(pid=pid, tid=tid))
        return out


def _op_rows(by_op: Dict[str, Dict[str, OpStat]]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for op, phases in by_op.items():
        fwd = phases.get("forward", OpStat())
        bwd = phases.get("backward", OpStat())
        rows.append({
            "op": op,
            "calls": fwd.calls + bwd.calls,
            "wall_seconds": fwd.wall + bwd.wall,
            "forward_seconds": fwd.wall,
            "backward_seconds": bwd.wall,
            "flops": fwd.flops + bwd.flops,
            "out_bytes": fwd.out_bytes,
        })
    rows.sort(key=lambda row: -float(row["wall_seconds"]))
    return rows


def _fmt_count(value: float) -> str:
    for threshold, suffix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= threshold:
            return f"{value / threshold:.2f}{suffix}"
    return f"{value:.0f}"


def format_op_table(by_op: Dict[str, Dict[str, OpStat]], top: int = 15,
                    totals: Optional[Dict[str, object]] = None) -> str:
    """Render the per-op aggregate as a fixed-width text table."""
    rows = _op_rows(by_op)
    header = (f"{'op':<14} {'calls':>8} {'wall(s)':>9} {'fwd(s)':>8} "
              f"{'bwd(s)':>8} {'FLOPs':>9} {'out':>9}")
    lines = [header, "-" * len(header)]
    for row in rows[:top]:
        lines.append(
            f"{row['op']:<14} {row['calls']:>8} "
            f"{row['wall_seconds']:>9.4f} {row['forward_seconds']:>8.4f} "
            f"{row['backward_seconds']:>8.4f} "
            f"{_fmt_count(float(row['flops'])):>9} "
            f"{_fmt_count(float(row['out_bytes'])):>8}B"
        )
    if len(rows) > top:
        lines.append(f"... {len(rows) - top} more ops")
    if totals:
        lines.append(
            f"total: {totals['ops']} ops, "
            f"{totals['wall_seconds']:.4f}s, "
            f"{_fmt_count(float(totals['flops_estimate']))} FLOPs, "
            f"peak {_fmt_count(float(totals['peak_tensor_bytes']))}B live"
        )
        if totals.get("dropped_events"):
            lines.append(f"(chrome-trace events capped: "
                         f"{totals['dropped_events']} dropped)")
    return "\n".join(lines)


def format_summary_json(profiler: OpProfiler, top: int = 15) -> str:
    """JSON rendering used by ``repro profile --format json``."""
    payload = profiler.to_dict()
    payload["top_ops"] = payload["top_ops"][:top]
    return json.dumps(payload, indent=2, sort_keys=True)
