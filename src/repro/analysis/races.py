"""Dynamic race sanitizer over the global-state manifest.

The static effect analysis (:mod:`repro.analysis.effects`) proves what
library code *may* touch; this module checks what actually happens when
hot paths run on real threads.  It wraps manifest slots
(:data:`repro.concurrency.MANIFEST`) with access recorders — dicts and
lists get recording subclasses, singleton instances a delegating proxy
— and drives a set of scenarios on a thread pool with barrier-forced
interleavings, so every round releases all workers into the wrapped
state at once.  Afterwards the recorded ``(slot, thread, kind,
guard-held, stack)`` tuples are checked against each slot's
classification:

====  ========  ====================================================
code  severity  meaning
====  ========  ====================================================
D001  error     unsynchronized write-write: two threads wrote a
                synchronized/unsafe slot without its guard held
D002  error     unsynchronized read-write: a guardless write raced
                concurrent readers of a synchronized slot
D003  error     write to an ``immutable``-classified slot after
                import time
D004  error     scenario assertion failed (lost update, cross-thread
                leak, nondeterministic result)
====  ========  ====================================================

The sanitizer exists precisely because the static analysis cannot see
dynamic attribute stores (``setattr(module, ...)``) or prove that a
guard is *actually held* at runtime — the two blind spots meet here.

CLI: ``repro race-check [--threads N --rounds N --scenario NAME]``.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..concurrency import (
    IMMUTABLE, NEEDS_MERGE, SYNCHRONIZED, THREAD_LOCAL, UNSAFE,
    GlobalSlot, manifest_by_name, resolve_guard, resolve_slot,
)
from .findings import Finding, count_findings, filter_findings, \
    format_findings_text

__all__ = [
    "AccessRecord", "AccessLog", "Sanitizer", "Scenario", "RaceReport",
    "race_check", "default_scenarios", "scenario_names",
]

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class AccessRecord:
    slot: str
    thread: int
    kind: str             # READ / WRITE
    guard_held: bool
    where: str            # innermost repro frame "file:line (fn)"


def _caller_digest() -> str:
    """Innermost non-sanitizer ``repro`` frame of the current stack."""
    for frame in reversed(traceback.extract_stack(limit=12)):
        fname = frame.filename.replace("\\", "/")
        if "/repro/" in fname and not fname.endswith("analysis/races.py"):
            short = fname.rsplit("/repro/", 1)[-1]
            return f"repro/{short}:{frame.lineno} ({frame.name})"
    return "<outside repro>"


class AccessLog:
    """Thread-safe append-only access log shared by all recorders."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[AccessRecord] = []

    def record(self, slot: str, kind: str, guard) -> None:
        rec = AccessRecord(
            slot=slot, thread=threading.get_ident(), kind=kind,
            guard_held=bool(guard.locked()) if guard is not None else False,
            where=_caller_digest(),
        )
        with self._lock:
            self._records.append(rec)

    def records(self) -> List[AccessRecord]:
        with self._lock:
            return list(self._records)


class _RecordingDict(dict):
    """Dict subclass recording reads/writes against a slot."""

    def __init__(self, base: dict, slot: str, log: AccessLog, guard):
        super().__init__(base)
        self._slot = slot
        self._log = log
        self._guard = guard

    def __getitem__(self, key):
        self._log.record(self._slot, READ, self._guard)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._log.record(self._slot, READ, self._guard)
        return super().get(key, default)

    def __contains__(self, key):
        self._log.record(self._slot, READ, self._guard)
        return super().__contains__(key)

    def __setitem__(self, key, value):
        self._log.record(self._slot, WRITE, self._guard)
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        self._log.record(self._slot, WRITE, self._guard)
        return super().setdefault(key, default)

    def update(self, *args, **kwargs):
        self._log.record(self._slot, WRITE, self._guard)
        super().update(*args, **kwargs)

    def pop(self, *args):
        self._log.record(self._slot, WRITE, self._guard)
        return super().pop(*args)

    def clear(self):
        self._log.record(self._slot, WRITE, self._guard)
        super().clear()


class _RecordingList(list):
    """List subclass recording reads/writes against a slot."""

    def __init__(self, base: list, slot: str, log: AccessLog, guard):
        super().__init__(base)
        self._slot = slot
        self._log = log
        self._guard = guard

    def __iter__(self):
        self._log.record(self._slot, READ, self._guard)
        return super().__iter__()

    def __getitem__(self, index):
        self._log.record(self._slot, READ, self._guard)
        return super().__getitem__(index)

    def append(self, item):
        self._log.record(self._slot, WRITE, self._guard)
        super().append(item)

    def extend(self, items):
        self._log.record(self._slot, WRITE, self._guard)
        super().extend(items)

    def remove(self, item):
        self._log.record(self._slot, WRITE, self._guard)
        super().remove(item)

    def insert(self, index, item):
        self._log.record(self._slot, WRITE, self._guard)
        super().insert(index, item)

    def pop(self, *args):
        self._log.record(self._slot, WRITE, self._guard)
        return super().pop(*args)

    def clear(self):
        self._log.record(self._slot, WRITE, self._guard)
        super().clear()


class _RecordingProxy:
    """Attribute-delegating proxy for singleton slot values.

    Records every attribute fetch as a read — method calls on the
    underlying object (``registry.counter(...)``) go through here.
    Rebinding the module global replaces the proxy itself, which the
    sanitizer detects at uninstall time.
    """

    __slots__ = ("_races_target", "_races_slot", "_races_log", "_races_guard")

    def __init__(self, target, slot: str, log: AccessLog, guard):
        object.__setattr__(self, "_races_target", target)
        object.__setattr__(self, "_races_slot", slot)
        object.__setattr__(self, "_races_log", log)
        object.__setattr__(self, "_races_guard", guard)

    def __getattr__(self, name):
        self._races_log.record(self._races_slot, READ, self._races_guard)
        return getattr(self._races_target, name)

    def __setattr__(self, name, value):
        self._races_log.record(self._races_slot, WRITE, self._races_guard)
        setattr(self._races_target, name, value)

    def __bool__(self):
        self._races_log.record(self._races_slot, READ, self._races_guard)
        return bool(self._races_target)


@dataclass
class _WatchedCell:
    slot: GlobalSlot
    module: object
    original: object
    wrapper: object


class Sanitizer:
    """Installs recorders over manifest slots; context-manager style."""

    def __init__(self) -> None:
        self.log = AccessLog()
        self._cells: List[_WatchedCell] = []
        self._adhoc: Dict[str, str] = {}   # ad-hoc cell name -> classification

    # -- installation -------------------------------------------------- #
    def watch(self, slot_name: str) -> None:
        """Wrap one manifest slot's current value with a recorder."""
        import importlib
        slot = manifest_by_name()[slot_name]
        if "." in slot.attr or slot.classification == THREAD_LOCAL:
            return  # class-attr patch points / thread-locals: not wrappable
        module = importlib.import_module(slot.module)
        original = getattr(module, slot.attr)
        guard = resolve_guard(slot)
        if isinstance(original, dict):
            wrapper: object = _RecordingDict(original, slot.name, self.log, guard)
        elif isinstance(original, list):
            wrapper = _RecordingList(original, slot.name, self.log, guard)
        else:
            wrapper = _RecordingProxy(original, slot.name, self.log, guard)
        setattr(module, slot.attr, wrapper)
        self._cells.append(_WatchedCell(slot=slot, module=module,
                                        original=original, wrapper=wrapper))

    def watch_value(self, name: str, value, classification: str,
                    guard=None):
        """Register an ad-hoc recorded cell (tests / positive controls).

        Returns the wrapped value; the caller shares it between threads.
        """
        if isinstance(value, dict):
            wrapper: object = _RecordingDict(value, name, self.log, guard)
        elif isinstance(value, list):
            wrapper = _RecordingList(value, name, self.log, guard)
        else:
            wrapper = _RecordingProxy(value, name, self.log, guard)
        self._adhoc[name] = classification
        return wrapper

    def uninstall(self) -> None:
        for cell in reversed(self._cells):
            current = getattr(cell.module, cell.slot.attr, None)
            if current is cell.wrapper:
                # Mutations made through a dict/list wrapper must flow
                # back into the original object before the swap.
                if isinstance(cell.wrapper, dict):
                    cell.original.clear()
                    cell.original.update(dict.items(cell.wrapper))
                elif isinstance(cell.wrapper, list):
                    cell.original[:] = list.__iter__(cell.wrapper)
                setattr(cell.module, cell.slot.attr, cell.original)
            # else: the slot was rebound mid-run (an installer replaced
            # the wrapper) — leave the new value in place.
        self._cells.clear()

    def __enter__(self) -> "Sanitizer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- conflict analysis --------------------------------------------- #
    def classification_of(self, slot_name: str) -> str:
        adhoc = self._adhoc.get(slot_name)
        if adhoc is not None:
            return adhoc
        return manifest_by_name()[slot_name].classification

    def findings(self) -> List[Finding]:
        by_slot: Dict[str, List[AccessRecord]] = {}
        for rec in self.log.records():
            by_slot.setdefault(rec.slot, []).append(rec)
        out: List[Finding] = []
        for slot_name, records in sorted(by_slot.items()):
            classification = self.classification_of(slot_name)
            threads = {r.thread for r in records}
            writes = [r for r in records if r.kind == WRITE]
            reads = [r for r in records if r.kind == READ]
            if classification == IMMUTABLE and writes:
                out.append(Finding(
                    kind="post-init-immutable-write", severity="error",
                    code="D003",
                    message=f"slot '{slot_name}' is classified immutable "
                            f"but was written at runtime "
                            f"(first write at {writes[0].where})",
                    where=writes[0].where))
                continue
            if len(threads) < 2:
                continue  # no concurrency observed, nothing to judge
            if classification == SYNCHRONIZED:
                unguarded_writes = [w for w in writes if not w.guard_held]
                writer_threads = {w.thread for w in unguarded_writes}
                if len(writer_threads) >= 2:
                    a, b = sorted(writer_threads)[:2]
                    out.append(Finding(
                        kind="unsynchronized-write-write", severity="error",
                        code="D001",
                        message=f"slot '{slot_name}': threads {a} and {b} "
                                f"both wrote without holding guard "
                                f"'{manifest_by_name().get(slot_name) and manifest_by_name()[slot_name].guard or '?'}' "
                                f"(e.g. {unguarded_writes[0].where})",
                        where=unguarded_writes[0].where))
                elif unguarded_writes and reads:
                    reader_threads = {r.thread for r in reads} \
                        - writer_threads
                    if reader_threads:
                        out.append(Finding(
                            kind="unsynchronized-read-write",
                            severity="error", code="D002",
                            message=f"slot '{slot_name}': unguarded write "
                                    f"at {unguarded_writes[0].where} raced "
                                    f"{len(reader_threads)} reader "
                                    f"thread(s)",
                            where=unguarded_writes[0].where))
            elif classification in (UNSAFE, NEEDS_MERGE):
                writer_threads = {w.thread for w in writes}
                if len(writer_threads) >= 2:
                    out.append(Finding(
                        kind="unsynchronized-write-write", severity="error",
                        code="D001",
                        message=f"slot '{slot_name}' "
                                f"[{classification}] was written from "
                                f"{len(writer_threads)} threads "
                                f"(e.g. {writes[0].where}) — shards must "
                                f"not touch coordinator-owned state",
                        where=writes[0].where))
                elif writer_threads and \
                        ({r.thread for r in reads} - writer_threads):
                    out.append(Finding(
                        kind="unsynchronized-read-write", severity="error",
                        code="D002",
                        message=f"slot '{slot_name}' [{classification}] "
                                f"written by one thread while others read "
                                f"(write at {writes[0].where})",
                        where=writes[0].where))
        return out


# ===================================================================== #
# Scenarios
# ===================================================================== #
@dataclass
class Scenario:
    """One barrier-synchronised multi-thread workload.

    ``body(ctx, thread_index, round_index)`` runs in each worker; any
    returned string is a failed assertion (finding D004).  ``setup``
    runs once before the threads start and returns the shared ``ctx``;
    ``slots`` are watched for the duration.
    """

    name: str
    slots: Tuple[str, ...]
    body: Callable[[object, int, int], Optional[str]]
    setup: Callable[[Sanitizer], object] = lambda sanitizer: None
    teardown: Callable[[object], None] = lambda ctx: None
    doc: str = ""


def _run_threads(scenario: Scenario, sanitizer: Sanitizer, ctx: object,
                 threads: int, rounds: int) -> List[str]:
    barrier = threading.Barrier(threads)
    failures: List[str] = []
    fail_lock = threading.Lock()

    def worker(index: int) -> None:
        for round_index in range(rounds):
            try:
                barrier.wait(timeout=30)
                result = scenario.body(ctx, index, round_index)
            except Exception as exc:  # noqa: BLE001 - surfaced as D004
                result = f"thread {index} round {round_index}: {exc!r}"
            if result:
                with fail_lock:
                    failures.append(f"[{scenario.name}] {result}")

    pool = [threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join(timeout=60)
    return failures


# -- concrete scenario bodies ----------------------------------------- #
def _attribution_scenario() -> Scenario:
    from functools import partial

    def body(ctx, index, round_index):
        from ..obs.attribution import clear_name_cache, op_name_from_backward
        for _ in range(25):
            # partial objects have no __code__, so each is a fresh
            # cache key — every call exercises the insert path.
            name = op_name_from_backward(partial(lambda: None))
            if name != "op":
                return f"unexpected derived name {name!r}"
        if index == 0 and round_index % 2:
            clear_name_cache()
        return None

    return Scenario(
        name="attribution-names", slots=("obs.attribution.name_cache",),
        body=body,
        doc="hammers the op-name cache insert path from all threads "
            "while one thread periodically clears it")


def _metrics_scenario() -> Scenario:
    def setup(sanitizer):
        from ..obs import metrics
        registry = metrics.Registry()
        previous = metrics.set_registry(registry)
        return {"registry": registry, "previous": previous,
                "per_thread": 200}

    def body(ctx, index, round_index):
        from ..obs import metrics
        counter = metrics.counter("races.test_total")
        for _ in range(ctx["per_thread"]):
            counter.inc()
        metrics.histogram("races.test_seconds").observe(0.001 * index)
        return None

    def teardown(ctx):
        from ..obs import metrics
        metrics.set_registry(ctx["previous"])

    return Scenario(
        name="metrics-updates", slots=("obs.metrics.registry",),
        body=body, setup=setup, teardown=teardown,
        doc="concurrent counter/histogram updates through the global "
            "registry (reads of the slot, locked instrument updates)")


def _hooks_scenario() -> Scenario:
    def setup(sanitizer):
        from ..nn.module import Module

        class _Leaf(Module):
            def forward(self, x):
                return x

        return {"module": _Leaf()}

    def body(ctx, index, round_index):
        from ..nn.module import register_forward_hooks
        seen: List[int] = []
        handle = register_forward_hooks(pre=lambda m: seen.append(1))
        try:
            for _ in range(10):
                ctx["module"](index)
        finally:
            handle.remove()
        if not seen:
            return "pre-hook never fired while registered"
        return None

    return Scenario(
        name="forward-hooks", slots=("nn.module.forward_hooks",),
        body=body, setup=setup,
        doc="registers/removes global forward hooks from all threads "
            "while forwards run (locked mutation, snapshot iteration)")


def _grad_mode_scenario() -> Scenario:
    def body(ctx, index, round_index):
        from ..nn.tensor import is_grad_enabled, no_grad
        if not is_grad_enabled():
            return "grad mode not enabled at round start"
        with no_grad():
            for _ in range(50):
                if is_grad_enabled():
                    return ("grad mode re-enabled inside no_grad() — "
                            "another thread's state leaked in")
        if not is_grad_enabled():
            return "grad mode not restored after no_grad()"
        return None

    return Scenario(
        name="grad-mode-isolation", slots=(),
        body=body,
        doc="every thread toggles no_grad() concurrently; the flag must "
            "be perfectly thread-local (regression pin for the "
            "process-global grad-mode defect)")


def _kernel_toggle_scenario() -> Scenario:
    def body(ctx, index, round_index):
        from ..nn.kernels import registry as kr
        if kr.kernel_active("softmax_xent"):
            return "kernels active before use_kernels()"
        with kr.use_kernels():
            if not kr.kernel_mode():
                return "kernel mode not active inside use_kernels()"
        if kr.kernel_active("softmax_xent"):
            return "kernels still active after use_kernels() exited"
        return None

    return Scenario(
        name="kernel-toggle",
        slots=("nn.kernels.table", "nn.kernels.alloc_latch"),
        body=body,
        doc="toggles the fused-kernel context on every thread; the "
            "activation set is thread-local, the allocator latch is "
            "lock-guarded")


def _sig_cache_scenario() -> Scenario:
    def setup(sanitizer):
        import numpy as _np
        from ..nn.layers import Linear
        rng = _np.random.default_rng(0)
        return {"module": Linear(4, 2, rng), "x": _np.zeros((3, 4))}

    def body(ctx, index, round_index):
        from ..analysis.shapes.spec import _bind_arguments
        module = ctx["module"]
        for _ in range(20):
            bound = _bind_arguments(type(module).forward, module,
                                    (ctx["x"],), {})
            if bound and "self" not in bound:
                return "bound arguments lost the self parameter"
        return None

    return Scenario(
        name="shape-sig-cache", slots=("analysis.shapes.sig_cache",),
        body=body, setup=setup,
        doc="concurrent forward-signature binding through the locked "
            "memo (regression pin for the unguarded cache)")


def _topk_scenario() -> Scenario:
    def setup(sanitizer):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(64, 16))
        b = rng.normal(size=(96, 16))
        from ..align.similarity import chunked_cosine_topk
        idx, scores = chunked_cosine_topk(a, b, k=5)
        return {"a": a, "b": b, "idx": idx, "scores": scores}

    def body(ctx, index, round_index):
        from ..align.similarity import chunked_cosine_topk
        idx, scores = chunked_cosine_topk(ctx["a"], ctx["b"], k=5,
                                          memory_budget_bytes=1 << 14)
        if not np.array_equal(idx, ctx["idx"]):
            return "top-k indices diverged across threads"
        if not np.allclose(scores, ctx["scores"]):
            return "top-k scores diverged across threads"
        return None

    return Scenario(
        name="topk-shards", slots=("obs.metrics.registry",),
        body=body, setup=setup,
        doc="runs the chunked cosine top-k on every thread and checks "
            "bitwise-stable results under concurrency")


def default_scenarios() -> List[Scenario]:
    return [
        _attribution_scenario(),
        _metrics_scenario(),
        _hooks_scenario(),
        _grad_mode_scenario(),
        _kernel_toggle_scenario(),
        _sig_cache_scenario(),
        _topk_scenario(),
    ]


def scenario_names() -> List[str]:
    return [s.name for s in default_scenarios()]


# ===================================================================== #
# Reporting / driver
# ===================================================================== #
@dataclass
class RaceReport:
    findings: List[Finding]
    scenarios: List[str] = field(default_factory=list)
    threads: int = 0
    rounds: int = 0
    accesses: int = 0

    def to_text(self) -> str:
        lines = [
            f"race-check: {len(self.scenarios)} scenario(s) x "
            f"{self.threads} threads x {self.rounds} rounds, "
            f"{self.accesses} recorded accesses",
        ]
        for name in self.scenarios:
            lines.append(f"  scenario {name}")
        lines.append(format_findings_text(self.findings))
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "counts": count_findings(self.findings),
            "findings": [finding.to_dict() for finding in self.findings],
        }
        payload["stats"] = {
            "scenarios": list(self.scenarios), "threads": self.threads,
            "rounds": self.rounds, "accesses": self.accesses,
        }
        return payload


def race_check(threads: int = 8, rounds: int = 4,
               scenarios: Optional[Sequence[Scenario]] = None,
               select: Optional[Sequence[str]] = None,
               ignore: Optional[Sequence[str]] = None) -> RaceReport:
    """Run the sanitizer scenarios and report conflicts."""
    chosen = list(scenarios) if scenarios is not None else default_scenarios()
    all_findings: List[Finding] = []
    total_accesses = 0
    for scenario in chosen:
        sanitizer = Sanitizer()
        ctx = scenario.setup(sanitizer)
        for slot_name in scenario.slots:
            sanitizer.watch(slot_name)
        try:
            failures = _run_threads(scenario, sanitizer, ctx,
                                    threads=threads, rounds=rounds)
        finally:
            sanitizer.uninstall()
            scenario.teardown(ctx)
        all_findings.extend(sanitizer.findings())
        total_accesses += len(sanitizer.log.records())
        for failure in failures:
            all_findings.append(Finding(
                kind="scenario-assertion", severity="error", code="D004",
                message=failure, where=f"scenario:{scenario.name}"))
    return RaceReport(
        findings=filter_findings(all_findings, select=select, ignore=ignore),
        scenarios=[s.name for s in chosen],
        threads=threads, rounds=rounds, accesses=total_accesses,
    )
