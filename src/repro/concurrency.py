"""Global-state manifest and shard-safety contracts.

The parallel-execution arc (ROADMAP item 4) shards work across threads:
data-parallel gradient steps, sharded candidate generation / evaluation,
parallel per-method sweeps.  Whether any of that is *sound* depends on a
small set of process-global slots scattered through the codebase — the
obs registry/tracer/telemetry singletons, the fused-kernel activation
state, module-level caches, monkeypatch hooks.  This module is the
single declarative inventory of those slots, each with a shard-safety
classification, so that

* the static effect analysis (:mod:`repro.analysis.effects`) can flag
  any *unregistered* mutable-global write in library code (C001) and
  any write to a registered slot that bypasses its sanctioned install
  function (C003, lint rule R011);
* the dynamic race sanitizer (:mod:`repro.analysis.races`) knows which
  slots to wrap with access recorders and which guard lock, if any, is
  supposed to protect them;
* the worker-pool executor knows which slots it must swap per shard
  (``thread-local``), merge on join (``needs-merge-on-join``) or leave
  strictly to the coordinating thread (``unsafe``).

Entry points that the parallel arc will fan out carry a
:func:`shard_safe` contract declaring the effects they are *allowed* to
have; the effect analysis verifies the declaration against the inferred
transitive effect set (C004/C006).

Everything here is data plus a zero-overhead decorator — importing this
module must stay cheap because library modules import it for the
decorator alone.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "IMMUTABLE", "THREAD_LOCAL", "SYNCHRONIZED", "NEEDS_MERGE", "UNSAFE",
    "CLASSIFICATIONS", "GlobalSlot", "MANIFEST", "manifest_by_name",
    "manifest_for_module", "resolve_slot", "resolve_guard",
    "ShardContract", "shard_safe", "shard_contracts", "contract_of",
]

# --------------------------------------------------------------------- #
# Shard-safety classifications
# --------------------------------------------------------------------- #
#: Written only at import / registration time; read-only afterwards.
#: Safe to share across shards without coordination.
IMMUTABLE = "immutable"

#: A ``threading.local`` (or equivalent): every shard sees its own value.
THREAD_LOCAL = "thread-local"

#: Shared mutable state protected by an internal lock named in
#: ``guard``; safe to access from any shard through its public API.
SYNCHRONIZED = "synchronized"

#: Shared mutable state that parallel execution must *replace* with a
#: per-shard instance and merge back on join (e.g. metrics registries:
#: counters sum, histograms merge bucket-wise).
NEEDS_MERGE = "needs-merge-on-join"

#: Owned by the coordinating thread.  Shards must never install, rebind
#: or mutate it; reads are tolerated (the value itself may do internal
#: locking, but cross-shard writes are not coordinated).
UNSAFE = "unsafe"

CLASSIFICATIONS = (IMMUTABLE, THREAD_LOCAL, SYNCHRONIZED, NEEDS_MERGE,
                   UNSAFE)


@dataclass(frozen=True)
class GlobalSlot:
    """One process-global slot: where it lives and how shards may use it.

    ``installers`` are the only functions sanctioned to rebind or mutate
    the slot.  Each entry is a top-level qualname (``set_registry``,
    ``HookHandle.remove``) resolved in ``module``, or
    ``"other.module:qualname"`` when the sanctioned writer lives
    elsewhere (e.g. the profiler patching ``Tensor`` methods).
    ``guard`` names a module-level :class:`threading.Lock` that
    synchronized slots hold during access — the race sanitizer checks it
    is actually held.
    """

    name: str                       # stable id: "obs.metrics.registry"
    module: str                     # dotted module where the state lives
    attr: str                       # module-global name ("Cls.attr" for
                                    # class-attribute patch points)
    classification: str
    installers: Tuple[str, ...] = ()
    guard: str = ""
    doc: str = ""

    def __post_init__(self) -> None:
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(
                f"slot {self.name!r}: unknown classification "
                f"{self.classification!r}; choose from {CLASSIFICATIONS}")

    def installer_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """``(module, qualname)`` pairs of the sanctioned writers."""
        out = []
        for entry in self.installers:
            if ":" in entry:
                mod, qualname = entry.split(":", 1)
            else:
                mod, qualname = self.module, entry
            out.append((mod, qualname))
        return tuple(out)


#: Every known process-global slot in ``repro``.  The effect analysis
#: cross-checks this list against the scanned source (a stale entry is
#: finding C005; an unregistered mutable-global write is C001), so the
#: manifest cannot silently drift from the code.
MANIFEST: Tuple[GlobalSlot, ...] = (
    # -- observability singletons ------------------------------------- #
    GlobalSlot(
        name="obs.metrics.registry",
        module="repro.obs.metrics", attr="_default",
        classification=NEEDS_MERGE,
        installers=("set_registry",),
        doc="process-global metrics registry; shards get their own and "
            "merge counters/histograms on join (instrument updates are "
            "internally locked, but per-shard attribution needs the swap)",
    ),
    GlobalSlot(
        name="obs.tracing.tracer",
        module="repro.obs.tracing", attr="_default",
        classification=NEEDS_MERGE,
        installers=("set_tracer",),
        doc="span tracer; span stacks are per-run state — shards trace "
            "into their own tracer, trees are grafted on join",
    ),
    GlobalSlot(
        name="obs.events.log",
        module="repro.obs.events", attr="_default",
        classification=UNSAFE,
        installers=("set_event_log",),
        doc="structured event log with rate-limiter state and sinks; "
            "owned by the coordinator",
    ),
    GlobalSlot(
        name="obs.telemetry.stream",
        module="repro.obs.telemetry", attr="_default",
        classification=UNSAFE,
        installers=("set_stream",),
        doc="append-only JSONL stream bound to one file handle; "
            "interleaved multi-thread writes would tear the tail",
    ),
    GlobalSlot(
        name="obs.session.active",
        module="repro.obs.session", attr="_active",
        classification=UNSAFE,
        installers=("ObsSession.__enter__", "ObsSession.__exit__"),
        doc="the active ObsSession; one per process by design",
    ),
    GlobalSlot(
        name="obs.profile.profiler",
        module="repro.obs.profile", attr="_active",
        classification=UNSAFE,
        installers=("OpProfiler.install", "OpProfiler.uninstall"),
        doc="the installed op profiler; pairs with the Tensor patch "
            "points below",
    ),
    GlobalSlot(
        name="obs.attribution.name_cache",
        module="repro.obs.attribution", attr="_NAME_CACHE",
        classification=SYNCHRONIZED,
        installers=("op_name_from_backward", "clear_name_cache"),
        guard="_NAME_LOCK",
        doc="backward-closure -> op-name cache; locked and size-bounded "
            "(the first real defect the race sanitizer caught)",
    ),
    # -- fused-kernel layer ------------------------------------------- #
    GlobalSlot(
        name="nn.kernels.table",
        module="repro.nn.kernels.registry", attr="_KERNELS",
        classification=IMMUTABLE,
        installers=("register_kernel",),
        doc="kernel name -> callable table, populated at import time",
    ),
    GlobalSlot(
        name="nn.kernels.activation",
        module="repro.nn.kernels.registry", attr="_state",
        classification=THREAD_LOCAL,
        installers=("use_kernels.__enter__", "use_kernels.__exit__"),
        doc="per-thread kernel activation set + backward mode",
    ),
    GlobalSlot(
        name="nn.kernels.alloc_latch",
        module="repro.nn.kernels.alloc", attr="_tuned",
        classification=SYNCHRONIZED,
        installers=("tune_allocator",),
        guard="_TUNE_LOCK",
        doc="once-per-process glibc mallopt latch",
    ),
    # -- autograd engine ---------------------------------------------- #
    GlobalSlot(
        name="nn.grad_mode",
        module="repro.nn.tensor", attr="_grad_state",
        classification=THREAD_LOCAL,
        installers=("no_grad.__enter__", "no_grad.__exit__"),
        doc="per-thread gradient-recording flag; was a process global "
            "until the effect analysis flagged that one shard's "
            "no_grad() window silently disabled autograd on all others",
    ),
    GlobalSlot(
        name="nn.module.forward_hooks",
        module="repro.nn.module", attr="_forward_hooks",
        classification=SYNCHRONIZED,
        installers=("register_forward_hooks", "HookHandle.remove"),
        guard="_HOOKS_LOCK",
        doc="process-global forward pre/post hooks; mutation is locked, "
            "__call__ iterates an immutable snapshot",
    ),
    GlobalSlot(
        name="nn.tensor.op_patch",
        module="repro.nn.tensor", attr="Tensor._make_child",
        classification=UNSAFE,
        installers=("repro.obs.profile:OpProfiler.install",
                    "repro.obs.profile:OpProfiler.uninstall",
                    "repro.analysis.anomaly:detect_anomaly.__enter__",
                    "repro.analysis.anomaly:detect_anomaly.__exit__",
                    "repro.analysis.ir.capture:IRCapture.__enter__",
                    "repro.analysis.ir.capture:IRCapture.__exit__"),
        doc="op-creation patch point (profiler / anomaly mode / IR "
            "capture); monkeypatching is process-wide by nature",
    ),
    GlobalSlot(
        name="nn.tensor.dispatch_patch",
        module="repro.nn.tensor", attr="Tensor._backward_dispatch",
        classification=UNSAFE,
        installers=("repro.obs.profile:OpProfiler.install",
                    "repro.obs.profile:OpProfiler.uninstall",
                    "repro.analysis.anomaly:detect_anomaly.__enter__",
                    "repro.analysis.anomaly:detect_anomaly.__exit__",
                    "repro.analysis.ir.capture:IRCapture.__enter__",
                    "repro.analysis.ir.capture:IRCapture.__exit__"),
        doc="backward-dispatch patch point; same owners as op_patch",
    ),
    GlobalSlot(
        name="nn.tensor.backward_patch",
        module="repro.nn.tensor", attr="Tensor.backward",
        classification=UNSAFE,
        installers=("repro.analysis.graphcheck:GraphCaptureHarness.__enter__",
                    "repro.analysis.graphcheck:GraphCaptureHarness.__exit__",
                    "repro.analysis.ir.capture:IRCapture.__enter__",
                    "repro.analysis.ir.capture:IRCapture.__exit__"),
        doc="backward-entry patch point used by the graph-capture "
            "harness and the IR capture; surfaced by the effect "
            "analysis as an unregistered class-attribute write",
    ),
    GlobalSlot(
        name="nn.optim.init_patch",
        module="repro.nn.optim", attr="Optimizer.__init__",
        classification=UNSAFE,
        installers=("repro.analysis.graphcheck:GraphCaptureHarness.__enter__",
                    "repro.analysis.graphcheck:GraphCaptureHarness.__exit__"),
        doc="optimizer-construction patch point (graph-capture harness "
            "records parameter registration through it)",
    ),
    GlobalSlot(
        name="nn.module.call_patch",
        module="repro.nn.module", attr="Module.__call__",
        classification=UNSAFE,
        installers=("repro.analysis.shapes.spec:verify_module_calls",),
        doc="Module.__call__ patch point used by the shape-spec "
            "verifier during symbolic runs",
    ),
    # -- analysis tool state ------------------------------------------ #
    GlobalSlot(
        name="analysis.shapes.trace",
        module="repro.analysis.shapes.abstract", attr="_CURRENT",
        classification=UNSAFE,
        installers=("SymbolicTrace.__enter__", "SymbolicTrace.__exit__"),
        doc="active symbolic-shape trace; the abstract interpreter is a "
            "single-threaded tool",
    ),
    GlobalSlot(
        name="analysis.shapes.sig_cache",
        module="repro.analysis.shapes.spec", attr="_signature_cache",
        classification=SYNCHRONIZED,
        installers=("_bind_arguments",),
        guard="_SIG_LOCK",
        doc="forward-signature memo used by the shape-spec verifier; "
            "locked and bounded (found unguarded by the effect analysis)",
    ),
    GlobalSlot(
        name="analysis.anomaly.state",
        module="repro.analysis.anomaly", attr="_STATE",
        classification=UNSAFE,
        installers=("detect_anomaly.__enter__", "detect_anomaly.__exit__"),
        doc="refcounted anomaly-mode patch state",
    ),
    # -- registration tables (import-time population) ------------------ #
    GlobalSlot(
        name="analysis.lint.rules",
        module="repro.analysis.lint", attr="_RULES",
        classification=IMMUTABLE,
        installers=("rule",),
        doc="lint rule table, populated by @rule at import time",
    ),
    GlobalSlot(
        name="datasets.registry.builders",
        module="repro.datasets.registry", attr="_REGISTRY",
        classification=IMMUTABLE,
        installers=("_register",),
        doc="dataset-name -> builder table, populated at import time",
    ),
    GlobalSlot(
        name="analysis.shapes.probes",
        module="repro.analysis.shapes.probes", attr="PROBES",
        classification=IMMUTABLE,
        installers=("probe",),
        doc="architecture-probe table, populated by @probe at import time",
    ),
    GlobalSlot(
        name="concurrency.contracts",
        module="repro.concurrency", attr="_CONTRACTS",
        classification=IMMUTABLE,
        installers=("shard_safe",),
        doc="shard-contract registry, populated by @shard_safe at "
            "import/decoration time",
    ),
)


def manifest_by_name() -> Dict[str, GlobalSlot]:
    """``{slot.name: slot}`` lookup over :data:`MANIFEST`."""
    return {slot.name: slot for slot in MANIFEST}


def manifest_for_module(module: str) -> Tuple[GlobalSlot, ...]:
    """Slots whose state lives in ``module``."""
    return tuple(slot for slot in MANIFEST if slot.module == module)


def resolve_slot(slot: GlobalSlot):
    """Import the slot's module and return the current slot value.

    For class-attribute patch points (``attr`` like ``Tensor._make_child``)
    this resolves through the class.  Raises ``AttributeError`` /
    ``ImportError`` if the manifest has drifted from the code — the
    static cross-check (C005) catches that before runtime does.
    """
    module = importlib.import_module(slot.module)
    target = module
    for part in slot.attr.split("."):
        target = getattr(target, part)
    return target


def resolve_guard(slot: GlobalSlot):
    """The slot's guard lock instance, or ``None`` when unguarded."""
    if not slot.guard:
        return None
    module = importlib.import_module(slot.module)
    return getattr(module, slot.guard)


# --------------------------------------------------------------------- #
# Shard-safety contracts
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardContract:
    """Declared effect budget of a shard-safe entry point.

    The static effect analysis verifies the *inferred* transitive effect
    set of the function against this declaration: an undeclared unsafe
    effect is finding C004 (error), undeclared I/O is C006 (warning).
    """

    name: str
    merges: Tuple[str, ...] = ()    # needs-merge slots the caller merges
    owns: Tuple[str, ...] = ()      # unsafe slots this entry may install
                                    # (single-threaded setup/teardown)
    mutates: Tuple[str, ...] = ()   # parameter names it may mutate
    io: bool = False                # filesystem/stdout effects declared
    note: str = ""

    def describe(self) -> str:
        parts = []
        if self.merges:
            parts.append(f"merges={','.join(self.merges)}")
        if self.owns:
            parts.append(f"owns={','.join(self.owns)}")
        if self.mutates:
            parts.append(f"mutates={','.join(self.mutates)}")
        if self.io:
            parts.append("io")
        return f"{self.name} [{'; '.join(parts) or 'pure'}]"


_CONTRACTS: Dict[str, Callable] = {}


def shard_safe(name: Optional[str] = None, *,
               merges: Tuple[str, ...] = (),
               owns: Tuple[str, ...] = (),
               mutates: Tuple[str, ...] = (),
               io: bool = False,
               note: str = "") -> Callable[[Callable], Callable]:
    """Declare a function safe to fan out across shard workers.

    Zero runtime overhead: the decorator attaches a
    :class:`ShardContract` to the function and registers it so
    ``repro effects --entry`` and ``repro race-check`` can find the
    contracted entry points; the function itself is returned unchanged.

    Slot names in ``merges``/``owns`` must exist in :data:`MANIFEST`
    (checked eagerly — a typo fails at import time, not analysis time).
    """
    known = {slot.name for slot in MANIFEST}
    for slot_name in tuple(merges) + tuple(owns):
        if slot_name not in known:
            raise ValueError(
                f"shard_safe: unknown manifest slot {slot_name!r}; "
                f"known: {sorted(known)}")

    def wrap(fn: Callable) -> Callable:
        contract = ShardContract(
            name=name or f"{fn.__module__}.{fn.__qualname__}",
            merges=tuple(merges), owns=tuple(owns),
            mutates=tuple(mutates), io=io, note=note,
        )
        fn.__shard_contract__ = contract
        _CONTRACTS[contract.name] = fn
        return fn
    return wrap


def shard_contracts() -> Dict[str, Callable]:
    """``{contract name: callable}`` of every registered entry point."""
    return dict(_CONTRACTS)


def contract_of(fn: Callable) -> Optional[ShardContract]:
    """The contract attached to ``fn`` (or ``None``)."""
    return getattr(fn, "__shard_contract__", None)
