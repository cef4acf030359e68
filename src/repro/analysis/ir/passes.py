"""Compiler-style analysis passes over a captured training step.

Each pass inspects the :class:`~repro.analysis.ir.graph.IRGraph` of a
:class:`~repro.analysis.ir.capture.StepCapture` — and, for G007–G013,
the optimizer group and the leaf gradients it snapshotted around
backward; for G014, the shape-contract violations it recorded — and
emits shared :class:`~repro.analysis.findings.Finding`
records with a catalogue code.  Severities follow the gate policy in
:mod:`repro.analysis.findings`: ``info`` findings are optimisation
opportunities that never fail a build; ``warning``/``error`` findings
gate (``make ir-check`` requires zero of them on its reference
baselines, and zero errors on SDEA).

==== =================== ======== ==========================================
code kind                severity meaning
==== =================== ======== ==========================================
G001 memory-plan         info     liveness-planned activation peak vs the
                                  eager engine's keep-everything peak
G002 dead-op             warning  op recorded with grad tracking whose value
                                  never reaches the loss that ran backward
G003 dropped-gradient    error    live gradient leaf that backward delivered
                                  no gradient to
G004 fusion-opportunity  info     hand-composed subgraph coverable by a
                                  fused kernel (existing or proposed)
G005 redundant-recompute warning  same op over the same operands producing a
                                  bit-identical value more than once
G006 dtype-escape        warning  op produced a dtype the Tensor constructor
                                  silently cast away (hidden copy)
G007 detached-loss       error    backward ran on a loss that does not
                                  require grad (a no-op)
G008 unreachable-        error    parameter of the step's optimizer that the
     parameter                    loss does not reach
G009 untracked-          warning  trainable leaf the loss reaches that the
     trainable-leaf               step's optimizer does not hold
G010 double-backward-    warning  leaf already held a gradient when
     hazard                       backward started
G011 shape-mismatch      error    leaf gradient shaped unlike its leaf
G012 nonfinite-gradient  error    leaf gradient with NaN/Inf entries
G013 zero-gradient       warning  backward delivered an all-zero gradient
G014 spec-violation      error    module call whose argument or return
                                  shape breaks its ``@shape_spec``
==== =================== ======== ==========================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ...nn.ops import OPS
from ...nn.tensor import get_default_dtype
from ..findings import Finding, count_findings, filter_findings, \
    format_findings_text, gate_findings
from .capture import StepCapture
from .graph import IRGraph, IRNode

__all__ = ["G_CODES", "MemoryPlan", "plan_memory", "run_passes", "IRReport"]

#: Catalogue: code -> (kind, severity, one-line description).
G_CODES = {
    "G001": ("memory-plan", "info",
             "liveness-planned activation peak vs eager peak"),
    "G002": ("dead-op", "warning",
             "grad-tracked op whose value never reaches the loss"),
    "G003": ("dropped-gradient", "error",
             "live gradient leaf received no gradient"),
    "G004": ("fusion-opportunity", "info",
             "hand-composed subgraph coverable by a fused kernel"),
    "G005": ("redundant-recompute", "warning",
             "bit-identical value computed more than once"),
    "G006": ("dtype-escape", "warning",
             "op produced a dtype the engine silently cast away"),
    "G007": ("detached-loss", "error",
             "backward ran on a loss that does not require grad"),
    "G008": ("unreachable-parameter", "error",
             "optimizer parameter the loss does not reach"),
    "G009": ("untracked-trainable-leaf", "warning",
             "trainable leaf the step's optimizer does not hold"),
    "G010": ("double-backward-hazard", "warning",
             "gradient already present before backward"),
    "G011": ("shape-mismatch", "error",
             "gradient shaped unlike its leaf"),
    "G012": ("nonfinite-gradient", "error",
             "NaN/Inf gradient"),
    "G013": ("zero-gradient", "warning",
             "all-zero gradient"),
    "G014": ("spec-violation", "error",
             "module call breaks its @shape_spec contract"),
}


def _finding(code: str, message: str, where: str = "") -> Finding:
    kind, severity, _ = G_CODES[code]
    return Finding(kind=kind, severity=severity, message=message,
                   code=code, where=where)


# ---------------------------------------------------------------------- #
# G001 — liveness / memory planning
# ---------------------------------------------------------------------- #
@dataclass
class MemoryPlan:
    """Liveness-planned activation memory for the captured step.

    Scope is the op-output buffers of the loss-reachable subgraph (dead
    ops are pass G002's business; parameters and input constants are
    outside the planner's control).  ``eager_peak_bytes`` is what the
    engine holds at backward start — every one of those outputs is
    pinned by the backward nodes hanging off the root — and is therefore
    a lower bound on the profiler's measured ``peak_tensor_bytes`` for
    the same step.  ``planned_peak_bytes`` frees each buffer after its
    last structural use (forward consumers + what the VJPs actually
    read), so planned <= eager <= measured.
    """

    eager_peak_bytes: int = 0
    planned_peak_bytes: int = 0
    planned_alloc_bytes: int = 0     # with greedy exact-size slot reuse
    slots: int = 0                   # distinct buffers under reuse
    ops_planned: int = 0
    timeline: int = 0                # forward + backward positions
    last_use: Dict[int, int] = field(default_factory=dict)

    @property
    def avoidable_bytes(self) -> int:
        return max(0, self.eager_peak_bytes - self.planned_peak_bytes)

    def summary(self) -> Dict[str, object]:
        return {
            "eager_peak_bytes": self.eager_peak_bytes,
            "planned_peak_bytes": self.planned_peak_bytes,
            "planned_alloc_bytes": self.planned_alloc_bytes,
            "avoidable_bytes": self.avoidable_bytes,
            "slots": self.slots,
            "ops_planned": self.ops_planned,
        }


def _vjp_reads(node: IRNode) -> Sequence[object]:
    """What ``node``'s VJP reads: operand positions and ``"out"``.

    Read off the op record (``Op.reads``); an op without a declaration
    (an opaque node) counts as reading every operand and its output.
    """
    op = OPS.get(node.op)
    if op is None or op.reads is None:
        return (*range(len(node.parents)), "out")
    return op.reads


def plan_memory(capture: StepCapture) -> MemoryPlan:
    graph = capture.graph
    live = graph.live_set()
    ops = [node for node in graph.op_nodes() if node.uid in live]
    pos = {node.uid: i for i, node in enumerate(ops)}
    forward_len = len(ops)

    last_use: Dict[int, int] = {node.uid: pos[node.uid] for node in ops}
    for node in graph.nodes:
        if node.uid not in live:
            continue
        for parent in node.parents:
            if parent in pos and node.uid in pos:
                last_use[parent] = max(last_use[parent], pos[node.uid])

    dispatch_len = 0
    for t, uid in enumerate(graph.dispatch_order):
        node = graph._by_uid().get(uid)
        if node is None or node.uid not in pos:
            continue
        bpos = forward_len + t
        dispatch_len = max(dispatch_len, t + 1)
        for i in _vjp_reads(node):
            value = uid if i == "out" else node.parents[i]
            if value in pos:
                last_use[value] = max(last_use[value], bpos)

    timeline = forward_len + dispatch_len
    if graph.root in pos:
        # The loss value is read by the trainer after the step.
        last_use[graph.root] = timeline

    frees: Dict[int, List[int]] = {}
    for uid, t in last_use.items():
        frees.setdefault(min(t, timeline), []).append(uid)

    plan = MemoryPlan(ops_planned=forward_len, timeline=timeline,
                      last_use=dict(last_use))
    plan.eager_peak_bytes = sum(node.out_bytes for node in ops)
    pool: Dict[int, int] = {}
    live_bytes = 0
    for t in range(timeline + 1):
        if t < forward_len:
            size = ops[t].out_bytes
            if pool.get(size, 0) > 0:
                pool[size] -= 1
            else:
                plan.slots += 1
                plan.planned_alloc_bytes += size
            live_bytes += size
            plan.planned_peak_bytes = max(plan.planned_peak_bytes,
                                          live_bytes)
        for uid in frees.get(t, ()):
            size = graph.node(uid).out_bytes
            live_bytes -= size
            pool[size] = pool.get(size, 0) + 1
    return plan


def _pass_memory(capture: StepCapture,
                 plan: MemoryPlan) -> List[Finding]:
    if plan.ops_planned == 0:
        return []
    eager, planned = plan.eager_peak_bytes, plan.planned_peak_bytes
    pct = 100.0 * plan.avoidable_bytes / eager if eager else 0.0
    return [_finding(
        "G001",
        f"planned activation peak {planned:,} B vs eager {eager:,} B "
        f"({pct:.0f}% avoidable) across {plan.ops_planned} ops using "
        f"{plan.slots} reusable buffers",
    )]


# ---------------------------------------------------------------------- #
# G002 — dead ops
# ---------------------------------------------------------------------- #
def _pass_dead_ops(capture: StepCapture, limit: int = 20) -> List[Finding]:
    graph = capture.graph
    live = graph.live_set()
    dead = [node for node in graph.op_nodes() if node.uid not in live]
    if not dead:
        return []
    dead_uids = {node.uid for node in dead}
    consumers = graph.consumers()
    findings = []
    sinks = [node for node in dead if not consumers[node.uid]]
    for node in sinks[:limit]:
        upstream = sum(1 for uid in graph.ancestors(node.uid)
                       if uid in dead_uids)
        extra = f" (+{upstream} dead ops upstream)" if upstream else ""
        findings.append(_finding(
            "G002",
            f"{node.label()} shape {node.shape} is grad-tracked but never "
            f"reaches the loss{extra}; wrap it in no_grad() or detach",
            where=node.module,
        ))
    if len(sinks) > limit:
        findings.append(_finding(
            "G002", f"... and {len(sinks) - limit} more dead sinks "
            f"({len(dead)} dead ops total)"))
    return findings


# ---------------------------------------------------------------------- #
# G003 — dropped gradients
# ---------------------------------------------------------------------- #
def _pass_dropped_gradients(capture: StepCapture) -> List[Finding]:
    graph = capture.graph
    live = graph.live_set()
    findings = []
    for node in capture.grad_leaves():
        if node.uid not in live:
            continue
        before = capture.grads_before.get(node.uid)
        after = capture.grads_after.get(node.uid)
        if before is None and after is None:
            findings.append(_finding(
                "G003",
                f"leaf {node.label()} shape {node.shape} feeds the loss "
                "but backward delivered it no gradient (a backward "
                "returned None for this operand)",
                where=node.module,
            ))
    return findings


# ---------------------------------------------------------------------- #
# G004 — fusion legality / opportunities
# ---------------------------------------------------------------------- #
_ELEMENTWISE = {"add", "sub", "mul", "div", "neg", "pow", "exp", "log",
                "sqrt", "tanh", "sigmoid", "relu", "abs", "clip_min",
                "where"}


def _match_softmax_templates(graph: IRGraph,
                             claimed: Set[int]) -> List[Finding]:
    """Structural softmax / log-softmax patterns, module-independent."""
    findings = []
    by_uid = graph._by_uid()
    for node in graph.op_nodes():
        # softmax: div(E, sum(E)) with E = exp(...)
        if node.op == "div" and len(node.parents) == 2:
            e, s = (by_uid.get(p) for p in node.parents)
            if (e is not None and s is not None and e.op == "exp"
                    and s.op == "sum" and s.parents == (e.uid,)):
                findings.append(_finding(
                    "G004",
                    f"hand-composed softmax at {node.label()} shape "
                    f"{node.shape}; coverable by kernels.fused_softmax",
                    where=node.module,
                ))
                claimed.update({node.uid, e.uid, s.uid})
        # log-softmax: sub(x, log(sum(exp(x))))
        if node.op == "sub" and len(node.parents) == 2:
            shifted_uid, log_uid = node.parents
            log_node = by_uid.get(log_uid)
            if log_node is None or log_node.op != "log" \
                    or len(log_node.parents) != 1:
                continue
            sum_node = by_uid.get(log_node.parents[0])
            if sum_node is None or sum_node.op != "sum" \
                    or len(sum_node.parents) != 1:
                continue
            exp_node = by_uid.get(sum_node.parents[0])
            if exp_node is None or exp_node.op != "exp" \
                    or exp_node.parents != (shifted_uid,):
                continue
            findings.append(_finding(
                "G004",
                f"hand-composed log-softmax at {node.label()} shape "
                f"{node.shape}; coverable by kernels.fused_log_softmax",
                where=node.module,
            ))
            claimed.update({node.uid, log_node.uid, sum_node.uid,
                            exp_node.uid})
    return findings


_MODULE_KERNELS = (
    # (module-path fragment, witness op, fused kernel to propose)
    ("LayerNorm", "sqrt", "kernels.fused_layer_norm"),
    ("GRUCell", "sigmoid", "kernels.fused_gru_sequence"),
)


def _match_module_kernels(graph: IRGraph,
                          claimed: Set[int]) -> List[Finding]:
    """Attribution-based matches: composed ops inside modules the fused
    kernels already cover.  Deduped per module path."""
    findings = []
    seen: Set[Tuple[str, str]] = set()
    for node in graph.op_nodes():
        for fragment, witness, kernel in _MODULE_KERNELS:
            if node.op != witness or fragment not in node.module:
                continue
            key = (fragment, node.module)
            if key in seen:
                continue
            seen.add(key)
            findings.append(_finding(
                "G004",
                f"composed {fragment} subgraph; coverable by {kernel}",
                where=node.module,
            ))
    for node in graph.op_nodes():
        if any(fragment in node.module for fragment, _, _ in _MODULE_KERNELS):
            claimed.add(node.uid)
    return findings


def _match_elementwise_chains(graph: IRGraph, claimed: Set[int],
                              min_length: int = 4) -> List[Finding]:
    """Maximal single-consumer same-shape elementwise chains: legal to
    fuse into one traversal; proposes a *new* kernel."""
    by_uid = graph._by_uid()
    consumers = graph.consumers()
    link: Dict[int, int] = {}
    for node in graph.op_nodes():
        if node.op not in _ELEMENTWISE:
            continue
        outs = consumers[node.uid]
        if len(outs) != 1:
            continue
        nxt = by_uid.get(outs[0])
        if nxt is None or nxt.kind != "op" or nxt.op not in _ELEMENTWISE \
                or nxt.shape != node.shape:
            continue
        link[node.uid] = nxt.uid
    has_incoming = set(link.values())
    findings = []
    for start in sorted(link):
        if start in has_incoming:
            continue
        chain = [start]
        while chain[-1] in link:
            chain.append(link[chain[-1]])
        if len(chain) < min_length or any(uid in claimed for uid in chain):
            continue
        head = by_uid[chain[0]]
        ops = "→".join(by_uid[uid].op for uid in chain)
        findings.append(_finding(
            "G004",
            f"fusable elementwise chain of {len(chain)} ops ({ops}) over "
            f"shape {head.shape}; candidate for a new fused kernel",
            where=head.module,
        ))
    return findings


def _pass_fusion(capture: StepCapture) -> List[Finding]:
    graph = capture.graph
    claimed: Set[int] = set()
    findings = _match_softmax_templates(graph, claimed)
    findings += _match_module_kernels(graph, claimed)
    findings += _match_elementwise_chains(graph, claimed)
    return findings


# ---------------------------------------------------------------------- #
# G005 — redundant recompute (value CSE)
# ---------------------------------------------------------------------- #
def _freeze(value):
    """Hashable stand-in for an op attribute: arrays by content,
    sequences item by item, anything else (axes, slices, flags) by
    ``repr``."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return repr(value)


def _pass_redundant_recompute(capture: StepCapture,
                              limit: int = 10) -> List[Finding]:
    graph = capture.graph
    groups: Dict[Tuple, List[IRNode]] = {}
    for node in graph.op_nodes():
        key = (node.op, node.parents, node.shape, node.dtype)
        groups.setdefault(key, []).append(node)
    findings = []
    for (op, _parents, shape, _dtype), nodes in groups.items():
        if len(nodes) < 2:
            continue
        # Two nodes are the same value only if their attributes match
        # too (different slices of one constant can share every byte)
        # and their outputs are bit-identical.
        same: Dict[Tuple, List[IRNode]] = {}
        for node in nodes:
            attrs = capture.calls[node.uid].attrs
            key = (tuple((name, _freeze(value))
                         for name, value in sorted(attrs.items())),
                   capture.tensors[node.uid].data.tobytes())
            same.setdefault(key, []).append(node)
        for dupes in same.values():
            if len(dupes) < 2 or len(findings) >= limit:
                continue
            labels = ", ".join(n.label() for n in dupes[:4])
            findings.append(_finding(
                "G005",
                f"{op} over the same operands computed {len(dupes)}× with "
                f"bit-identical results ({labels}, shape {shape}); "
                "compute once and reuse",
                where=dupes[0].module,
            ))
    return findings


# ---------------------------------------------------------------------- #
# G006 — dtype escapes
# ---------------------------------------------------------------------- #
def _pass_dtype_escapes(capture: StepCapture,
                        limit: int = 10) -> List[Finding]:
    default = get_default_dtype().name
    findings = []
    for node in capture.graph.op_nodes():
        if len(findings) >= limit:
            break
        if node.raw_dtype != node.dtype:
            findings.append(_finding(
                "G006",
                f"{node.label()} computed {node.raw_dtype} but is stored "
                f"as {node.dtype}: the Tensor constructor silently "
                "cast-copied it; fix the operand dtypes",
                where=node.module,
            ))
        elif np.dtype(node.dtype).kind in "fc" and node.dtype != default:
            findings.append(_finding(
                "G006",
                f"{node.label()} carries {node.dtype}, not the engine "
                f"default {default}",
                where=node.module,
            ))
    return findings


# ---------------------------------------------------------------------- #
# G007-G013 — the loss, the optimizer group and the gradients
# ---------------------------------------------------------------------- #
def _pass_detached_loss(capture: StepCapture) -> List[Finding]:
    root = capture.graph.node(capture.graph.root)
    if root.requires_grad:
        return []
    return [_finding(
        "G007",
        f"loss {root.label()} shape {root.shape} does not require grad, so "
        "backward() is a no-op (graph built under no_grad(), or on "
        "detached inputs)",
    )]


def _pass_optimizer_group(capture: StepCapture) -> List[Finding]:
    if not capture.params:
        return []
    live = capture.graph.live_set()
    reached = {id(capture.tensors[node.uid]): node
               for node in capture.grad_leaves() if node.uid in live}
    held = {id(param) for param in capture.params}
    findings = []
    for index, param in enumerate(capture.params):
        if id(param) not in reached:
            findings.append(_finding(
                "G008",
                f"optimizer parameter #{index} shape {param.shape} is not in "
                "the loss graph; it never receives a gradient (frozen "
                "input, detach(), or unused weight)",
            ))
    for key, node in reached.items():
        if key not in held:
            findings.append(_finding(
                "G009",
                f"leaf {node.label()} shape {node.shape} requires grad but "
                "the step's optimizer does not hold it; its gradient "
                "accumulates unseen",
                where=node.module,
            ))
    return findings


def _pass_gradients(capture: StepCapture) -> List[Finding]:
    live = capture.graph.live_set()
    findings: List[Finding] = []
    stale: List[IRNode] = []
    for node in capture.grad_leaves():
        if node.uid not in live:
            continue
        before = capture.grads_before.get(node.uid)
        after = capture.grads_after.get(node.uid)
        if before is not None:
            stale.append(node)
        if after is None:
            continue  # G003 when nothing arrived at all
        if after.shape != node.shape:
            findings.append(_finding(
                "G011",
                f"leaf {node.label()} shape {node.shape} received a "
                f"gradient of shape {after.shape}", where=node.module))
        elif not np.all(np.isfinite(after)):
            findings.append(_finding(
                "G012",
                f"leaf {node.label()} shape {node.shape} received a NaN/Inf "
                "gradient", where=node.module))
        elif (not np.any(after) if before is None
              else np.array_equal(after, before)):
            findings.append(_finding(
                "G013",
                f"leaf {node.label()} shape {node.shape} received an "
                "all-zero gradient (dead path: saturated relu, zero mask, "
                "or a loss that is exactly 0 this step)", where=node.module))
    if stale:
        findings.insert(0, _finding(
            "G010",
            f"{len(stale)} gradient leaf/leaves already held a gradient "
            f"when backward started (e.g. {stale[0].label()} shape "
            f"{stale[0].shape}); backward() accumulates onto it, so call "
            "zero_grad() between steps"))
    return findings


# ---------------------------------------------------------------------- #
# G014 — shape contracts
# ---------------------------------------------------------------------- #
def _pass_spec_violations(capture: StepCapture) -> List[Finding]:
    return [_finding("G014", message, where=where)
            for where, message in capture.spec_violations]


@dataclass
class IRReport:
    """Everything ``repro ir`` shows for one captured step."""

    method: str
    step: int                           # which backward call was captured
    graph_summary: Dict[str, object]
    findings: List[Finding]
    plan: MemoryPlan
    replay: Optional[object] = None     # ReplayResult when --replay ran

    @property
    def gating(self) -> List[Finding]:
        return gate_findings(self.findings)

    def to_text(self) -> str:
        s = self.graph_summary
        lines = [
            f"IR capture: method={self.method or '?'} step={self.step} "
            f"nodes={s['nodes']} "
            f"ops={s['op_nodes']} root=%{s['root']} "
            f"dispatched={s['dispatched']}",
            f"memory plan: eager {self.plan.eager_peak_bytes:,} B -> "
            f"planned {self.plan.planned_peak_bytes:,} B "
            f"({self.plan.slots} buffers)",
        ]
        if self.replay is not None:
            r = self.replay.summary()
            lines.append(
                f"replay: {'ok' if r['ok'] else 'FAILED'} "
                f"forward {r['forward']} grads {r['grads']} "
                f"opaque {r['opaque_ops']} in {r['seconds']}s")
        lines.append(format_findings_text(self.findings))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "method": self.method,
            "step": self.step,
            "graph": self.graph_summary,
            "plan": self.plan.summary(),
            "counts": count_findings(self.findings),
            "findings": [finding.to_dict() for finding in self.findings],
        }
        if self.replay is not None:
            payload["replay"] = self.replay.summary()
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_passes(capture: StepCapture,
               select: Optional[Sequence[str]] = None,
               ignore: Optional[Sequence[str]] = None) -> IRReport:
    """Run every analysis pass and assemble the report."""
    plan = plan_memory(capture)
    findings: List[Finding] = []
    findings += _pass_memory(capture, plan)
    findings += _pass_dead_ops(capture)
    findings += _pass_dropped_gradients(capture)
    findings += _pass_fusion(capture)
    findings += _pass_redundant_recompute(capture)
    findings += _pass_dtype_escapes(capture)
    findings += _pass_detached_loss(capture)
    findings += _pass_optimizer_group(capture)
    findings += _pass_gradients(capture)
    findings += _pass_spec_violations(capture)
    if capture.graph.overflowed:
        findings.append(Finding(
            kind="capture-overflow", severity="warning",
            message="capture hit its op budget; analysis is partial"))
    findings = filter_findings(findings, select=select, ignore=ignore)
    return IRReport(method=capture.method, step=capture.step_index,
                    graph_summary=capture.graph.summary(),
                    findings=findings, plan=plan)
