"""Verified replay of a captured training step.

The executor re-runs a :class:`~repro.analysis.ir.capture.StepCapture`
from its source snapshots and asserts **bit-for-bit** agreement with
what the eager engine produced at capture time:

* forward: every in-window op output is recomputed by the op's
  registered forward (:mod:`repro.nn.ops`), called on the replayed
  operand arrays with the attributes the capture recorded, and compared
  against the recorded array via ``tobytes()``;
* backward: the engine's exact topological walk is re-simulated over
  IR uids — same DFS order, same ``grads[key] = grads[key] + c``
  accumulation, same leaf ``_accumulate`` semantics — calling each op's
  registered VJP on the replayed arrays, and every leaf's final
  gradient is compared against the snapshot taken at capture.

Registered ops read only snapshots and replayed values, never a live
tensor, so parameters the optimizer has stepped since cannot leak in.
An op built outside the registry (``Tensor._make_child``) has no
forward: it falls back to the recorded output, is counted in
``opaque_ops``, and its backward runs the captured closure.

The forward frees each value that the backward does not read at its
last use and tracks the resulting peak of op outputs held.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ...nn.tensor import get_default_dtype
from .capture import StepCapture
from .graph import IRGraph

__all__ = ["ReplayResult", "replay", "engine_topo_order"]


@dataclass
class ReplayResult:
    """Outcome of one verified replay."""

    ok: bool = True
    forward_checked: int = 0
    forward_matched: int = 0
    grads_checked: int = 0
    grads_matched: int = 0
    opaque_ops: List[str] = field(default_factory=list)
    dispatch_matched: bool = True
    mismatches: List[str] = field(default_factory=list)
    replay_peak_bytes: int = 0
    seconds: float = 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "forward": f"{self.forward_matched}/{self.forward_checked}",
            "grads": f"{self.grads_matched}/{self.grads_checked}",
            "opaque_ops": len(self.opaque_ops),
            "dispatch_matched": self.dispatch_matched,
            "replay_peak_bytes": self.replay_peak_bytes,
            "seconds": round(self.seconds, 6),
        }


def engine_topo_order(graph: IRGraph) -> List[int]:
    """The exact node order ``Tensor.backward`` would visit.

    Replicates the engine's DFS (same stack discipline, parents pushed
    in forward order) over uids so the replayed float-accumulation
    order is identical to eager.
    """
    if graph.root is None:
        return []
    topo: List[int] = []
    visited = set()
    stack = [(graph.root, False)]
    while stack:
        uid, processed = stack.pop()
        if processed:
            topo.append(uid)
            continue
        if uid in visited:
            continue
        visited.add(uid)
        stack.append((uid, True))
        for parent in graph.node(uid).parents:
            if parent not in visited:
                stack.append((parent, False))
    return topo


def _bitwise_equal(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------- #
# The executor
# ---------------------------------------------------------------------- #
def replay(capture: StepCapture, max_mismatches: int = 10) -> ReplayResult:
    """Re-execute the captured step and verify it bit-for-bit."""
    graph = capture.graph
    if graph.overflowed:
        raise ValueError(
            "capture overflowed its op budget; the window is incomplete "
            "and cannot be replayed"
        )
    if graph.root is None:
        raise ValueError("capture has no backward root")
    result = ReplayResult()
    start = time.perf_counter()

    # ----- forward: recompute in dependency order ----------------------
    consumers = graph.consumers()
    remaining = {uid: len(consumers[uid]) for uid in consumers}
    read_by_backward = set(graph.dispatch_order)
    for uid in graph.dispatch_order:
        read_by_backward.update(graph.node(uid).parents)
    values: Dict[int, np.ndarray] = {}
    # uid -> (raw output, saved buffers) as the op's VJP receives them.
    outputs: Dict[int, tuple] = {}
    live_bytes = 0

    def note_mismatch(label: str) -> None:
        result.ok = False
        if len(result.mismatches) < max_mismatches:
            result.mismatches.append(label)

    for uid in graph.topo_order():
        node = graph.node(uid)
        if node.kind != "op":
            values[uid] = capture.source_data[uid]
            continue
        call = capture.calls[uid]
        recorded = capture.tensors[uid].data
        op = call.op
        if op.forward is None:
            result.opaque_ops.append(node.op)
            out, saved = recorded, call.saved
        else:
            out = op.forward(*[values[p] for p in node.parents],
                             **call.attrs)
            out, saved = out if op.saves else (out, None)
            result.forward_checked += 1
            if _bitwise_equal(np.asarray(out), recorded):
                result.forward_matched += 1
            else:
                note_mismatch(f"forward {node.label()} [{node.module}]")
        outputs[uid] = (out, saved)
        values[uid] = np.asarray(out)
        live_bytes += values[uid].nbytes
        result.replay_peak_bytes = max(result.replay_peak_bytes, live_bytes)
        for parent in node.parents:
            remaining[parent] -= 1
            if remaining[parent] == 0 and parent not in read_by_backward \
                    and graph.node(parent).kind == "op":
                live_bytes -= values[parent].nbytes
                del values[parent]

    # ----- backward: simulate the engine's walk, each node's VJP on the
    # replayed arrays (external nodes use their captured output) -------
    replayed_dispatch: List[int] = []
    leaf_final: Dict[int, np.ndarray] = {}
    grads: Dict[int, np.ndarray] = {graph.root: capture.seed_grad}
    for uid in reversed(engine_topo_order(graph)):
        node_grad = grads.pop(uid, None)
        if node_grad is None:
            continue
        node = graph.node(uid)
        if node.requires_grad and not node.has_backward:
            before = capture.grads_before.get(uid)
            if before is None:
                leaf_final[uid] = np.array(
                    node_grad, dtype=get_default_dtype(), copy=True)
            else:
                acc = before.copy()
                acc += node_grad
                leaf_final[uid] = acc
        if node.has_backward:
            replayed_dispatch.append(uid)
            call = capture.calls[uid]
            out, saved = outputs.get(uid, (call.out, call.saved))
            contributions = call.op.vjp(
                node_grad, out, saved,
                *[values[p] for p in node.parents], **call.attrs)
            for parent_uid, contribution in zip(node.parents, contributions):
                parent = graph.node(parent_uid)
                if contribution is None or not (
                    parent.requires_grad or parent.has_backward
                ):
                    continue
                if parent_uid in grads:
                    grads[parent_uid] = grads[parent_uid] + contribution
                else:
                    grads[parent_uid] = contribution

    if replayed_dispatch != graph.dispatch_order:
        result.dispatch_matched = False
        note_mismatch(
            f"dispatch order: replayed {len(replayed_dispatch)} ops, "
            f"recorded {len(graph.dispatch_order)}"
        )

    # ----- verify final leaf gradients against the capture snapshot ---
    for uid, expected in sorted(capture.grads_after.items()):
        result.grads_checked += 1
        got = leaf_final.get(uid, capture.grads_before.get(uid))
        if _bitwise_equal(got, expected):
            result.grads_matched += 1
        else:
            note_mismatch(f"grad {graph.node(uid).label()}")

    result.seconds = time.perf_counter() - start
    return result
