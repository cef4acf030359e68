"""SSA-style op graph over one captured training step.

:class:`IRGraph` is a pure data structure: one :class:`IRNode` per
value the autograd engine materialised during the captured window, in
creation (SSA) order, plus the backward root and the exact
``_backward_dispatch`` schedule the engine executed.  Everything the
analysis passes (:mod:`repro.analysis.ir.passes`) and the replay
executor (:mod:`repro.analysis.ir.replay`) need that is *not* a numpy
array lives here; the arrays, op calls and leaf snapshots stay
on the owning :class:`repro.analysis.ir.capture.StepCapture`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

__all__ = ["IRNode", "IRGraph", "NODE_KINDS"]

#: ``op``       — created by an op application in the window;
#: ``leaf``     — trainable source (requires_grad, no backward): a param;
#: ``const``    — non-trainable source (batch data, masks, constants);
#: ``external`` — op node created *before* the window that the captured
#:                step still depends on (registered on demand).
NODE_KINDS = ("op", "leaf", "const", "external")


@dataclass(frozen=True)
class IRNode:
    """One SSA value in a captured step."""

    uid: int
    op: str                     # friendly op name ("matmul"); kind for sources
    kind: str                   # one of NODE_KINDS
    shape: Tuple[int, ...]
    dtype: str                  # stored dtype (after the Tensor ctor cast)
    raw_dtype: str              # dtype of the raw numpy result pre-cast
    parents: Tuple[int, ...]
    module: str                 # shared attribution path ("" for sources)
    requires_grad: bool
    has_backward: bool

    @property
    def out_bytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * \
            np.dtype(self.dtype).itemsize

    def label(self) -> str:
        return f"%{self.uid}:{self.op}"


@dataclass
class IRGraph:
    """The captured op graph plus the backward schedule."""

    nodes: List[IRNode] = field(default_factory=list)
    root: Optional[int] = None          # uid backward() was called on
    dispatch_order: List[int] = field(default_factory=list)
    overflowed: bool = False            # capture hit its op budget

    # ------------------------------------------------------------------ #
    # Lookup / structure
    # ------------------------------------------------------------------ #
    def node(self, uid: int) -> IRNode:
        found = self._by_uid().get(uid)
        if found is None:
            raise KeyError(f"no IR node with uid {uid}")
        return found

    def _by_uid(self) -> Dict[int, IRNode]:
        cache = getattr(self, "_uid_cache", None)
        if cache is None or len(cache) != len(self.nodes):
            cache = {node.uid: node for node in self.nodes}
            object.__setattr__(self, "_uid_cache", cache)
        return cache

    def op_nodes(self) -> List[IRNode]:
        """Nodes computed inside the window, in creation order."""
        return [node for node in self.nodes if node.kind == "op"]

    def source_nodes(self) -> List[IRNode]:
        return [node for node in self.nodes
                if node.kind in ("leaf", "const", "external")]

    def consumers(self) -> Dict[int, List[int]]:
        """``uid -> uids of nodes that read it`` (creation order)."""
        out: Dict[int, List[int]] = {node.uid: [] for node in self.nodes}
        for node in self.nodes:
            for parent in node.parents:
                out[parent].append(node.uid)
        return out

    def ancestors(self, uid: int) -> Set[int]:
        """Transitive parents of ``uid`` (excluding ``uid`` itself)."""
        seen: Set[int] = set()
        stack = list(self.node(uid).parents)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.node(current).parents)
        return seen

    def topo_order(self) -> List[int]:
        """Deterministic parents-before-children order over all nodes.

        Creation (uid) order is already topological for in-window
        nodes; external nodes are registered lazily during backward and
        can carry later uids than their consumers, so a DFS reorder is
        required before forward replay.
        """
        order: List[int] = []
        state: Dict[int, int] = {}  # 0 = visiting, 1 = done
        for start in sorted(node.uid for node in self.nodes):
            if start in state:
                continue
            stack: List[Tuple[int, bool]] = [(start, False)]
            while stack:
                uid, processed = stack.pop()
                if processed:
                    state[uid] = 1
                    order.append(uid)
                    continue
                if state.get(uid) == 1:
                    continue
                state[uid] = 0
                stack.append((uid, True))
                for parent in reversed(self.node(uid).parents):
                    if state.get(parent) != 1:
                        stack.append((parent, False))
        return order

    # ------------------------------------------------------------------ #
    # Reachability relative to the backward root
    # ------------------------------------------------------------------ #
    def live_set(self) -> Set[int]:
        """Uids the loss actually depends on: root + its ancestors."""
        if self.root is None:
            return set()
        return self.ancestors(self.root) | {self.root}

    def grad_reachable(self) -> Set[int]:
        """Nodes the engine's backward delivers a gradient to.

        Mirrors ``Tensor._backward_dispatch``: starting at the root, a
        node's gradient flows to a parent iff the parent requires grad
        or has a backward function of its own.
        """
        if self.root is None:
            return set()
        reached: Set[int] = {self.root}
        stack = [self.root]
        while stack:
            node = self.node(stack.pop())
            if not node.has_backward:
                continue
            for parent_uid in node.parents:
                parent = self.node(parent_uid)
                if parent_uid in reached:
                    continue
                if parent.requires_grad or parent.has_backward:
                    reached.add(parent_uid)
                    stack.append(parent_uid)
        return reached

    # ------------------------------------------------------------------ #
    # Summaries / export
    # ------------------------------------------------------------------ #
    def total_op_bytes(self) -> int:
        return sum(node.out_bytes for node in self.op_nodes())

    def summary(self) -> Dict[str, object]:
        ops = self.op_nodes()
        kinds: Dict[str, int] = {}
        for node in self.nodes:
            kinds[node.kind] = kinds.get(node.kind, 0) + 1
        return {
            "nodes": len(self.nodes),
            "op_nodes": len(ops),
            "kinds": kinds,
            "root": self.root,
            "dispatched": len(self.dispatch_order),
            "op_output_bytes": self.total_op_bytes(),
            "overflowed": self.overflowed,
        }

    def to_dot(self, max_nodes: int = 400) -> str:
        """Graphviz rendering; module attribution uses the same shared
        path builder as the chrome-trace exporter
        (:mod:`repro.obs.attribution`), so the two never disagree."""
        lines = ["digraph ir_step {",
                 "  rankdir=TB;",
                 '  node [shape=box, fontname="monospace", fontsize=9];']
        shown = self.nodes[:max_nodes]
        shown_uids = {node.uid for node in shown}
        for node in shown:
            label = f"{node.label()}\\n{node.shape} {node.dtype}"
            if node.module:
                label += f"\\n{node.module}"
            style = ""
            if node.kind == "leaf":
                style = ', style=filled, fillcolor="#d0e8ff"'
            elif node.kind == "const":
                style = ', style=filled, fillcolor="#eeeeee"'
            elif node.kind == "external":
                style = ', style=dashed'
            if self.root == node.uid:
                style += ', color="#cc0000", penwidth=2'
            lines.append(f'  n{node.uid} [label="{label}"{style}];')
        for node in shown:
            for parent in node.parents:
                if parent in shown_uids:
                    lines.append(f"  n{parent} -> n{node.uid};")
        if len(self.nodes) > max_nodes:
            lines.append(f'  truncated [label="... {len(self.nodes) - max_nodes}'
                         ' more nodes", shape=plaintext];')
        lines.append("}")
        return "\n".join(lines)
