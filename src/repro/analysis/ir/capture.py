"""Capture real training steps, one per phase, into explicit IR graphs.

:class:`IRCapture` is an engine observer (:mod:`repro.nn.hooks`): it
sees every op created (the forward op stream), every backward node
dispatch (the backward schedule), every ``Tensor.backward`` call (the
step delimiter), every optimizer created (its parameter group) and
every module call (the shared module-path tracker from
:mod:`repro.obs.attribution`).  It records a *window* of grad-tracked
ops ending at each ``backward()`` call.  Every module call in the window
is also checked against its layer's ``@shape_spec`` contract
(:mod:`repro.nn.spec`) on the real tensors it took and returned; the
violations go with the window's capture (pass G014 reports them).

Step selection follows the training phases.  A step's *signature* is
the set of gradient leaves its loss reaches; SDEA's MLM pre-training,
Alg.-2 fine-tuning and relation training each have their own.  The
window that starts at install spans arbitrary set-up work, so the
first backward is kept only as a **fallback**; every later window is
**clean** — it starts at the previous backward, so it holds one step
(zero_grad → forward → backward) plus any set-up that recorded no
grad-tracked op.  The harness keeps the first clean step of each
signature, up to :data:`MAX_CAPTURES` phases.  ``StepCapture.clean``
records which case happened.

Everything replay needs is snapshotted at capture time: source-tensor
data (parameters mutate in place under the optimizer), pre/post
backward ``.grad`` values of every gradient leaf, the seed gradient,
and the exact dispatch order.  Each op node keeps its
:class:`~repro.nn.tensor.OpCall` — the registry record and the op's
attributes (axes, indices, masks) — which is all the replay executor
needs to re-run it (:mod:`repro.analysis.ir.replay`).

Tensors created before the window that the captured step still reads
(cross-phase intermediates) are registered on demand — as ``leaf`` /
``const`` sources, or ``external`` op nodes when the engine's backward
walks through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...nn.hooks import Observer, register_observer
from ...nn.spec import check_call
from ...nn.tensor import OpCall, Tensor, get_default_dtype
from ...obs.attribution import ModulePathTracker
from .graph import IRGraph, IRNode

__all__ = ["MAX_CAPTURES", "StepCapture", "IRCapture", "capture_step",
           "capture_method", "tiny_pair", "tiny_method"]

#: Distinct training phases (gradient-leaf sets) one harness keeps.
MAX_CAPTURES = 8


@dataclass
class StepCapture:
    """One captured training step: graph + arrays + op calls."""

    graph: IRGraph
    tensors: Dict[int, Tensor]                  # uid -> live tensor (strong)
    calls: Dict[int, OpCall]                    # uid -> op, attributes
    source_data: Dict[int, np.ndarray]          # uid -> leaf/const snapshot
    grads_before: Dict[int, Optional[np.ndarray]]
    grads_after: Dict[int, Optional[np.ndarray]]
    seed_grad: np.ndarray
    clean: bool                                 # window = exactly one step
    step_index: int                             # which backward call (0-based)
    method: str = ""
    #: Parameter group of the optimizer training this step (empty when
    #: no optimizer created under the harness holds any of its leaves).
    params: List[Tensor] = field(default_factory=list)
    #: ``(module path, message)`` of each distinct ``@shape_spec``
    #: violation by a module call in the window.
    spec_violations: List[Tuple[str, str]] = field(default_factory=list)

    def grad_leaves(self) -> List[IRNode]:
        """Gradient-accumulating sources (trainable leaves)."""
        return [node for node in self.graph.nodes
                if node.requires_grad and not node.has_backward]


class IRCapture(Observer):
    """Engine observer that records one clean step per training phase.

    Usage::

        with IRCapture() as harness:
            method.fit(pair, split)
        captures = harness.captures   # one per phase, [] if no backward
    """

    def __init__(self, max_ops: int = 200_000):
        self.max_ops = int(max_ops)
        self.captures: List[StepCapture] = []
        #: Every optimizer's parameter list, in creation order.
        self.param_groups: List[List[Tensor]] = []
        self._held: Dict[frozenset, int] = {}   # signature -> captures index
        self._pending: Optional[tuple] = None   # the capture in flight
        self._in_backward = False
        self._done = False
        self._overflowed = False
        self._backward_count = 0
        self._paths = ModulePathTracker()
        self._reset_window()
        self._hook_handle = None
        self._capturing_dispatch = False
        self._dispatch: List[int] = []
        self._grads_before: Dict[int, Optional[np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Result access
    # ------------------------------------------------------------------ #
    @property
    def capture(self) -> Optional[StepCapture]:
        """The preferred capture: the last clean one, else the last."""
        for cap in reversed(self.captures):
            if cap.clean:
                return cap
        return self.captures[-1] if self.captures else None

    # ------------------------------------------------------------------ #
    # Install / uninstall
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "IRCapture":
        self._hook_handle = register_observer(self)
        return self

    def __exit__(self, *exc) -> None:
        self._hook_handle.remove()

    # ------------------------------------------------------------------ #
    # Engine events
    # ------------------------------------------------------------------ #
    def module_entered(self, module, args, kwargs) -> None:
        self._paths.push(module)

    def module_exited(self, module, args, kwargs, out) -> None:
        if not self._done:
            for message in check_call(module, args, kwargs, out):
                self._violations[self._paths.path(), message] = None
        self._paths.pop()

    def optimizer_created(self, optimizer) -> None:
        self.param_groups.append(list(optimizer.parameters))

    def op_created(self, out, call) -> None:
        if not self._done and out._backward is not None:
            self._record_op(out, call)

    def node_dispatched(self, node, grad, contributions) -> None:
        if self._capturing_dispatch:
            uid = self._ids.get(id(node))
            if uid is None:
                uid = self._register_source(node)
            self._dispatch.append(uid)

    # ------------------------------------------------------------------ #
    # Window recording
    # ------------------------------------------------------------------ #
    def _reset_window(self) -> None:
        self._uid = 0
        self._ids: Dict[int, int] = {}          # id(tensor) -> uid
        self._tensors: Dict[int, Tensor] = {}   # strong refs keep ids valid
        self._calls: Dict[int, OpCall] = {}
        self._nodes: List[IRNode] = []
        self._violations: Dict[Tuple[str, str], None] = {}
        self._overflowed = False

    def _next_uid(self) -> int:
        uid = self._uid
        self._uid += 1
        return uid

    def _record_op(self, out: Tensor, call: OpCall) -> None:
        if len(self._nodes) >= self.max_ops:
            self._overflowed = True
            return
        parents = call.inputs
        parent_uids = tuple(self._ids.get(id(p), -1) for p in parents)
        if any(uid < 0 for uid in parent_uids):
            parent_uids = tuple(
                uid if uid >= 0 else self._register_source(parent)
                for uid, parent in zip(parent_uids, parents)
            )
        uid = self._next_uid()
        node = IRNode(
            uid=uid,
            op=call.op.name,
            kind="op",
            shape=out.shape,
            dtype=str(out.dtype),
            raw_dtype=str(getattr(call.out, "dtype", out.dtype)),
            parents=parent_uids,
            module=self._paths.path(),
            requires_grad=out.requires_grad,
            has_backward=True,
        )
        self._ids[id(out)] = uid
        self._tensors[uid] = out
        self._calls[uid] = call
        self._nodes.append(node)

    def _register_source(self, t: Tensor) -> int:
        """Register a tensor created outside the window (lazily).

        Sources with their own backward are ``external`` op nodes whose
        ancestry is registered recursively — the engine's backward will
        walk through them, so dispatch replay needs the full chain.
        """
        existing = self._ids.get(id(t))
        if existing is not None:
            return existing
        if t._backward is not None:
            parent_uids = tuple(self._register_source(p) for p in t._parents)
            uid = self._next_uid()
            node = IRNode(
                uid=uid, op=t._backward.op.name,
                kind="external", shape=t.shape, dtype=str(t.dtype),
                raw_dtype=str(t.dtype), parents=parent_uids, module="",
                requires_grad=t.requires_grad, has_backward=True,
            )
            self._calls[uid] = t._backward
        else:
            uid = self._next_uid()
            kind = "leaf" if t.requires_grad else "const"
            node = IRNode(
                uid=uid, op=kind, kind=kind, shape=t.shape,
                dtype=str(t.dtype), raw_dtype=str(t.dtype), parents=(),
                module="", requires_grad=t.requires_grad, has_backward=False,
            )
            if self._capturing_dispatch and t.requires_grad:
                # Discovered mid-backward: its .grad has not been
                # accumulated yet (leaves accumulate only after every
                # consumer dispatched), so this snapshot is "before".
                self._grads_before[uid] = \
                    None if t.grad is None else t.grad.copy()
        self._ids[id(t)] = uid
        self._tensors[uid] = t
        self._nodes.append(node)
        return uid

    # ------------------------------------------------------------------ #
    # Step delimitation / finalisation
    # ------------------------------------------------------------------ #
    def _signature(self, root_uid: int) -> frozenset:
        """Identity of the gradient leaves the step's loss reaches."""
        leaves, seen, stack = set(), set(), [root_uid]
        while stack:
            uid = stack.pop()
            if uid in seen:
                continue
            seen.add(uid)
            node = self._nodes[uid]   # nodes are appended in uid order
            if node.kind == "leaf":
                leaves.add(id(self._tensors[uid]))
            stack.extend(node.parents)
        return frozenset(leaves)

    def backward_started(self, root, grad) -> None:
        # The install window spans arbitrary set-up work, and so does a
        # window whose previous backward raised (the window never reset).
        clean = self._backward_count > 0 and not self._in_backward
        self._in_backward = True
        self._pending = None
        self._capturing_dispatch = False
        if self._done:
            return
        root_uid = self._ids.get(id(root))
        if root_uid is None:
            if root.requires_grad:
                return  # a graph built before the window, or a bare leaf
            # A detached loss: the backward about to run is a no-op.
            root_uid = self._register_source(root)
        signature = self._signature(root_uid)
        held = self._held.get(signature)
        if held is None:
            keep = len(self.captures) < MAX_CAPTURES
        else:
            keep = clean and not self.captures[held].clean
        if not keep:
            return
        self._pending = (root_uid, signature, clean)
        self._grads_before = {}
        for node in self._nodes:
            if node.requires_grad and not node.has_backward:
                t = self._tensors[node.uid]
                self._grads_before[node.uid] = \
                    None if t.grad is None else t.grad.copy()
        self._dispatch = []
        self._capturing_dispatch = not self._overflowed

    def backward_finished(self, root, grad) -> None:
        self._in_backward = False
        self._capturing_dispatch = False
        if self._pending is not None:
            root_uid, signature, clean = self._pending
            self._pending = None
            capture = self._finalize(root_uid, grad, signature, clean)
            held = self._held.get(signature)
            if held is None:
                self._held[signature] = len(self.captures)
                self.captures.append(capture)
            else:
                self.captures[held] = capture
            self._done = len(self.captures) >= MAX_CAPTURES and \
                all(cap.clean for cap in self.captures)
        self._backward_count += 1
        self._reset_window()

    def _param_group(self, signature: frozenset) -> List[Tensor]:
        """The optimizer group that best matches the step's leaves.

        Largest overlap wins, then the highest contained fraction, then
        the most recent.  (A stale earlier-phase optimizer may still
        overlap through shared weights — SDEA's MLM head after
        pre-training — and must not win, or its frozen parameters
        would report as missing from the graph.)
        """
        best: List[Tensor] = []
        best_key = (0, 0.0, -1)
        for index, group in enumerate(self.param_groups):
            overlap = sum(1 for param in group if id(param) in signature)
            key = (overlap, overlap / len(group), index)
            if overlap and key > best_key:
                best_key, best = key, group
        return list(best)

    def _finalize(self, root_uid: int, grad, signature: frozenset,
                  clean: bool) -> StepCapture:
        grads_after: Dict[int, Optional[np.ndarray]] = {}
        source_data: Dict[int, np.ndarray] = {}
        for node in self._nodes:
            t = self._tensors[node.uid]
            if node.kind != "op":
                # Sources can be mutated later (optimizer steps write
                # parameters in place); snapshot for bit-exact replay.
                source_data[node.uid] = t.data.copy()
            if node.requires_grad and not node.has_backward:
                grads_after[node.uid] = \
                    None if t.grad is None else t.grad.copy()
        graph = IRGraph(nodes=list(self._nodes), root=root_uid,
                        dispatch_order=list(self._dispatch),
                        overflowed=self._overflowed)
        return StepCapture(
            graph=graph,
            tensors=dict(self._tensors),
            calls=dict(self._calls),
            source_data=source_data,
            grads_before=dict(self._grads_before),
            grads_after=grads_after,
            seed_grad=np.array(grad, dtype=get_default_dtype(), copy=True),
            clean=clean,
            step_index=self._backward_count,
            params=self._param_group(signature),
            spec_violations=list(self._violations),
        )


# ---------------------------------------------------------------------- #
# Convenience entry points
# ---------------------------------------------------------------------- #
def capture_step(fn: Callable[[], object], label: str = "") -> StepCapture:
    """Run ``fn`` under capture and return the preferred captured step.

    ``fn`` must build a loss and call ``backward()`` at least once.
    """
    with IRCapture() as harness:
        fn()
    capture = harness.capture
    if capture is None:
        raise RuntimeError(
            f"{label or 'callable'} never called backward() on a recorded "
            "graph; nothing to capture"
        )
    capture.method = label
    return capture


def tiny_pair():
    """A ~60-entity synthetic KG pair for second-scale end-to-end runs
    (the workload of ``repro ir`` and ``repro profile``)."""
    from ...datasets import ViewConfig, WorldConfig, generate_pair
    from ...datasets.translation import Language

    return generate_pair(
        WorldConfig(n_persons=24, n_places=10, n_clubs=6, n_countries=3,
                    seed=5),
        ViewConfig(side=1, name_style="noisy", seed=6),
        ViewConfig(side=2, language=Language("zz"), seed=7),
        name="ir-tiny",
    )


def tiny_method(method_name: str):
    """Instantiate a registered method, shrinking SDEA to unit-test scale."""
    if method_name in ("sdea", "sdea-norel"):
        from ...core.config import SDEAConfig
        from ...experiments.methods import SDEAAligner, SDEAWithoutRelation

        config = SDEAConfig(
            bert_dim=32, bert_heads=2, bert_layers=1, bert_ff_dim=64,
            max_seq_len=32, embed_dim=32, relation_hidden=24,
            attr_epochs=1, rel_epochs=1, mlm_epochs=1, vocab_size=400,
            patience=1, seed=1,
        )
        if method_name == "sdea-norel":
            config.use_relation = False
            return SDEAWithoutRelation(config)
        return SDEAAligner(config)
    from ...experiments.methods import make_method
    return make_method(method_name)


def capture_method(method_name: str, pair=None,
                   split=None) -> List[StepCapture]:
    """Capture one step of every training phase of a registered method.

    Trains the method at unit-test scale on :func:`tiny_pair` and
    returns the captures in phase order (SDEA: MLM pre-training, Alg.-2
    fine-tuning, relation training).  A method that never calls
    ``backward()`` raises ``RuntimeError``.
    """
    pair = pair if pair is not None else tiny_pair()
    split = split or pair.split()
    method = tiny_method(method_name)
    with IRCapture() as harness:
        method.fit(pair, split)
    if not harness.captures:
        raise RuntimeError(
            f"method {method_name!r} never called backward() during fit "
            "(closed-form / non-gradient method); nothing to capture"
        )
    for capture in harness.captures:
        capture.method = method_name
    return harness.captures
