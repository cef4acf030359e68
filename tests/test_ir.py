"""Training-step IR: capture, analysis passes, verified replay.

The gradient passes (G007–G013) carry the graph checks: hypothesis
properties compose random op chains and assert that reachable
parameters always get gradients and that a detached loss or an unused
optimizer parameter is always flagged.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.findings import Finding
from repro.analysis.ir import (
    G_CODES,
    MAX_CAPTURES,
    IRCapture,
    capture_method,
    capture_step,
    plan_memory,
    replay,
    run_passes,
)
from repro.cli import main
from repro.experiments.methods import available_methods
from repro.nn import SGD, Linear, Parameter, Tensor, hooks
from repro.nn.layers import MLP
from repro.obs.profile import OpProfiler

# Ops whose arbitrary composition keeps values (and therefore gradients)
# finite for inputs in [-2, 2].  `exp` does NOT belong here: exp∘exp∘exp
# overflows to inf and G012 then *correctly* reports a non-finite
# gradient — covered separately below with one application.
SAFE_UNARY = ("tanh", "sigmoid", "abs")


def _two_steps(step):
    """Capture with a clean window (second backward is the primary)."""
    return capture_step(lambda: (step(), step()), label="test")


def _simple_step():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)

    def step():
        x.grad = None
        ((x * 2.0).relu().sum()).backward()

    return x, step


class TestCapture:
    def test_graph_structure(self):
        x, step = _simple_step()
        capture = _two_steps(step)
        assert capture.clean
        assert capture.step_index == 1
        ops = [n.op for n in capture.graph.op_nodes()]
        assert ops == ["mul", "relu", "sum"]
        # Sources: the grad leaf plus the 2.0 constant.
        kinds = {n.kind for n in capture.graph.source_nodes()}
        assert "leaf" in kinds
        # Parents wire the chain: relu consumes mul, sum consumes relu.
        by_op = {n.op: n for n in capture.graph.op_nodes()}
        assert by_op["relu"].parents == (by_op["mul"].uid,)
        assert by_op["sum"].parents == (by_op["relu"].uid,)
        assert capture.graph.root == by_op["sum"].uid

    def test_single_backward_is_fallback_window(self):
        _, step = _simple_step()
        capture = capture_step(step, label="one")
        assert not capture.clean          # boundary window, still usable
        assert replay(capture).ok

    def test_never_backward_raises(self):
        with pytest.raises(RuntimeError, match="never called backward"):
            capture_step(lambda: Tensor(np.ones(3)) * 2.0, label="fwd-only")

    def test_counts_distinct_nodes(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        capture = capture_step(lambda: (a * b).sum().backward())
        assert len(capture.graph.nodes) == 4  # a, b, product, loss
        assert {id(a), id(b)} <= {id(t) for t in capture.tensors.values()}

    def test_shared_node_registered_once(self):
        a = Tensor([1.0], requires_grad=True)
        capture = capture_step(lambda: (a * a).sum().backward())
        assert sum(1 for t in capture.tensors.values() if t is a) == 1

    def test_one_capture_per_leaf_signature(self, rng):
        layer = Linear(3, 1, rng)
        x = Tensor(np.ones((4, 3)))
        with IRCapture() as harness:
            optimizer = SGD(layer.parameters(), lr=0.01)
            for _ in range(3):  # one phase → one capture, not three
                optimizer.zero_grad()
                loss = (layer(x) * layer(x)).sum()
                loss.backward()
                optimizer.step()
        assert len(harness.captures) == 1
        capture = harness.captures[0]
        assert capture.clean
        assert not [f for f in run_passes(capture).findings
                    if f.severity == "error"]
        assert len(capture.params) == len(list(layer.parameters()))

    def test_observer_removed_on_exit(self):
        with IRCapture() as harness:
            assert hooks.observers == (harness,)
        assert hooks.observers == ()

    def test_captures_capped(self):
        with IRCapture() as harness:
            for i in range(MAX_CAPTURES + 2):
                p = Parameter(np.ones(2) * (1 + i))
                SGD([p], lr=0.1)
                (p * p).sum().backward()
        assert len(harness.captures) == MAX_CAPTURES

    def test_source_data_snapshotted(self):
        x, step = _simple_step()
        capture = _two_steps(step)
        leaf = next(n for n in capture.graph.source_nodes()
                    if n.kind == "leaf")
        x.data[:] = -1.0  # repro: noqa[R001] deliberate post-capture mutation
        assert capture.source_data[leaf.uid][0, 0] == 0.0
        assert replay(capture).ok         # replays from the snapshot


class TestReplay:
    def test_mlp_bit_for_bit(self):
        rng = np.random.default_rng(0)
        mlp = MLP(5, [8], 3, rng)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def step():
            x.grad = None
            for p in mlp.parameters():
                p.grad = None
            (mlp(x).tanh() ** 2).mean().backward()

        capture = _two_steps(step)
        result = replay(capture)
        assert result.ok, result.mismatches
        assert result.opaque_ops == []    # every op replayed from math
        assert result.dispatch_matched
        assert result.forward_checked == len(capture.graph.op_nodes())
        assert result.forward_matched == result.forward_checked
        # One grad per parameter plus the input leaf.
        assert result.grads_checked == len(list(mlp.parameters())) + 1
        assert result.grads_matched == result.grads_checked

    def test_unknown_op_replays_opaquely(self):
        a = Tensor(np.ones(3), requires_grad=True)

        def step():
            a.grad = None
            out = a._make_child(a.data * 3.0, (a,),
                                lambda grad: (grad * 3.0,))
            out.sum().backward()

        result = replay(_two_steps(step))
        assert result.ok
        assert len(result.opaque_ops) >= 1  # falls back to recorded data

    def test_replay_detects_corrupted_recording(self):
        _, step = _simple_step()
        capture = _two_steps(step)
        mul = next(n for n in capture.graph.op_nodes() if n.op == "mul")
        capture.tensors[mul.uid].data[0, 0] += 1.0  # repro: noqa[R001] corrupt the recording on purpose
        result = replay(capture)
        assert not result.ok
        assert result.mismatches


class TestPasses:
    def test_catalogue_covers_g001_to_g013(self):
        assert sorted(G_CODES) == [f"G{i:03d}" for i in range(1, 14)]

    def _codes(self, capture, **kw):
        return [f.code for f in run_passes(capture, **kw).findings]

    def test_clean_chain_yields_only_memory_info(self):
        _, step = _simple_step()
        report = run_passes(_two_steps(step))
        assert [f.code for f in report.findings] == ["G001"]
        assert report.findings[0].severity == "info"
        assert not report.gating

    def test_dead_op_flagged(self):
        a = Tensor(np.ones(4), requires_grad=True)

        def step():
            a.grad = None
            (a * 3.0).relu()              # computed, never reaches the loss
            (a * 2.0).sum().backward()

        codes = self._codes(_two_steps(step))
        assert "G002" in codes

    def test_dropped_gradient_is_error(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)

        def step():
            a.grad = None
            b.grad = None
            # A "kernel" whose backward silently drops a's gradient.
            out = a._make_child(a.data + b.data, (a, b),
                                lambda grad: (None, grad))
            out.sum().backward()

        report = run_passes(_two_steps(step))
        dropped = [f for f in report.findings if f.code == "G003"]
        assert len(dropped) == 1
        assert dropped[0].severity == "error"
        assert report.gating

    def test_softmax_template_fusable(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 5)),
                   requires_grad=True)

        def step():
            x.grad = None
            e = x.exp()
            (e / e.sum(axis=-1, keepdims=True)).sum().backward()

        findings = run_passes(_two_steps(step)).findings
        fusion = [f for f in findings if f.code == "G004"]
        assert fusion and any("softmax" in f.message for f in fusion)

    def test_redundant_recompute_flagged(self):
        a = Tensor(np.ones((3, 3)), requires_grad=True)
        c = Tensor(np.full((3, 3), 2.0))  # shared const => shared parent

        def step():
            a.grad = None
            ((a * c) + (a * c)).sum().backward()

        findings = run_passes(_two_steps(step)).findings
        assert any(f.code == "G005" and f.severity == "warning"
                   for f in findings)

    def test_different_slices_of_a_constant_are_not_redundant(self):
        # Slices 0:24 and 24:48 of an all-zero leaf share op, parent,
        # shape and every output byte; only their indices differ.
        z = Tensor(np.zeros(72), requires_grad=True)

        def step():
            z.grad = None
            (z[0:24] * z[24:48]).sum().backward()

        codes = self._codes(_two_steps(step))
        assert "G005" not in codes

    def test_same_slice_twice_is_redundant(self):
        z = Tensor(np.zeros(72), requires_grad=True)

        def step():
            z.grad = None
            (z[0:24] * z[0:24]).sum().backward()

        assert "G005" in self._codes(_two_steps(step))

    def test_dtype_escape_flagged(self):
        a = Tensor(np.ones(3), requires_grad=True)

        def step():
            a.grad = None
            out = a._make_child((a.data * 2.0).astype(np.float32), (a,),
                                lambda grad: (grad * 2.0,))
            out.sum().backward()

        findings = run_passes(_two_steps(step)).findings
        assert any(f.code == "G006" for f in findings)

    def test_select_and_ignore_filters(self):
        a = Tensor(np.ones(4), requires_grad=True)

        def step():
            a.grad = None
            (a * 3.0).relu()
            ((a * 2.0) + (a * 2.0)).sum().backward()

        capture = _two_steps(step)
        assert set(self._codes(capture, select=["G002"])) == {"G002"}
        assert "G002" not in self._codes(capture, ignore=["G002"])

    def test_report_renderers(self):
        _, step = _simple_step()
        report = run_passes(_two_steps(step))
        text = report.to_text()
        assert "IR capture:" in text and "memory plan:" in text
        payload = json.loads(report.to_json())
        assert payload["counts"].get("G001") == 1


def _gradient_findings(build, params=()):
    """Capture one step of ``build()`` under SGD over ``params``."""
    def step():
        if params:
            SGD(list(params), lr=0.1)
        build().backward()

    return run_passes(capture_step(step)).findings


def _codes_with(findings, severity):
    return {f.code for f in findings if f.severity == severity}


class TestGradientProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(SAFE_UNARY), min_size=0, max_size=4),
        size=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_reachable_params_always_get_gradients(self, ops, size, seed):
        rng = np.random.default_rng(seed)
        p1 = Parameter(rng.uniform(-1.0, 1.0, size=size))
        p2 = Parameter(rng.uniform(-1.0, 1.0, size=size))

        def build():
            x = p1 * p2 + p1
            for op in ops:
                x = getattr(x, op)()
            return x.sum()

        findings = _gradient_findings(build, params=(p1, p2))
        assert not _codes_with(findings, "error"), findings
        assert p1.grad is not None and p2.grad is not None

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_single_exp_keeps_gradients_finite(self, seed):
        rng = np.random.default_rng(seed)
        p1 = Parameter(rng.uniform(-1.0, 1.0, size=3))
        p2 = Parameter(rng.uniform(-1.0, 1.0, size=3))
        findings = _gradient_findings(
            lambda: (p1 * p2 + p1).exp().sum(), params=(p1, p2))
        assert "G012" not in _codes_with(findings, "error"), findings

    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(SAFE_UNARY), min_size=0, max_size=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_detached_inputs_always_flagged(self, ops, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1.0, 1.0, size=3))  # requires_grad=False

        def build():
            y = x
            for op in ops:
                y = getattr(y, op)()
            return (y * y).sum()

        assert "G007" in _codes_with(_gradient_findings(build), "error")

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_unused_parameter_always_flagged(self, seed):
        rng = np.random.default_rng(seed)
        used = Parameter(rng.uniform(-1.0, 1.0, size=3))
        unused = Parameter(rng.uniform(-1.0, 1.0, size=3))
        findings = _gradient_findings(lambda: used.tanh().sum(),
                                      params=(used, unused))
        missing = [f for f in findings if f.code == "G008"]
        assert len(missing) == 1 and missing[0].severity == "error"
        assert "parameter #1" in missing[0].message


class TestGradientChecks:
    def test_clean_graph_reports_ok(self):
        p = Parameter(np.array([0.5, -0.5]))
        findings = _gradient_findings(lambda: (p * p).sum(), params=(p,))
        assert [f.code for f in findings] == ["G001"]

    def test_stale_gradients_warn_double_backward(self):
        p = Parameter(np.ones(2))

        def step():
            (p * p).sum().backward()   # no zero_grad between steps

        capture = _two_steps(step)
        stale = [f for f in run_passes(capture).findings if f.code == "G010"]
        assert len(stale) == 1 and stale[0].severity == "warning"

    def test_capture_keeps_preexisting_gradients(self):
        p = Parameter(np.ones(2))
        p.grad = np.full(2, 7.0)
        findings = _gradient_findings(lambda: (p * p).sum())
        np.testing.assert_array_equal(p.grad, np.full(2, 9.0))  # as eager
        assert "G010" in _codes_with(findings, "warning")

    def test_zero_gradient_is_warning_not_error(self):
        p = Parameter(np.zeros(3))
        findings = _gradient_findings(lambda: (p * 0.0).sum(), params=(p,))
        assert not _codes_with(findings, "error")
        assert "G013" in _codes_with(findings, "warning")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # log(0) on purpose
    def test_nonfinite_gradient_is_error(self):
        p = Parameter(np.array([0.0, 1.0]))
        findings = _gradient_findings(lambda: p.log().sum(), params=(p,))
        assert "G012" in _codes_with(findings, "error")

    def test_wrong_shape_gradient_is_error(self):
        a = Tensor(np.ones(3), requires_grad=True)

        def build():
            # A "kernel" whose backward hands its input a (1, 3) gradient.
            out = a._make_child(a.data * 2.0, (a,),
                                lambda grad: ((grad * 2.0)[None, :],))
            return out.sum()

        findings = _gradient_findings(build)
        assert "G011" in _codes_with(findings, "error")

    def test_untracked_trainable_leaf_warns(self):
        p = Parameter(np.ones(2))
        stray = Parameter(np.ones(2))
        findings = _gradient_findings(lambda: (p * stray).sum(),
                                      params=(p,))
        assert "G009" in _codes_with(findings, "warning")


class TestMemoryPlan:
    def test_planned_at_most_eager_at_most_measured(self):
        rng = np.random.default_rng(2)
        mlp = MLP(6, [16, 16], 4, rng)
        x = Tensor(rng.normal(size=(8, 6)), requires_grad=True)

        def step():
            x.grad = None
            mlp(x).mean().backward()

        profiler = OpProfiler()
        profiler.install()
        try:
            capture = _two_steps(step)
        finally:
            profiler.uninstall()
        plan = plan_memory(capture)
        assert 0 < plan.planned_peak_bytes <= plan.eager_peak_bytes
        assert plan.eager_peak_bytes <= profiler.peak_live_bytes
        assert plan.slots >= 1

    def test_replay_peak_within_plan_scope(self):
        _, step = _simple_step()
        capture = _two_steps(step)
        result = replay(capture)
        plan = plan_memory(capture)
        # Replay frees at last use, so its forward peak cannot exceed
        # the eager all-live upper bound.
        assert result.replay_peak_bytes <= plan.eager_peak_bytes


class TestMethodIntegration:
    def test_mtranse_capture_analyze_replay(self):
        capture, = capture_method("mtranse")
        assert capture.clean
        assert capture.method == "mtranse"
        report = run_passes(capture)
        assert not report.gating
        result = replay(capture)
        assert result.ok, result.mismatches
        assert result.grads_checked >= 2

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError, match="unknown method"):
            capture_method("not-a-method")

    def test_sdea_captures_each_phase(self):
        # MLM pre-training, Alg.-2 fine-tuning, relation training.
        captures = capture_method("sdea")
        assert [len(c.graph.nodes) for c in captures] == [142, 324, 1848]
        assert all(c.clean for c in captures)
        for capture in captures:
            result = replay(capture)
            assert result.ok, result.mismatches
            assert result.opaque_ops == []

    @pytest.mark.parametrize("method", available_methods())
    def test_no_error_finding_in_any_phase(self, method):
        for capture in capture_method(method):
            report = run_passes(capture)
            errors = [f for f in report.findings if f.severity == "error"]
            assert not errors, [f.format() for f in errors]


class TestAttributionAgreement:
    def test_dot_and_profiler_share_module_paths(self):
        # Satellite guarantee: the IR graph and the op profiler build
        # module paths through repro.obs.attribution, so `repro ir --dot`
        # and the chrome trace can never disagree on attribution.
        rng = np.random.default_rng(3)
        mlp = MLP(5, [7], 2, rng)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def step():
            x.grad = None
            mlp(x).mean().backward()

        profiler = OpProfiler()
        profiler.install()
        try:
            capture = _two_steps(step)
        finally:
            profiler.uninstall()
        ir_paths = {n.module for n in capture.graph.op_nodes() if n.module}
        prof_paths = {module for (_, phase, module) in profiler.stats
                      if phase == "forward" and module}
        assert ir_paths
        assert ir_paths <= prof_paths
        dot = capture.graph.to_dot()
        for path in ir_paths:
            assert path in dot


class TestFindingFormatGolden:
    def test_codeless_style(self):
        finding = Finding(kind="capture-overflow", severity="warning",
                          message="capture hit its op budget")
        assert finding.format() == (
            "[warning] capture-overflow: capture hit its op budget"
        )

    def test_ir_style_with_code_and_where(self):
        finding = Finding(kind="redundant-recompute", severity="warning",
                          message="2 identical take ops", code="G005",
                          where="%3:take")
        assert finding.format() == (
            "[warning] G005 redundant-recompute: 2 identical take ops "
            "(at %3:take)"
        )


class TestCLI:
    def test_ir_text(self, capsys):
        assert main(["ir", "--method", "mtranse"]) == 0
        out = capsys.readouterr().out
        assert "IR capture:" in out and "G001" in out

    def test_ir_json(self, capsys):
        assert main(["ir", "--method", "mtranse", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)  # one per capture
        assert payload[0]["method"] == "mtranse"
        assert "findings" in payload[0]

    def test_ir_replay_flag(self, capsys):
        assert main(["ir", "--method", "mtranse", "--replay"]) == 0
        assert "replay" in capsys.readouterr().out

    def test_ir_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "step.dot"
        assert main(["ir", "--method", "mtranse", "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("digraph")

    def test_ir_gating_finding_exits_nonzero(self, capsys):
        # jape-stru's duplicate embedding lookup is a real G005 warning.
        assert main(["ir", "--method", "jape-stru"]) == 1
        assert "G005" in capsys.readouterr().out

    def test_ir_ignore_clears_gate(self, capsys):
        assert main(["ir", "--method", "jape-stru",
                     "--ignore", "G005"]) == 0

    def test_ir_unknown_method(self, capsys):
        assert main(["ir", "--method", "nope"]) == 1

    def test_run_capture_ir(self, tmp_path, capsys):
        code = main(["run", "--dataset", "srprs/dbp_yg",
                     "--method", "jape-stru", "--capture-ir",
                     "--runs-dir", str(tmp_path)])
        assert code == 0
        assert "IR capture:" in capsys.readouterr().out
