"""Per-rule lint tests: positive, negative and noqa cases for each rule."""

import json
import textwrap

from repro.analysis import (
    LintReport,
    Violation,
    all_rules,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)


def lint(code, select=None):
    """Lint a dedented snippet, returning the violations."""
    return lint_source(textwrap.dedent(code), path="snippet.py", select=select)


def rule_ids(violations):
    return [v.rule for v in violations]


class TestFramework:
    def test_all_rules_registered(self):
        ids = [cls.id for cls in all_rules()]
        assert ids == ["R001", "R002", "R003", "R004", "R005", "R006",
                       "R007", "R008", "R009", "R010"]

    def test_rules_have_metadata(self):
        for cls in all_rules():
            assert cls.name and cls.doc
            assert cls.severity in ("error", "warning")

    def test_select_filters_rules(self):
        code = """
        import numpy as np
        def f(x):
            x.data[0] = 1.0
            np.random.rand(3)
        """
        assert set(rule_ids(lint(code))) == {"R001", "R002"}
        assert rule_ids(lint(code, select=["R002"])) == ["R002"]

    def test_ignore_filters_rules(self):
        code = """
        import numpy as np
        def f(x):
            x.data[0] = 1.0
            np.random.rand(3)
        """
        dedented = textwrap.dedent(code)
        assert rule_ids(lint_source(dedented, ignore=["R001"])) == ["R002"]
        assert rule_ids(lint_source(dedented, ignore=["r001", "R002"])) == []
        # select and ignore compose: select wins the universe, ignore
        # subtracts from it.
        assert rule_ids(lint_source(dedented, select=["R001", "R002"],
                                    ignore=["R002"])) == ["R001"]

    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def broken(:\n", path="bad.py")
        assert rule_ids(violations) == ["E999"]

    def test_violation_format_is_path_line_col(self):
        violation = Violation(rule="R001", severity="error", path="a.py",
                              line=3, col=4, message="boom")
        assert violation.format() == "a.py:3:4: R001 [error] boom"


class TestInplaceDataMutationR001:
    def test_subscript_assign_into_data(self):
        violations = lint("""
        def f(x):
            x.data[0] = 1.0
        """)
        assert rule_ids(violations) == ["R001"]

    def test_augassign_on_data_and_grad(self):
        violations = lint("""
        def f(p, g):
            p.data -= 0.1 * p.grad
            g.grad *= 0.5
        """)
        assert rule_ids(violations) == ["R001", "R001"]

    def test_plain_grad_rebinding_is_legal(self):
        # `x.grad = None` is the engine's reset idiom, not a mutation.
        violations = lint("""
        def f(x):
            x.grad = None
        """)
        assert violations == []

    def test_noqa_suppresses_with_justification(self):
        violations = lint("""
        def step(p, lr, grad):
            p.data -= lr * grad  # repro: noqa[R001] optimizer by design
        """)
        assert violations == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        violations = lint("""
        def f(x):
            x.data[0] = 1.0  # repro: noqa[R002]
        """)
        assert rule_ids(violations) == ["R001"]

    def test_blanket_noqa_suppresses(self):
        violations = lint("""
        def f(x):
            x.data[0] = 1.0  # repro: noqa
        """)
        assert violations == []


class TestBareNpRandomR002:
    def test_legacy_global_state_call(self):
        violations = lint("""
        import numpy as np
        def f():
            return np.random.rand(3)
        """)
        assert rule_ids(violations) == ["R002"]

    def test_respects_import_alias(self):
        violations = lint("""
        import numpy
        def f():
            numpy.random.seed(0)
        """)
        assert rule_ids(violations) == ["R002"]

    def test_unseeded_default_rng(self):
        violations = lint("""
        import numpy as np
        def f():
            return np.random.default_rng()
        """)
        assert rule_ids(violations) == ["R002"]

    def test_seeded_default_rng_is_fine(self):
        violations = lint("""
        import numpy as np
        def f(seed):
            return np.random.default_rng(seed)
        """)
        assert violations == []

    def test_generator_methods_are_fine(self):
        # rng.permutation() on a threaded Generator is the sanctioned idiom.
        violations = lint("""
        import numpy as np
        def f(rng):
            return rng.permutation(10)
        """)
        assert violations == []

    def test_noqa_suppresses(self):
        violations = lint("""
        import numpy as np
        def f():
            return np.random.rand(3)  # repro: noqa[R002]
        """)
        assert violations == []


class TestSuperInitFirstR003:
    def test_parameter_before_super_init(self):
        violations = lint("""
        class Bad(Module):
            def __init__(self):
                self.w = Parameter(np.ones(3))
                super().__init__()
        """)
        assert rule_ids(violations) == ["R003"]

    def test_parameter_without_super_init(self):
        violations = lint("""
        class Bad(Module):
            def __init__(self):
                self.w = Parameter(np.ones(3))
        """)
        assert rule_ids(violations) == ["R003"]

    def test_super_init_first_is_fine(self):
        violations = lint("""
        class Good(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
        """)
        assert violations == []

    def test_local_parameter_variable_is_fine(self):
        # Only `self.x = Parameter(...)` registers; locals are untouched.
        violations = lint("""
        class Good(Module):
            def __init__(self):
                w = Parameter(np.ones(3))
                super().__init__()
                self.w = w
        """)
        assert violations == []

    def test_noqa_suppresses(self):
        violations = lint("""
        class Odd(Module):
            def __init__(self):
                self.w = Parameter(np.ones(3))  # repro: noqa[R003]
                super().__init__()
        """)
        assert violations == []


class TestParamUnderNoGradR004:
    def test_parameter_inside_no_grad(self):
        violations = lint("""
        def f():
            with no_grad():
                w = Parameter(np.ones(3))
        """)
        assert rule_ids(violations) == ["R004"]

    def test_qualified_no_grad(self):
        violations = lint("""
        def f():
            with nn.no_grad():
                return Parameter(np.ones(3))
        """)
        assert rule_ids(violations) == ["R004"]

    def test_parameter_outside_no_grad_is_fine(self):
        violations = lint("""
        def f():
            w = Parameter(np.ones(3))
            with no_grad():
                out = w.sum()
            return out
        """)
        assert violations == []

    def test_noqa_suppresses(self):
        violations = lint("""
        def f():
            with no_grad():
                w = Parameter(np.ones(3))  # repro: noqa[R004]
        """)
        assert violations == []


class TestFloat64InForwardR005:
    def test_np_float64_in_forward(self):
        violations = lint("""
        import numpy as np
        class Layer:
            def forward(self, x):
                return x.astype(np.float64)
        """)
        assert rule_ids(violations) == ["R005"]
        assert violations[0].severity == "warning"

    def test_dtype_string_in_forward(self):
        violations = lint("""
        class Layer:
            def forward(self, x):
                return x.astype("float64")
        """)
        assert rule_ids(violations) == ["R005"]

    def test_float64_outside_forward_is_fine(self):
        violations = lint("""
        import numpy as np
        def setup(x):
            return x.astype(np.float64)
        """)
        assert violations == []

    def test_default_dtype_in_forward_is_fine(self):
        violations = lint("""
        from repro.nn import DEFAULT_DTYPE
        class Layer:
            def forward(self, x):
                return x.astype(DEFAULT_DTYPE)
        """)
        assert violations == []

    def test_noqa_suppresses(self):
        violations = lint("""
        import numpy as np
        class Layer:
            def forward(self, x):
                return x.astype(np.float64)  # repro: noqa[R005]
        """)
        assert violations == []


class TestTensorBoolContextR006:
    def test_tensor_comparison_in_if(self):
        violations = lint("""
        def f():
            x = Tensor([1.0, 2.0])
            if x > 0:
                pass
        """)
        assert rule_ids(violations) == ["R006"]

    def test_tensor_truthiness_in_while(self):
        violations = lint("""
        def f():
            x = Tensor([1.0])
            while x:
                pass
        """)
        assert rule_ids(violations) == ["R006"]

    def test_annotated_argument_is_tracked(self):
        violations = lint("""
        def f(x: Tensor):
            assert x > 0
        """)
        assert rule_ids(violations) == ["R006"]

    def test_tensor_method_chain_stays_tensor(self):
        violations = lint("""
        def f(x: Tensor):
            if x.sum() > 0:
                pass
        """)
        assert rule_ids(violations) == ["R006"]

    def test_item_collapse_is_fine(self):
        # .item() is not in the tensor-method set: result is a scalar.
        violations = lint("""
        def f(x: Tensor):
            if x.sum().item() > 0:
                pass
        """)
        assert violations == []

    def test_identity_comparison_is_fine(self):
        violations = lint("""
        def f(x: Tensor):
            assert x is not None
        """)
        assert violations == []

    def test_plain_names_not_flagged(self):
        violations = lint("""
        def f(n):
            if n > 0:
                pass
        """)
        assert violations == []

    def test_noqa_suppresses(self):
        violations = lint("""
        def f(x: Tensor):
            if x.sum() > 0:  # repro: noqa[R006] scalar by construction
                pass
        """)
        assert violations == []


class TestPathsAndReporters:
    def test_lint_paths_recurses_and_counts(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "clean.py").write_text("x = 1\n")
        (pkg / "dirty.py").write_text(
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.rand(3)\n"
        )
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert report.counts() == {"R002": 1}
        assert not report.ok

    def test_lint_paths_skips_pycache_and_hidden(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("import numpy as np\n"
                                       "np.random.rand()\n")
        hidden = tmp_path / ".venv"
        hidden.mkdir()
        (hidden / "junk.py").write_text("import numpy as np\n"
                                        "np.random.rand()\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 0
        assert report.ok

    def test_lint_paths_lints_a_tree_under_a_hidden_directory(self, tmp_path):
        # Only parts below the given path are filtered: a checkout under
        # a directory like ~/.cache must still be linted.
        pkg = tmp_path / ".hidden" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text("import numpy as np\n"
                                      "np.random.rand(3)\n")
        report = lint_paths([pkg])
        assert report.files_checked == 1
        assert report.counts() == {"R002": 1}

    def test_format_text_clean_and_dirty(self):
        clean = LintReport(files_checked=3)
        assert "0 violations in 3 file(s)" in format_text(clean)
        dirty = LintReport(violations=[
            Violation(rule="R001", severity="error", path="a.py",
                      line=1, col=0, message="boom"),
        ], files_checked=1)
        text = format_text(dirty)
        assert "a.py:1:0: R001 [error] boom" in text
        assert "R001×1" in text

    def test_format_json_round_trips(self):
        report = LintReport(violations=[
            Violation(rule="R006", severity="error", path="b.py",
                      line=2, col=4, message="ambiguous"),
        ], files_checked=1)
        payload = json.loads(format_json(report))
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"R006": 1}
        assert payload["violations"][0]["line"] == 2


class TestTensorCtorInLoopR007:
    def test_tensor_in_for_loop_in_forward(self):
        violations = lint("""
        def forward(self, xs):
            out = []
            for x in xs:
                out.append(Tensor(x))
            return out
        """)
        assert rule_ids(violations) == ["R007"]

    def test_parameter_in_while_loop_in_forward(self):
        violations = lint("""
        def forward(self, xs):
            while xs:
                p = Parameter(xs.pop())
            return p
        """)
        assert rule_ids(violations) == ["R007"]

    def test_ctor_before_loop_is_fine(self):
        violations = lint("""
        def forward(self, x):
            h = Tensor(np.zeros((2, 3)))
            for t in range(4):
                h = self.cell(x, h)
            return h
        """)
        assert rule_ids(violations) == []

    def test_loop_outside_forward_is_fine(self):
        violations = lint("""
        def build(self, xs):
            return [Tensor(x) for x in xs] or [Tensor(0) for _ in xs]
        """)
        # comprehensions are not For statements, and build() is not forward
        assert rule_ids(violations) == []

    def test_noqa_suppresses(self):
        violations = lint("""
        def forward(self, xs):
            for x in xs:
                y = Tensor(x)  # repro: noqa[R007] one item per call by design
            return y
        """)
        assert rule_ids(violations) == []


class TestNumpyRoundTripR008:
    def test_tensor_wrapping_data_attribute(self):
        violations = lint("""
        def forward(self, x):
            return Tensor(x.data * 2.0)
        """)
        assert rule_ids(violations) == ["R008"]
        assert "x.data" in violations[0].message

    def test_tensor_wrapping_numpy_call(self):
        violations = lint("""
        def forward(self, x):
            return Tensor(np.tanh(x.numpy()))
        """)
        assert rule_ids(violations) == ["R008"]

    def test_keyword_argument_is_scanned(self):
        violations = lint("""
        def forward(self, x):
            return Tensor(data=x.data)
        """)
        assert rule_ids(violations) == ["R008"]

    def test_outside_forward_is_fine(self):
        violations = lint("""
        def snapshot(self, x):
            return Tensor(x.data.copy())
        """)
        assert rule_ids(violations) == []

    def test_plain_wrap_is_fine(self):
        violations = lint("""
        def forward(self, mask):
            return Tensor(np.where(mask, 0.0, -1e9))
        """)
        assert rule_ids(violations) == []

    def test_noqa_suppresses(self):
        violations = lint("""
        def forward(self, x):
            return Tensor(x.data)  # repro: noqa[R008] deliberate detach
        """)
        assert rule_ids(violations) == []


class TestSingleElementConcatR009:
    def test_single_element_concatenate(self):
        violations = lint("""
        def f(x):
            return concatenate([x], axis=-1)
        """)
        assert rule_ids(violations) == ["R009"]

    def test_single_element_stack_tuple(self):
        violations = lint("""
        def f(x):
            return np.stack((x,))
        """)
        assert rule_ids(violations) == ["R009"]

    def test_two_elements_are_fine(self):
        violations = lint("""
        def f(a, b):
            return concatenate([a, b], axis=-1)
        """)
        assert rule_ids(violations) == []

    def test_starred_single_element_is_fine(self):
        violations = lint("""
        def f(parts):
            return concatenate([*parts], axis=-1)
        """)
        assert rule_ids(violations) == []

    def test_dynamic_list_is_fine(self):
        violations = lint("""
        def f(parts):
            return stack(parts, axis=1)
        """)
        assert rule_ids(violations) == []

    def test_noqa_suppresses(self):
        violations = lint("""
        def f(x):
            return stack([x])  # repro: noqa[R009] the edge case under test
        """)
        assert rule_ids(violations) == []


class TestComposedKernelSubgraphR010:
    def test_composed_softmax_in_forward(self):
        violations = lint("""
        class M:
            def forward(self, x):
                e = x.exp()
                return e / e.sum(axis=-1, keepdims=True)
        """)
        assert rule_ids(violations) == ["R010"]

    def test_composed_log_softmax_in_forward(self):
        violations = lint("""
        class M:
            def forward(self, x):
                shifted = x - x.max(axis=-1, keepdims=True)
                e = shifted.exp()
                total = e.sum(axis=-1, keepdims=True)
                return shifted - total.log()
        """)
        assert rule_ids(violations) == ["R010"]

    def test_composed_layer_norm_in_forward(self):
        violations = lint("""
        class M:
            def forward(self, x):
                mean = x.mean(axis=-1, keepdims=True)
                centered = x - mean
                var = (centered * centered).mean(axis=-1, keepdims=True)
                return centered / (var + self.eps).sqrt()
        """)
        assert rule_ids(violations) == ["R010"]

    def test_composed_gru_gates_in_forward(self):
        violations = lint("""
        class Cell:
            def forward(self, x, h):
                r = (x @ self.w_r + h @ self.u_r).sigmoid()
                z = (x @ self.w_z + h @ self.u_z).sigmoid()
                c = (x @ self.w_h + (r * h) @ self.u_h).tanh()
                return (1.0 - z) * h + z * c
        """)
        assert rule_ids(violations) == ["R010"]

    def test_only_forward_methods_checked(self):
        violations = lint("""
        def reference_softmax(x):
            e = x.exp()
            return e / e.sum(axis=-1, keepdims=True)
        """)
        assert rule_ids(violations) == []

    def test_np_sqrt_call_is_fine(self):
        # np.sqrt(var) takes an argument; only the no-arg tensor-method
        # spelling marks an autograd subgraph.
        violations = lint("""
        class M:
            def forward(self, x):
                mean = x.mean(axis=-1, keepdims=True)
                return x / np.sqrt(mean)
        """)
        assert rule_ids(violations) == []

    def test_single_sigmoid_is_fine(self):
        violations = lint("""
        class M:
            def forward(self, x, h):
                gate = (x @ self.w).sigmoid()
                return gate * (x @ self.u).tanh()
        """)
        assert rule_ids(violations) == []

    def test_noqa_suppresses(self):
        violations = lint("""
        class M:
            def forward(self, x):
                e = x.exp()
                return e / e.sum(axis=-1)  # repro: noqa[R010] reference impl
        """)
        assert rule_ids(violations) == []

