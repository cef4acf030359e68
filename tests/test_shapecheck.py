"""The shape-check harness: probes, S-findings, reporters, config gate."""

import json

import numpy as np
import pytest

from repro.analysis.shapes.abstract import (
    AbstractShapeError,
    SymbolicTrace,
)
from repro.analysis.shapes.dims import ConstraintError
from repro.analysis.shapes.interpreter import (
    S_CODES,
    ShapeCheckReport,
    ShapeFinding,
    check_method_shapes,
    format_json,
    format_text,
    shape_check,
)
from repro.analysis.shapes.probes import PROBES, ProbeContext
from repro.analysis.shapes.spec import shape_spec, verify_module_calls
from repro.core.config import SDEAConfig
from repro.core.joint import JointRepresentation, final_embedding
from repro.nn import Module


# ---------------------------------------------------------------------- #
# Acceptance (i): a deliberately mis-sized joint MLP is caught statically
# ---------------------------------------------------------------------- #
class TestMisSizedJointMLP:
    def test_abstract_execution_rejects_wrong_relation_width(self):
        ctx = ProbeContext()
        rng = np.random.default_rng(0)
        # Joint head wired for H_a + H_r, but the relation module it is
        # paired with produces width 8 — the classic config wiring bug.
        joint = JointRepresentation(int(ctx.H_a), int(ctx.H_r), 16, rng)
        h_a = ctx.input(ctx.B, ctx.H_a)
        h_r_wrong = ctx.input(ctx.B, 8)
        trace = SymbolicTrace(ctx.env)
        with pytest.raises(AbstractShapeError) as excinfo:
            with trace, verify_module_calls(trace):
                joint(h_a, h_r_wrong)
        assert "matmul inner dimensions differ" in str(excinfo.value)

    def test_harness_reports_it_as_s001(self, monkeypatch):
        def broken_probe(ctx):
            rng = np.random.default_rng(0)
            joint = JointRepresentation(int(ctx.H_a), int(ctx.H_r), 16, rng)
            joint(ctx.input(ctx.B, ctx.H_a), ctx.input(ctx.B, 8))

        monkeypatch.setitem(PROBES, "fixture-missized", broken_probe)
        report = check_method_shapes("fixture-missized")
        assert not report.ok
        assert [f.code for f in report.findings] == ["S001"]
        assert report.findings[0].severity == "error"
        assert "matmul inner dimensions differ" in report.findings[0].message

    def test_correctly_sized_joint_is_clean(self, monkeypatch):
        def good_probe(ctx):
            rng = np.random.default_rng(0)
            joint = JointRepresentation(
                int(ctx.H_a), int(ctx.H_r), int(ctx.H_m), rng)
            h_a = ctx.input(ctx.B, ctx.H_a)
            h_r = ctx.input(ctx.B, ctx.H_r)
            h_m = joint(h_a, h_r)
            ctx.expect(h_m, ctx.B, ctx.H_m)
            ent = final_embedding(h_r, h_a, h_m)
            ctx.expect(ent, ctx.B, ctx.H_r + ctx.H_a + ctx.H_m)

        monkeypatch.setitem(PROBES, "fixture-good", good_probe)
        report = check_method_shapes("fixture-good")
        assert report.ok, [f.format() for f in report.findings]

    def test_missized_config_dies_at_construction(self):
        with pytest.raises(ConstraintError) as excinfo:
            SDEAConfig(bert_dim=160, bert_heads=3)
        message = str(excinfo.value)
        assert "invalid SDEAConfig" in message
        assert "does not divide" in message


# ---------------------------------------------------------------------- #
# Acceptance (ii): an injected silent size-1 broadcast is caught
# ---------------------------------------------------------------------- #
class LostKeepdimsHead(Module):
    """Fixture: centering that drops the batch axis, then re-broadcasts.

    ``x - x.mean(axis=0, keepdims=True)`` is legal numpy — the ``(1, H)``
    mean silently stretches back over the guarded batch axis, which is
    exactly the bug class S002 exists for.
    """

    def forward(self, x):
        return x - x.mean(axis=0, keepdims=True)


class TestSilentBroadcastFixture:
    def test_harness_reports_it_as_s002(self, monkeypatch):
        def probe_fn(ctx):
            LostKeepdimsHead()(ctx.input(ctx.B, ctx.H_a))

        monkeypatch.setitem(PROBES, "fixture-stretch", probe_fn)
        report = check_method_shapes("fixture-stretch")
        assert [f.code for f in report.findings] == ["S002"]
        assert "size-1 axis silently broadcast to B" in \
            report.findings[0].message

    def test_centering_over_features_is_clean(self, monkeypatch):
        def probe_fn(ctx):
            x = ctx.input(ctx.B, ctx.H_a)
            x - x.mean(axis=1, keepdims=True)  # (B, 1): stretches H, not B

        monkeypatch.setitem(PROBES, "fixture-feature-center", probe_fn)
        assert check_method_shapes("fixture-feature-center").ok


# ---------------------------------------------------------------------- #
# The remaining finding codes
# ---------------------------------------------------------------------- #
class WrongWidthHead(Module):
    """Fixture: spec promises out_features but forward returns the input."""

    def __init__(self):
        super().__init__()
        self.in_features = 4
        self.out_features = 8

    @shape_spec(x="* in_features", returns="* out_features")
    def forward(self, x):
        return x


class TestOtherFindings:
    def test_spec_violation_is_s005(self, monkeypatch):
        def probe_fn(ctx):
            WrongWidthHead()(ctx.input(ctx.B, 4))

        monkeypatch.setitem(PROBES, "fixture-spec", probe_fn)
        report = check_method_shapes("fixture-spec")
        assert [f.code for f in report.findings] == ["S005"]
        assert "WrongWidthHead.forward return" in report.findings[0].message
        assert "expected 8" in report.findings[0].message

    def test_dropped_grad_is_s004(self, monkeypatch):
        def probe_fn(ctx):
            loss = ctx.input(requires_grad=False)
            ctx.expect_grad(loss)

        monkeypatch.setitem(PROBES, "fixture-grad", probe_fn)
        report = check_method_shapes("fixture-grad")
        assert [f.code for f in report.findings] == ["S004"]

    def test_dtype_deviation_is_s003_warning(self, monkeypatch):
        def probe_fn(ctx):
            ctx.input(ctx.B, dtype=np.float64) * 2.0

        monkeypatch.setitem(PROBES, "fixture-dtype", probe_fn)
        report = check_method_shapes("fixture-dtype")
        assert [(f.code, f.severity) for f in report.findings] == \
            [("S003", "warning")]

    def test_crashing_probe_is_s006(self, monkeypatch):
        def probe_fn(ctx):
            raise KeyError("missing table")

        monkeypatch.setitem(PROBES, "fixture-crash", probe_fn)
        report = check_method_shapes("fixture-crash")
        assert [f.code for f in report.findings] == ["S006"]
        assert "KeyError" in report.findings[0].message

    def test_unknown_method_is_s006(self):
        report = check_method_shapes("no-such-method")
        assert [f.code for f in report.findings] == ["S006"]
        assert "no shape probe registered" in report.findings[0].message

    def test_expect_records_s001(self, monkeypatch):
        def probe_fn(ctx):
            ctx.expect(ctx.input(ctx.B, ctx.H_a), ctx.B, ctx.H_r)

        monkeypatch.setitem(PROBES, "fixture-expect", probe_fn)
        report = check_method_shapes("fixture-expect")
        assert [f.code for f in report.findings] == ["S001"]
        assert "expected output shape (B, H_r)" in report.findings[0].message


# ---------------------------------------------------------------------- #
# Filtering and reporters
# ---------------------------------------------------------------------- #
def _two_kind_probe(ctx):
    x = ctx.input(ctx.B, ctx.H_a)
    x + x.mean(axis=0, keepdims=True)          # S002 (stretch over B)
    ctx.input(ctx.B, dtype=np.float64).exp()   # S003 (one off-dtype op)


class TestFilteringAndReporters:
    def test_select_restricts(self, monkeypatch):
        monkeypatch.setitem(PROBES, "fixture-two", _two_kind_probe)
        report = check_method_shapes("fixture-two")
        assert sorted(f.code for f in report.findings) == ["S002", "S003"]
        only = check_method_shapes("fixture-two", select=["S002"])
        assert [f.code for f in only.findings] == ["S002"]

    def test_ignore_subtracts_case_insensitively(self, monkeypatch):
        monkeypatch.setitem(PROBES, "fixture-two", _two_kind_probe)
        report = check_method_shapes("fixture-two", ignore=["s003"])
        assert [f.code for f in report.findings] == ["S002"]

    def test_shape_check_over_explicit_methods(self, monkeypatch):
        monkeypatch.setitem(PROBES, "fixture-two", _two_kind_probe)
        report = shape_check(["fixture-two", "no-such-method"])
        assert len(report.reports) == 2
        assert not report.ok
        assert report.counts() == {"S002": 1, "S003": 1, "S006": 1}

    def test_format_text(self, monkeypatch):
        monkeypatch.setitem(PROBES, "fixture-two", _two_kind_probe)
        text = format_text(shape_check(["fixture-two"]))
        assert "== fixture-two == 2 finding(s)" in text
        assert "S002 [error]" in text
        assert "S003 [warning]" in text
        assert "2 finding(s) across 1 method(s): S002×1, S003×1" in text

    def test_format_text_clean(self, monkeypatch):
        monkeypatch.setitem(PROBES, "fixture-good", lambda ctx: None)
        text = format_text(shape_check(["fixture-good"]))
        assert "== fixture-good == ok" in text
        assert "0 findings across 1 method(s)" in text

    def test_format_json_round_trips(self, monkeypatch):
        monkeypatch.setitem(PROBES, "fixture-two", _two_kind_probe)
        payload = json.loads(format_json(shape_check(["fixture-two"])))
        assert payload["methods_checked"] == 1
        assert payload["counts"] == {"S002": 1, "S003": 1}
        (entry,) = payload["methods"]
        assert entry["method"] == "fixture-two"
        assert entry["ok"] is False
        codes = {f["code"] for f in entry["findings"]}
        assert codes == {"S002", "S003"}

    def test_finding_format_line(self):
        finding = ShapeFinding("S001", "error", "sdea", "boom")
        assert finding.format() == "sdea: S001 [error] boom"

    def test_s_codes_cover_every_emitted_code(self):
        assert set(S_CODES) == {"S001", "S002", "S003", "S004", "S005",
                                "S006"}


# ---------------------------------------------------------------------- #
# Fail-fast config validation (satellite)
# ---------------------------------------------------------------------- #
class TestConfigValidation:
    def test_default_config_is_valid(self):
        SDEAConfig()

    def test_collects_multiple_violations_at_once(self):
        with pytest.raises(ConstraintError) as excinfo:
            SDEAConfig(embed_dim=0, dropout=1.5, margin=-1.0)
        message = str(excinfo.value)
        assert "embed_dim" in message
        assert "dropout" in message
        assert "margin" in message

    def test_bad_aggregator_rejected(self):
        with pytest.raises(ConstraintError):
            SDEAConfig(relation_aggregator="transformer")

    def test_bad_pooling_rejected(self):
        with pytest.raises(ConstraintError):
            SDEAConfig(pooling="sum")

    def test_numeric_dim_only_checked_when_channel_on(self):
        SDEAConfig(numeric_channel=False, numeric_dim=0)
        with pytest.raises(ConstraintError):
            SDEAConfig(numeric_channel=True, numeric_dim=0)

    def test_entity_dim_matches_the_symbolic_contract(self):
        config = SDEAConfig()
        assert config.entity_dim() == \
            config.relation_hidden + 2 * config.embed_dim
        assert SDEAConfig(use_relation=False).entity_dim() == \
            SDEAConfig().embed_dim
