"""Unit tests for the declarative health-rule engine (repro.obs.health)."""

from __future__ import annotations

import statistics
import time

import pytest

from repro.obs.health import (
    DEFAULT_RULES,
    Alert,
    HealthEngine,
    RuleError,
    format_rule_table,
    load_rules_toml,
    parse_rule,
    parse_rules,
)
from repro.obs.metrics import Registry


def epoch(phase="attr", n=0, **fields):
    return {"event": "epoch", "phase": phase, "epoch": n, **fields}


class TestParsing:
    def test_bare_rule(self):
        rule = parse_rule("loss.nonfinite")
        assert (rule.metric, rule.check) == ("loss", "nonfinite")
        assert rule.severity == "fail"
        assert rule.params == ()

    def test_rule_with_params(self):
        rule = parse_rule("grad_norm.spike(factor=10)")
        assert rule.param("factor") == 10
        assert rule.severity == "warn"

    def test_metric_names_may_contain_at_and_dots(self):
        rule = parse_rule("hits@1.drop(vs=baseline, abs=0.02)")
        assert rule.metric == "hits@1"
        assert rule.param("vs") == "baseline"
        assert rule.param("abs") == 0.02

    def test_severity_override(self):
        rule = parse_rule("loss.above(value=5.0, severity=fail)")
        assert rule.severity == "fail"
        assert rule.param("severity") is None  # not a check param

    def test_comparison_sugar_records_direction(self):
        rule = parse_rule("epoch_seconds.trend(slope>0.05)")
        assert rule.param("slope") == 0.05
        assert rule.param("slope_op") == ">"
        rule = parse_rule("loss.trend(slope<0)")
        assert rule.param("slope_op") == "<"

    @pytest.mark.parametrize("bad", [
        "loss",                       # no check
        "loss.explode",               # unknown check
        "loss.spike(factor)",         # malformed argument
        "loss.above(value=1, severity=maybe)",
        "",
    ])
    def test_bad_rules_raise(self, bad):
        with pytest.raises(RuleError):
            parse_rule(bad)

    def test_parse_rules_dedupes(self):
        rules = parse_rules(["loss.nonfinite", "loss.nonfinite",
                             "grad_norm.nonfinite"])
        assert [r.text for r in rules] == ["loss.nonfinite",
                                           "grad_norm.nonfinite"]

    def test_default_rules_parse(self):
        assert len(parse_rules(DEFAULT_RULES)) == len(DEFAULT_RULES)

    def test_toml_loading(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(
            'rules = [\n'
            '  "loss.nonfinite",\n'
            '  "hits@1.drop(vs=baseline, abs=0.02, severity=fail)",\n'
            ']\n'
        )
        rules = load_rules_toml(path)
        assert [r.metric for r in rules] == ["loss", "hits@1"]

    def test_toml_rejects_non_string_rules(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("rules = [1, 2]\n")
        with pytest.raises(RuleError):
            load_rules_toml(path)

    def test_rule_table_documents_every_check(self):
        table = format_rule_table()
        for check in ("nonfinite", "spike", "drop", "trend", "above",
                      "below"):
            assert check in table


class TestChecks:
    def run_events(self, rules, events, baseline=None, registry=None):
        engine = HealthEngine(parse_rules(rules), baseline=baseline,
                              registry=registry or Registry())
        fired = []
        for event in events:
            fired += engine.observe(event)
        return engine, fired

    def test_nonfinite_fires_fail_with_provenance(self):
        _, fired = self.run_events(
            ["loss.nonfinite"],
            [epoch(n=0, loss=1.0), epoch(n=1, loss=float("nan"))],
        )
        (alert,) = fired
        assert alert.severity == "fail"
        assert "not finite" in alert.message
        assert "phase=attr" in alert.provenance
        assert "epoch=1" in alert.provenance
        assert "metric=loss" in alert.provenance

    def test_nonfinite_fires_once_per_site(self):
        engine, fired = self.run_events(
            ["loss.nonfinite"],
            [epoch(n=i, loss=float("nan")) for i in range(5)],
        )
        assert len(fired) == 1
        assert len(engine.alerts) == 1

    def test_separate_phases_fire_separately(self):
        _, fired = self.run_events(
            ["loss.nonfinite"],
            [epoch(phase="attr", n=0, loss=float("nan")),
             epoch(phase="rel", n=0, loss=float("inf"))],
        )
        assert len(fired) == 2

    def test_spike_needs_history_and_positive_median(self):
        history = [epoch(n=i, grad_norm=1.0) for i in range(3)]
        _, fired = self.run_events(
            ["grad_norm.spike(factor=10)"],
            history + [epoch(n=3, grad_norm=50.0)],
        )
        (alert,) = fired
        assert alert.severity == "warn"
        assert "running median" in alert.message
        # Too little history: never fires.
        _, fired = self.run_events(
            ["grad_norm.spike(factor=10)"],
            [epoch(n=0, grad_norm=1.0), epoch(n=1, grad_norm=50.0)],
        )
        assert fired == []

    def test_drop_vs_baseline(self):
        _, fired = self.run_events(
            ["hits@1.drop(vs=baseline, abs=0.02)"],
            [{"event": "eval", "hits_at_1": 0.40}],
            baseline={"hits@1": 0.50},
        )
        (alert,) = fired
        assert alert.severity == "fail"
        assert "baseline" in alert.message
        # Within tolerance: silent.
        _, fired = self.run_events(
            ["hits@1.drop(vs=baseline, abs=0.02)"],
            [{"event": "eval", "hits_at_1": 0.49}],
            baseline={"hits@1": 0.50},
        )
        assert fired == []

    def test_drop_without_baseline_is_silent(self):
        _, fired = self.run_events(
            ["hits@1.drop(vs=baseline, abs=0.02)"],
            [{"event": "eval", "hits_at_1": 0.40}],
        )
        assert fired == []

    def test_drop_vs_best_tracks_in_run_peak(self):
        events = [
            {"event": "validation", "phase": "attr", "epoch": i,
             "hits1": h}
            for i, h in enumerate([0.30, 0.45, 0.44, 0.20])
        ]
        _, fired = self.run_events(
            ["hits@1.drop(vs=best, abs=0.1)"], events)
        (alert,) = fired
        assert alert.epoch == 3
        assert "best" in alert.message

    def test_relative_drop(self):
        _, fired = self.run_events(
            ["mrr.drop(vs=baseline, rel=0.1)"],
            [{"event": "eval", "mrr": 0.40}],
            baseline={"mrr": 0.50},
        )
        (alert,) = fired
        assert "%" in alert.message

    def test_trend_detects_slowdown(self):
        events = [epoch(n=i, seconds=0.1 + 0.2 * i) for i in range(8)]
        _, fired = self.run_events(
            ["epoch_seconds.trend(slope>0.05, window=8)"], events)
        (alert,) = fired
        assert "slope" in alert.message
        # Flat wall time: silent.
        events = [epoch(n=i, seconds=0.1) for i in range(8)]
        _, fired = self.run_events(
            ["epoch_seconds.trend(slope>0.05, window=8)"], events)
        assert fired == []

    def test_above_and_below(self):
        _, fired = self.run_events(
            ["loss.above(value=5)"], [epoch(n=0, loss=6.0)])
        assert len(fired) == 1
        _, fired = self.run_events(
            ["lr.below(value=1e-6)"], [epoch(n=0, lr=1e-7)])
        assert len(fired) == 1

    def test_unlisted_metric_falls_back_to_field_name(self):
        _, fired = self.run_events(
            ["temperature.above(value=100)"],
            [{"event": "custom", "temperature": 120.0}],
        )
        assert len(fired) == 1

    def test_alerts_counted_in_registry(self):
        registry = Registry()
        self.run_events(["loss.nonfinite"],
                        [epoch(n=0, loss=float("nan"))],
                        registry=registry)
        assert registry.counter("health.alerts").value(
            severity="fail", rule="loss.nonfinite") == 1

    def test_engine_summary_and_failed(self):
        engine, _ = self.run_events(
            ["loss.nonfinite", "lr.below(value=1e-6)"],
            [epoch(n=0, loss=float("nan"), lr=1e-7)],
        )
        assert engine.failed
        summary = engine.summary()
        assert summary["alerts_fail"] == 1
        assert summary["alerts_warn"] == 1
        assert len(summary["alerts"]) == 2
        assert summary["rules"] == ["loss.nonfinite", "lr.below(value=1e-6)"]

    def test_note_anomaly_carries_op_provenance(self):
        from repro.analysis.anomaly import AnomalyError, OpProvenance
        provenance = OpProvenance(
            op="matmul", stack='  File "train.py", line 10, in step')
        engine = HealthEngine([], registry=Registry())
        alert = engine.note_anomaly(
            AnomalyError("NaN in matmul output", provenance=provenance,
                         phase="forward"))
        assert alert.severity == "fail"
        assert engine.failed
        assert "matmul" in alert.provenance
        assert engine.alert_counts() == {"alerts_warn": 0, "alerts_fail": 1}


class TestAlertFormatting:
    def test_format_mentions_severity_rule_and_site(self):
        alert = Alert(rule="loss.nonfinite", severity="fail", metric="loss",
                      value=None, message="loss = nan is not finite",
                      provenance="phase=attr epoch=3")
        text = alert.format()
        assert "[FAIL]" in text
        assert "loss.nonfinite" in text
        assert "phase=attr epoch=3" in text

    def test_to_fields_omits_empty_optionals(self):
        alert = Alert(rule="r", severity="warn", metric="m", value=None,
                      message="msg")
        fields = alert.to_fields()
        assert "value" not in fields
        assert "provenance" not in fields
        assert "epoch" not in fields


class TestOverheadGuard:
    """Telemetry + rule evaluation must stay within 5% of a bare fit.

    The workload is a real TransE fit, so the guard measures the actual
    per-epoch emit + rule-evaluation path, not a synthetic loop.  Every
    ``telemetry.emit`` call is timed where it runs, and the time spent
    in them is compared with the rest of the same fit.  Both come from
    one fit, so a scheduler spike on a shared host moves them together;
    comparing the wall times of separate plain and streamed fits read
    anywhere from -18% to +10% for a cost of about 0.5% on a 2-core
    host.  Medians over seven fits absorb a spike inside one emit.
    """

    def test_health_rule_overhead_below_5pct(self, tiny_pair, tmp_path,
                                              monkeypatch):
        from repro.baselines.transe import TransEAligner, TransEConfig
        from repro.obs import telemetry
        from repro.obs.telemetry import TelemetryStream, use_stream

        split = tiny_pair.split(seed=3)
        config = TransEConfig(dim=32, epochs=40, seed=11)
        engine = HealthEngine(parse_rules(DEFAULT_RULES),
                              registry=Registry())
        stream = TelemetryStream(tmp_path / "overhead-stream.jsonl",
                                 engine=engine)
        emit = telemetry.emit
        spent: list = []

        def timed_emit(event, **fields):
            start = time.perf_counter()
            emit(event, **fields)
            spent.append(time.perf_counter() - start)

        monkeypatch.setattr(telemetry, "emit", timed_emit)
        overheads = []
        with use_stream(stream):
            for _ in range(8):  # the first fit warms caches
                spent.clear()
                start = time.perf_counter()
                TransEAligner(TransEConfig(**vars(config))).fit(
                    tiny_pair, split)
                total = time.perf_counter() - start
                overheads.append(sum(spent) / (total - sum(spent)))
        stream.close()
        assert len(spent) == config.epochs  # each epoch took the timed path
        assert engine.rules and stream.events_written > 8 * config.epochs
        overhead = statistics.median(overheads[1:])
        assert overhead <= 0.05, (
            f"telemetry + health overhead {overhead:.1%} exceeds 5%: "
            f"{[f'{r:.1%}' for r in overheads[1:]]}")
