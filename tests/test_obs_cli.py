"""CLI-level observability tests: run --health-gate and repro obs.

These drive ``repro.cli.main`` end-to-end on the tiny generated
srprs/dbp_yg dataset with the fast jape-stru baseline (~0.5s per fit):
a clean gated run must exit 0, a NaN-poisoned run must exit 1 with a
provenance-bearing alert, and two seeded reruns must diff bitwise-zero.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest

from repro.cli import main

DATASET = "srprs/dbp_yg"
METHOD = "jape-stru"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestHealthGate:
    @pytest.fixture(scope="class")
    def two_clean_runs(self, tmp_path_factory):
        runs_dir = tmp_path_factory.mktemp("runs")
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(
                ["run", "--dataset", DATASET, "--method", METHOD,
                 "--health-gate", "--runs-dir", str(runs_dir)])
            outputs.append((code, out, err))
        return runs_dir, outputs

    def test_clean_gated_run_exits_zero(self, two_clean_runs):
        _, outputs = two_clean_runs
        for code, out, err in outputs:
            assert code == 0, err
            assert "health gate: FAIL" not in err
            assert "0 fail alerts" in out
            assert "telemetry stream:" in out

    def test_record_carries_telemetry_digest(self, two_clean_runs):
        runs_dir, _ = two_clean_runs
        records = sorted(p for p in runs_dir.glob("*.json")
                         if not p.name.endswith("-trace.json"))
        assert len(records) == 2
        for path in records:
            data = json.loads(path.read_text())
            telemetry = data["telemetry"]
            stream = path.with_name(telemetry["stream"])
            assert stream.exists()
            assert telemetry["events"] > 0
            assert telemetry["health"]["alerts_fail"] == 0
            # The stream shares the record's stem.
            assert stream.name == path.stem + "-stream.jsonl"

    def test_nan_injection_trips_the_gate(self, tmp_path, monkeypatch):
        """A poisoned fit must exit nonzero with a provenance-bearing
        fail alert (the seeded NaN-injection acceptance criterion)."""
        from repro.baselines.transe import TransEAligner
        original = TransEAligner._normalize_entities

        def poison(self):
            original(self)
            self._model.entities.weight.data[:] = np.nan  # repro: noqa[R001] deliberate NaN poison to trip the gate

        monkeypatch.setattr(TransEAligner, "_normalize_entities", poison)
        code, out, err = run_cli(
            ["run", "--dataset", DATASET, "--method", METHOD,
             "--health-gate", "--runs-dir", str(tmp_path)])
        assert code == 1
        assert "health gate: FAIL" in err
        assert "[FAIL] loss.nonfinite" in out
        assert "phase=transe" in out      # alert provenance: where it fired
        assert "metric=loss" in out
        # The record still lands, with the alert in its telemetry digest.
        (record,) = (p for p in tmp_path.glob("*.json")
                     if not p.name.endswith("-trace.json"))
        data = json.loads(record.read_text())
        health = data["telemetry"]["health"]
        assert health["alerts_fail"] >= 1
        assert any(a["rule"] == "loss.nonfinite" for a in health["alerts"])

    def test_rules_file_without_gate_reports_but_exits_zero(self, tmp_path):
        rules = tmp_path / "rules.toml"
        rules.write_text('rules = ["loss.above(value=0, severity=warn)"]\n')
        code, out, err = run_cli(
            ["run", "--dataset", DATASET, "--method", METHOD,
             "--health-rules", str(rules), "--runs-dir",
             str(tmp_path / "runs")])
        assert code == 0, err
        assert "warn" in out  # the always-true rule fired as a warning

    def test_bad_rules_file_exits_two(self, tmp_path):
        rules = tmp_path / "bad.toml"
        rules.write_text('rules = ["loss.explode"]\n')
        code, _, err = run_cli(
            ["run", "--dataset", DATASET, "--method", METHOD,
             "--health-rules", str(rules), "--runs-dir",
             str(tmp_path / "runs")])
        assert code == 2
        assert "cannot load health rules" in err


class TestObsCommands:
    """repro obs list/diff/compare/watch/prune over two seeded runs."""

    @pytest.fixture(scope="class")
    def runs_dir(self, tmp_path_factory):
        runs_dir = tmp_path_factory.mktemp("runs")
        for _ in range(2):
            code, _, err = run_cli(
                ["run", "--dataset", DATASET, "--method", METHOD,
                 "--runs-dir", str(runs_dir)])
            assert code == 0, err
        return runs_dir

    def test_list_shows_both_runs(self, runs_dir):
        code, out, _ = run_cli(["obs", "list", "--runs-dir", str(runs_dir)])
        assert code == 0
        rows = [l for l in out.splitlines() if METHOD in l]
        assert len(rows) == 2

    def test_each_run_leaves_a_record_and_a_stream(self, runs_dir):
        records = sorted(p.name[:-len(".json")]
                         for p in runs_dir.glob("*.json"))
        assert len(records) == 2
        expected = {stem + suffix for stem in records
                    for suffix in (".json", "-stream.jsonl")}
        assert {p.name for p in runs_dir.iterdir()} == expected

    def test_diff_shows_the_loss_trajectory(self, runs_dir):
        code, out, _ = run_cli(["obs", "diff", "--runs-dir", str(runs_dir)])
        assert code == 0
        (row,) = [l.split() for l in out.splitlines()
                  if l.startswith("loss[transe]")]
        assert row[2] == "0"  # max|a-b|

    def test_diff_of_seeded_reruns_is_bitwise_zero(self, runs_dir):
        code, out, _ = run_cli(["obs", "diff", "--runs-dir", str(runs_dir)])
        assert code == 0
        assert "bitwise-identical" in out
        code, out, _ = run_cli(["obs", "diff", "--format", "json",
                                "--runs-dir", str(runs_dir)])
        assert code == 0
        payload = json.loads(out)
        assert payload["results_identical"] is True
        assert all(d["delta"] == 0.0 for d in payload["results"])
        loss = [t for t in payload["trajectories"] if t["metric"] == "loss"]
        assert loss and all(t["max_abs_divergence"] == 0.0 for t in loss)

    def test_diff_rejects_wrong_arity(self, runs_dir):
        code, _, err = run_cli(["obs", "diff", "a", "b", "c",
                                "--runs-dir", str(runs_dir)])
        assert code == 2
        assert "exactly two" in err

    def test_diff_needs_two_records(self, tmp_path):
        code, _, err = run_cli(["obs", "diff", "--runs-dir",
                                str(tmp_path / "empty")])
        assert code == 1
        assert "need two run records" in err

    def test_compare_table(self, runs_dir):
        code, out, _ = run_cli(["obs", "compare",
                                "--runs-dir", str(runs_dir)])
        assert code == 0
        assert "H@1" in out
        assert out.count(METHOD) >= 2

    def test_watch_once_prints_final_status(self, runs_dir):
        code, out, _ = run_cli(["obs", "watch", "--once",
                                "--runs-dir", str(runs_dir)])
        assert code == 0
        assert "[ended]" in out
        assert "loss=" in out

    def test_watch_without_streams(self, tmp_path):
        code, _, err = run_cli(["obs", "watch", "--once",
                                "--runs-dir", str(tmp_path / "empty")])
        assert code == 1
        assert "no telemetry stream" in err

    def test_rules_action_documents_checks(self, runs_dir):
        code, out, _ = run_cli(["obs", "rules"])
        assert code == 0
        assert "nonfinite" in out and "spike" in out and "drop" in out
        assert "loss.nonfinite" in out  # defaults listed

    def test_prune_caps_retained_records(self, runs_dir):
        # Last: prunes the shared fixture directory down to one record.
        code, out, _ = run_cli(["obs", "prune", "--keep", "1",
                                "--runs-dir", str(runs_dir)])
        assert code == 0
        assert "pruned" in out
        records = [p for p in runs_dir.glob("*.json")
                   if not p.name.endswith("-trace.json")]
        assert len(records) == 1
        streams = list(runs_dir.glob("*-stream.jsonl"))
        assert len(streams) == 1

    def test_prune_requires_keep(self, runs_dir):
        code, _, err = run_cli(["obs", "prune",
                                "--runs-dir", str(runs_dir)])
        assert code == 2
        assert "--keep" in err
