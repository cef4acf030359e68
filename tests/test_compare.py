"""Unit tests for cross-run analytics (repro.obs.compare).

The golden markdown diff is pinned under ``tests/data/diff_golden.md``;
record run ids embed local time, so the fixtures pin ``TZ=UTC`` to keep
the golden stable across machines.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.obs.compare import (
    baseline_metrics,
    compare_records,
    diff_records,
    format_compare_table,
    format_diff_json,
    format_diff_markdown,
    format_diff_text,
    format_run_list,
    list_runs,
    prune_runs,
    summarize_record,
)
from repro.obs.runrecord import (
    SCHEMA_VERSION,
    STREAM_SUFFIX,
    RunRecord,
    claim_stem,
    format_record,
    load_record,
    write_record,
)

GOLDEN = Path(__file__).parent / "data" / "diff_golden.md"


@pytest.fixture()
def utc(monkeypatch):
    """Pin run ids (strftime over localtime) to UTC for golden files."""
    monkeypatch.setenv("TZ", "UTC")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


def write_stream(path: Path, losses, seconds, hits1=None) -> None:
    lines = []
    for i, (loss, secs) in enumerate(zip(losses, seconds)):
        lines.append({"ts": float(i), "schema_version": 1, "event": "epoch",
                      "phase": "transe", "epoch": i, "loss": loss,
                      "seconds": secs})
    for i, h in enumerate(hits1 or []):
        lines.append({"ts": 100.0 + i, "schema_version": 1,
                      "event": "validation", "phase": "transe",
                      "epoch": i, "hits1": h})
    lines.append({"ts": 200.0, "schema_version": 1, "event": "stream_end",
                  "events": len(lines)})
    path.write_text("".join(json.dumps(l) + "\n" for l in lines))


def make_record(runs_dir: Path, timestamp: float, *, method="jape-stru",
                dataset="tiny", results=None, timing=None, losses=None,
                seconds=None, hits1=None, health=None,
                peak_bytes=0, version=None) -> Path:
    record = RunRecord(
        method=method, dataset=dataset, timestamp=timestamp,
        config={"dim": 64, "seed": 11}, seed=11, version=version or {},
        results=results or {"H@1": 40.0, "H@10": 70.0, "MRR": 0.5,
                            "fit(s)": 1.0, "eval(s)": 0.1},
        timing=timing or {"fit_seconds": 1.0, "eval_seconds": 0.1,
                          "total_seconds": 1.1},
        profile={"totals": {"ops": 12, "wall_seconds": 1.0,
                            "flops_estimate": 2.0e6,
                            "peak_tensor_bytes": peak_bytes}}
        if peak_bytes else {},
    )
    if losses is None:
        return write_record(record, runs_dir)
    # As the runner does: claim the stem, stream, then write the record.
    stem = claim_stem(runs_dir, method, dataset, timestamp)
    stream = runs_dir / (stem + STREAM_SUFFIX)
    write_stream(stream, losses, seconds or [0.01] * len(losses), hits1)
    record.telemetry = {"stream": stream.name, "stream_schema_version": 1,
                        "events": len(losses)}
    if health is not None:
        record.telemetry["health"] = health
    return write_record(record, runs_dir, stem=stem)


class TestSummaries:
    def test_summary_reads_results_health_and_stream(self, tmp_path, utc):
        health = {"rules": ["loss.nonfinite"], "alerts_warn": 1,
                  "alerts_fail": 2, "alerts": []}
        path = make_record(tmp_path, 1700000000.0, losses=[1.0, 0.5],
                           health=health, peak_bytes=2048)
        summary = summarize_record(path)
        assert summary.method == "jape-stru"
        assert summary.results["H@1"] == 40.0
        assert summary.alerts_warn == 1
        assert summary.alerts_fail == 2
        assert summary.peak_tensor_bytes == 2048
        assert summary.stream is not None and summary.stream.exists()
        assert summary.warnings == []

    def test_newer_schema_version_warns_not_crashes(self, tmp_path, utc):
        path = make_record(tmp_path, 1700000000.0)
        data = json.loads(path.read_text())
        data["schema_version"] = SCHEMA_VERSION + 7
        path.write_text(json.dumps(data))
        summary = summarize_record(path)
        assert any("newer" in w for w in summary.warnings)
        rows = list_runs(tmp_path)
        assert len(rows) == 1  # still listed

    def test_missing_stream_warns(self, tmp_path, utc):
        path = make_record(tmp_path, 1700000000.0, losses=[1.0])
        stream = summarize_record(path).stream
        stream.unlink()
        summary = summarize_record(path)
        assert summary.stream is None
        assert any("missing" in w for w in summary.warnings)

    def test_unreadable_record_becomes_placeholder_row(self, tmp_path, utc):
        make_record(tmp_path, 1700000000.0)
        (tmp_path / "zz-corrupt.json").write_text("{not json")
        rows = list_runs(tmp_path)
        assert len(rows) == 2
        corrupt = rows[-1]
        assert corrupt.method == "?"
        assert any("unreadable" in w for w in corrupt.warnings)
        # And the table renderer survives the placeholder.
        assert "unreadable" in format_run_list(rows)


class TestRoundTrip:
    """Record -> disk -> load -> diff -> report, digests intact."""

    def test_profile_and_telemetry_digests_survive(self, tmp_path, utc):
        health = {"rules": ["loss.nonfinite"], "alerts_warn": 0,
                  "alerts_fail": 1,
                  "alerts": [{"rule": "loss.nonfinite", "severity": "fail",
                              "message": "loss = nan is not finite"}]}
        path = make_record(tmp_path, 1700000000.0, losses=[1.0, 0.5],
                           health=health, peak_bytes=4096)
        record = load_record(path)
        assert record.profile["totals"]["peak_tensor_bytes"] == 4096
        assert record.telemetry["events"] == 2
        assert record.telemetry["health"]["alerts_fail"] == 1
        text = format_record(record, with_spans=False, with_metrics=False)
        assert "telemetry:" in text
        assert "stream:" in text
        assert "[FAIL] loss.nonfinite" in text

    def test_from_dict_ignores_unknown_fields(self, tmp_path, utc):
        path = make_record(tmp_path, 1700000000.0)
        data = json.loads(path.read_text())
        data["from_the_future"] = {"x": 1}
        record = RunRecord.from_dict(data)
        assert record.method == "jape-stru"


class TestDiff:
    def two_seeded(self, tmp_path):
        losses = [2.0, 1.0, 0.5, 0.25]
        a = make_record(tmp_path, 1700000000.0, losses=losses,
                        seconds=[0.010, 0.011, 0.010, 0.012],
                        hits1=[0.2, 0.3])
        b = make_record(tmp_path, 1700003600.0, losses=losses,
                        seconds=[0.011, 0.010, 0.012, 0.011],
                        hits1=[0.2, 0.3],
                        timing={"fit_seconds": 1.05, "eval_seconds": 0.1,
                                "total_seconds": 1.15})
        return a, b

    def test_seeded_reruns_are_bitwise_identical(self, tmp_path, utc):
        a, b = self.two_seeded(tmp_path)
        diff = diff_records(a, b)
        assert diff.results_identical
        assert diff.trajectories_identical
        for delta in diff.results:
            assert delta.delta == 0.0
        loss = next(t for t in diff.trajectories
                    if t.metric == "loss")
        assert loss.max_abs_divergence == 0.0
        assert "bitwise-identical" in format_diff_text(diff)

    def test_diverging_results_are_reported(self, tmp_path, utc):
        a = make_record(tmp_path, 1700000000.0, losses=[1.0, 0.5])
        b = make_record(tmp_path, 1700003600.0, losses=[1.0, 0.7],
                        results={"H@1": 38.0, "H@10": 70.0, "MRR": 0.48,
                                 "fit(s)": 1.0, "eval(s)": 0.1})
        diff = diff_records(a, b)
        assert not diff.results_identical
        h1 = next(d for d in diff.results if d.name == "H@1")
        assert h1.delta == pytest.approx(-2.0)
        loss = next(t for t in diff.trajectories if t.metric == "loss")
        assert loss.max_abs_divergence == pytest.approx(0.2)
        assert "metrics differ" in format_diff_text(diff)

    def test_different_workloads_warn(self, tmp_path, utc):
        a = make_record(tmp_path, 1700000000.0)
        b = make_record(tmp_path, 1700003600.0, method="mtranse")
        diff = diff_records(a, b)
        assert any("different workloads" in w for w in diff.warnings)

    def test_blas_configuration_mismatch_warns(self, tmp_path, utc):
        stamp = {"python": "3.11.14", "blas": "scipy-openblas 0.3.31",
                 "blas_threads": 2}
        a = make_record(tmp_path, 1700000000.0, version=stamp)
        b = make_record(tmp_path, 1700003600.0,
                        version=dict(stamp, blas_threads=1))
        same = make_record(tmp_path, 1700007200.0, version=dict(stamp))
        unstamped = make_record(tmp_path, 1700010800.0)
        diff = diff_records(a, b)
        blas = [w for w in diff.warnings if "BLAS configuration" in w]
        assert blas == ["BLAS configuration differs: scipy-openblas 0.3.31 "
                        "threads=2 vs scipy-openblas 0.3.31 threads=1; "
                        "float results may differ in the last bits with "
                        "no code change"]
        assert "BLAS configuration differs" in format_diff_text(diff)
        for other in (same, unstamped):
            assert not any("BLAS" in w
                           for w in diff_records(a, other).warnings)

    def test_engine_dtype_mismatch_warns(self, tmp_path, utc):
        a = make_record(tmp_path, 1700000000.0, version={"dtype": "float32"})
        b = make_record(tmp_path, 1700003600.0, version={"dtype": "float64"})
        same = make_record(tmp_path, 1700007200.0,
                           version={"dtype": "float32"})
        unstamped = make_record(tmp_path, 1700010800.0)
        diff = diff_records(a, b)
        dtype = [w for w in diff.warnings if "dtype" in w]
        assert dtype == ["engine dtype differs: float32 vs float64; losses "
                         "and metrics differ with no code change"]
        assert "engine dtype differs" in format_diff_text(diff)
        for other in (same, unstamped):
            assert not any("dtype" in w
                           for w in diff_records(a, other).warnings)
            assert not any("dtype" in w
                           for w in diff_records(other, a).warnings)

    def test_missing_stream_compares_no_trajectories(self, tmp_path, utc):
        a, b = self.two_seeded(tmp_path)
        summarize_record(b).stream.unlink()
        diff = diff_records(a, b)
        assert diff.results_identical
        assert diff.trajectories == []
        assert not diff.trajectories_identical
        assert any("missing" in w for w in diff.warnings)
        verdict = "headline metrics identical; no trajectories compared"
        assert f"verdict: {verdict}" in format_diff_text(diff)
        assert f"**Verdict:** {verdict}." in format_diff_markdown(diff)
        assert "bitwise-identical" not in format_diff_text(diff)
        payload = json.loads(format_diff_json(diff))
        assert payload["trajectories_identical"] is False

    def test_json_reporter_is_machine_readable(self, tmp_path, utc):
        a, b = self.two_seeded(tmp_path)
        payload = json.loads(format_diff_json(diff_records(a, b)))
        assert payload["results_identical"] is True
        assert payload["trajectories_identical"] is True
        names = [d["name"] for d in payload["results"]]
        assert names == ["H@1", "H@10", "MRR"]

    def test_markdown_report_matches_golden(self, tmp_path, utc):
        a, b = self.two_seeded(tmp_path)
        markdown = format_diff_markdown(diff_records(a, b))
        assert markdown == GOLDEN.read_text()

    def test_compare_table_lists_all_runs(self, tmp_path, utc):
        a, b = self.two_seeded(tmp_path)
        table = format_compare_table(compare_records([a, b]))
        assert "20231114-221320-jape-stru-tiny" in table
        assert "20231114-231320-jape-stru-tiny" in table
        assert "H@1" in table


class TestBaseline:
    def test_latest_prior_record_scaled_to_fractions(self, tmp_path, utc):
        make_record(tmp_path, 1700000000.0,
                    results={"H@1": 30.0, "H@10": 60.0, "MRR": 0.40})
        newest = make_record(tmp_path, 1700003600.0,
                             results={"H@1": 50.0, "H@10": 80.0,
                                      "MRR": 0.60})
        baseline = baseline_metrics(tmp_path, "jape-stru", "tiny",
                                    exclude=newest)
        assert baseline == {"hits@1": 0.30, "hits@10": 0.60, "mrr": 0.40}
        # Without exclusion the newest run wins.
        baseline = baseline_metrics(tmp_path, "jape-stru", "tiny")
        assert baseline["hits@1"] == 0.50

    def test_no_matching_runs_returns_none(self, tmp_path, utc):
        make_record(tmp_path, 1700000000.0, method="mtranse")
        assert baseline_metrics(tmp_path, "jape-stru", "tiny") is None


class TestPrune:
    def test_prune_keeps_newest_and_removes_siblings(self, tmp_path, utc):
        old = make_record(tmp_path, 1700000000.0, losses=[1.0])
        mid = make_record(tmp_path, 1700003600.0, losses=[1.0])
        new = make_record(tmp_path, 1700007200.0, losses=[1.0])
        # A trace sibling for the oldest record.
        stem = old.name[: -len(".json")]
        trace = old.with_name(stem + "-trace.json")
        trace.write_text("{}")
        removed = prune_runs(tmp_path, keep=1)
        assert old not in list_runs(tmp_path)
        survivors = [s.path for s in list_runs(tmp_path)]
        assert survivors == [new]
        assert not trace.exists()
        assert not old.with_name(stem + "-stream.jsonl").exists()
        assert mid not in survivors
        assert len(removed) == 5  # 2 records + 2 streams + trace

    def test_prune_zero_removes_everything(self, tmp_path, utc):
        make_record(tmp_path, 1700000000.0)
        prune_runs(tmp_path, keep=0)
        assert list_runs(tmp_path) == []

    def test_prune_rejects_negative_keep(self, tmp_path):
        with pytest.raises(ValueError):
            prune_runs(tmp_path, keep=-1)
