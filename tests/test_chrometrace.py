"""Chrome-trace export and the profile/obs CLI surface.

Schema contract: every event carries the catapult-required ``ph`` /
``ts`` / ``pid`` / ``tid`` keys and the event list is sorted by ``ts``,
so Perfetto / ``chrome://tracing`` load the file directly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.nn.tensor import Tensor
from repro.obs.chrometrace import (build_chrome_trace, record_to_chrome_trace,
                                   span_tree_to_events, write_chrome_trace)
from repro.obs.profile import OpProfiler
from repro.obs.runrecord import RunRecord, write_record


def _assert_valid_catapult(trace):
    events = trace["traceEvents"]
    assert events, "trace must contain events"
    timestamps = []
    for event in events:
        for key in ("ph", "ts", "pid", "tid"):
            assert key in event, f"event missing required key {key!r}: {event}"
        assert event["ph"] in ("X", "M")
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
        timestamps.append(float(event["ts"]))
    assert timestamps == sorted(timestamps), "timestamps must be monotone"


def _span_tree():
    return {
        "name": "root", "wall_seconds": 1.0, "calls": 1, "children": [
            {"name": "fit", "wall_seconds": 0.7, "calls": 1,
             "attrs": {"method": "sdea"}, "children": [
                 {"name": "batch", "wall_seconds": 0.6, "calls": 42,
                  "children": []},
             ]},
            {"name": "evaluate", "wall_seconds": 0.2, "calls": 1,
             "errors": 1, "children": []},
        ],
    }


class TestSpanTreeToEvents:
    def test_sequential_layout_from_parent_start(self):
        events = {e["name"]: e for e in span_tree_to_events(_span_tree())}
        assert events["root"]["ts"] == 0.0
        assert events["fit"]["ts"] == 0.0  # first child starts with parent
        assert events["batch"]["ts"] == 0.0
        assert events["evaluate"]["ts"] == pytest.approx(0.7e6)
        assert events["fit"]["dur"] == pytest.approx(0.7e6)
        assert events["fit"]["args"]["attrs"] == {"method": "sdea"}
        assert events["evaluate"]["args"]["errors"] == 1
        assert events["batch"]["args"]["calls"] == 42


class TestBuildChromeTrace:
    def test_span_only_trace_is_schema_valid(self):
        trace = build_chrome_trace(span_tree=_span_tree())
        _assert_valid_catapult(trace)
        assert trace["displayTimeUnit"] == "ms"
        lanes = [e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M"]
        assert lanes == ["spans"]  # no op lanes without op events

    def test_merged_trace_with_profiler_events(self):
        a = Tensor(np.ones((8, 8)), requires_grad=True)
        with OpProfiler() as profiler:
            (a @ a).sum().backward()
        trace = build_chrome_trace(span_tree=_span_tree(),
                                   op_events=profiler.trace_events(),
                                   metadata={"method": "test"})
        _assert_valid_catapult(trace)
        assert trace["metadata"] == {"method": "test"}
        lanes = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M"}
        assert lanes == {"spans", "ops/forward", "ops/backward"}
        op_names = {e["name"] for e in trace["traceEvents"]
                    if e.get("cat") in ("forward", "backward")}
        assert "matmul" in op_names

    def test_write_round_trip(self, tmp_path):
        path = write_chrome_trace(tmp_path / "nested" / "trace.json",
                                  build_chrome_trace(span_tree=_span_tree()))
        _assert_valid_catapult(json.loads(path.read_text(encoding="utf-8")))


class TestRecordConversion:
    def test_record_with_spans_converts(self):
        record = RunRecord(method="sdea", dataset="tiny", timestamp=1.0,
                           spans=_span_tree())
        trace = record_to_chrome_trace(record)
        _assert_valid_catapult(trace)
        assert trace["metadata"]["method"] == "sdea"

    def test_record_without_spans_raises(self):
        record = RunRecord(method="sdea", dataset="tiny", timestamp=1.0)
        with pytest.raises(ValueError, match="no span data"):
            record_to_chrome_trace(record)

    def test_trace_files_next_to_records_are_not_records(self, tmp_path):
        # Profiled runs write <record>-trace.json into the same runs
        # dir; `repro obs` (latest_record) must never pick one up.
        from repro.obs.runrecord import latest_record, list_records
        path = write_record(RunRecord(method="sdea", dataset="tiny",
                                      timestamp=1.0), tmp_path)
        trace = tmp_path / (path.stem + "-trace.json")
        trace.write_text("{}", encoding="utf-8")
        assert list_records(tmp_path) == [path]
        assert latest_record(tmp_path) == path


class TestCli:
    def test_obs_chrome_trace_subcommand(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        write_record(RunRecord(method="sdea", dataset="tiny", timestamp=1.0,
                               spans=_span_tree()), runs)
        out = tmp_path / "trace.json"
        assert main(["obs", "--runs-dir", str(runs),
                     "--chrome-trace", str(out)]) == 0
        assert "perfetto" in capsys.readouterr().out
        _assert_valid_catapult(json.loads(out.read_text(encoding="utf-8")))

    def test_obs_chrome_trace_without_spans_fails(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        write_record(RunRecord(method="sdea", dataset="tiny",
                               timestamp=1.0), runs)
        assert main(["obs", "--runs-dir", str(runs),
                     "--chrome-trace", str(tmp_path / "t.json")]) == 1
        assert "no span data" in capsys.readouterr().err

    def test_profile_subcommand_tiny_sdea(self, tmp_path, capsys):
        out = tmp_path / "sdea-trace.json"
        assert main(["profile", "--method", "sdea",
                     "--trace-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "matmul" in printed          # per-op table rendered
        assert "fwd(s)" in printed and "bwd(s)" in printed
        _assert_valid_catapult(json.loads(out.read_text(encoding="utf-8")))

    def test_profile_subcommand_json_format(self, tmp_path, capsys):
        assert main(["profile", "--method", "jape-stru", "--format", "json",
                     "--trace-out", str(tmp_path / "t.json")]) == 0
        captured = capsys.readouterr()
        # stdout is exactly one JSON document; the trace path goes to stderr
        payload = json.loads(captured.out)
        assert payload["totals"]["flops_estimate"] > 0
        assert payload["top_ops"]
        assert "chrome trace:" in captured.err

    def test_profile_unknown_method(self, capsys):
        assert main(["profile", "--method", "nope"]) == 1
        assert "unknown method" in capsys.readouterr().err

    def test_run_with_profile_flag(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["run", "--dataset", "srprs/dbp_yg",
                     "--method", "jape-stru", "--runs-dir", str(runs),
                     "--profile"]) == 0
        assert "FLOPs" in capsys.readouterr().out
        records = [p for p in runs.glob("*.json")
                   if not p.name.endswith("-trace.json")]
        assert len(records) == 1
        data = json.loads(records[0].read_text(encoding="utf-8"))
        assert data["profile"]["top_ops"]
        trace_path = runs / data["profile"]["chrome_trace"]
        _assert_valid_catapult(
            json.loads(trace_path.read_text(encoding="utf-8"))
        )
