"""Unit tests for the live telemetry stream (repro.obs.telemetry)."""

from __future__ import annotations

import json
import threading

from repro.obs import metrics as metrics_mod
from repro.obs import telemetry
from repro.obs.metrics import Registry, use_registry
from repro.obs.telemetry import (
    STREAM_SCHEMA_VERSION,
    STREAM_SUFFIX,
    NullStream,
    TelemetryStream,
    format_status_line,
    iter_stream,
    latest_stream,
    read_stream,
    stream_status,
    use_stream,
)


class TestStreamWriteRead:
    def test_events_roundtrip_with_envelope(self, tmp_path):
        path = tmp_path / "run-stream.jsonl"
        stream = TelemetryStream(path)
        stream.emit("epoch", phase="attr", epoch=0, loss=1.5)
        stream.emit("validation", phase="attr", epoch=0, hits1=0.4)
        stream.close()
        events = read_stream(path)
        assert [e["event"] for e in events] == [
            "epoch", "validation", "stream_end"]
        for event in events:
            assert event["schema_version"] == STREAM_SCHEMA_VERSION
            assert isinstance(event["ts"], float)
        assert events[0]["loss"] == 1.5
        assert events[-1]["events"] == 2

    def test_each_event_is_flushed_immediately(self, tmp_path):
        """The stream must be tail-able while the run is still alive."""
        path = tmp_path / "flush-stream.jsonl"
        stream = TelemetryStream(path)
        stream.emit("epoch", epoch=0)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "epoch"
        stream.close()

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "torn-stream.jsonl"
        stream = TelemetryStream(path)
        stream.emit("epoch", epoch=0)
        stream.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "epo')  # a partially written line
        events = read_stream(path)
        assert [e["event"] for e in events] == ["epoch", "stream_end"]

    def test_newer_schema_version_warns_once(self, tmp_path):
        path = tmp_path / "future-stream.jsonl"
        lines = [
            json.dumps({"ts": 1.0, "schema_version": 99, "event": "epoch"}),
            json.dumps({"ts": 2.0, "schema_version": 99, "event": "eval"}),
        ]
        path.write_text("\n".join(lines) + "\n")
        warnings: list = []
        events = read_stream(path, on_warning=warnings.append)
        assert len(events) == 2  # kept best-effort, never dropped
        assert len(warnings) == 1
        assert "newer" in warnings[0]

    def test_close_is_idempotent_and_emit_after_close_drops(self, tmp_path):
        path = tmp_path / "closed-stream.jsonl"
        stream = TelemetryStream(path)
        stream.close()
        stream.close()
        stream.emit("epoch", epoch=1)
        assert [e["event"] for e in read_stream(path)] == ["stream_end"]


class TestGlobalSlot:
    def test_default_is_noop(self):
        assert isinstance(telemetry.get_stream(), NullStream)
        assert not telemetry.is_active()
        telemetry.emit("epoch", epoch=0)  # must not raise

    def test_use_stream_installs_and_restores(self, tmp_path):
        stream = TelemetryStream(tmp_path / "g-stream.jsonl")
        with use_stream(stream):
            assert telemetry.is_active()
            telemetry.emit("epoch", epoch=1)
        assert not telemetry.is_active()
        stream.close()
        assert [e["event"] for e in read_stream(stream.path)] == [
            "epoch", "stream_end"]

    def test_emit_without_session_writes_no_series(self):
        telemetry.emit("epoch", phase="attr", epoch=0, loss=1.0,
                       seconds=0.1, lr=0.01)  # must not raise
        telemetry.emit("eval", hits_at_1=0.5, seconds=0.1)
        assert metrics_mod.get_registry().snapshot() == {}

    def test_emit_derives_series_and_skips_missing_fields(self):
        registry = Registry()
        with use_registry(registry):
            telemetry.emit("epoch", phase="attr", epoch=0, loss=2.0,
                           seconds=0.5, lr=0.01, grad_norm=3.0)
            telemetry.emit("epoch", phase="attr", epoch=1, loss=None,
                           seconds=0.25)
            telemetry.emit("validation", phase="attr", epoch=1, hits1=0.4)
            telemetry.emit("eval", hits_at_1=0.5, seconds=0.1)
            telemetry.emit("run_start", method="sdea")
        assert registry.counter("trainer.epochs").value(phase="attr") == 2
        assert registry.gauge("trainer.loss").value(phase="attr") == 2.0
        assert registry.gauge("trainer.lr").value(phase="attr") == 0.01
        assert registry.histogram("trainer.epoch_seconds").count(
            phase="attr") == 2
        assert registry.gauge("trainer.loss_curve").value(
            phase="attr", epoch=0) == 2.0
        assert registry.gauge("trainer.loss_curve").value(
            phase="attr", epoch=1) is None
        assert registry.gauge("trainer.valid_hits1").value(
            phase="attr") == 0.4
        assert registry.counter("eval.rankings").value() == 1
        assert registry.histogram("eval.ranking_seconds").count() == 1
        assert registry.gauge("eval.hits_at_1").value() == 0.5
        derived = {name for series in telemetry.DERIVED.values()
                   for _, name, _, _ in series}
        assert set(registry.names()) == derived


class TestTailing:
    def test_iter_stream_follows_appends_until_stream_end(self, tmp_path):
        path = tmp_path / "tail-stream.jsonl"
        stream = TelemetryStream(path)
        stream.emit("epoch", epoch=0)

        def finish():
            stream.emit("epoch", epoch=1)
            stream.close()

        timer = threading.Timer(0.2, finish)
        timer.start()
        try:
            events = list(iter_stream(path, poll_seconds=0.05, timeout=10.0))
        finally:
            timer.join()
        assert [e["event"] for e in events] == [
            "epoch", "epoch", "stream_end"]

    def test_iter_stream_times_out_without_stream_end(self, tmp_path):
        path = tmp_path / "stuck-stream.jsonl"
        stream = TelemetryStream(path)
        stream.emit("epoch", epoch=0)
        events = list(iter_stream(path, poll_seconds=0.05, timeout=0.2))
        stream.close()
        assert [e["event"] for e in events] == ["epoch"]

    def test_latest_stream_picks_most_recent(self, tmp_path):
        import os
        old = tmp_path / ("old" + STREAM_SUFFIX)
        new = tmp_path / ("new" + STREAM_SUFFIX)
        old.write_text("")
        new.write_text("")
        os.utime(old, (1, 1))
        assert latest_stream(tmp_path) == new
        assert latest_stream(tmp_path / "missing") is None


class TestStatus:
    def test_status_folds_latest_state(self):
        events = [
            {"event": "run_start", "method": "sdea", "dataset": "tiny"},
            {"event": "phase", "name": "fit"},
            {"event": "epoch", "phase": "attr", "epoch": 0, "loss": 2.0,
             "seconds": 0.5},
            {"event": "epoch", "phase": "attr", "epoch": 1, "loss": 1.0,
             "seconds": 0.4},
            {"event": "validation", "phase": "attr", "epoch": 1,
             "hits1": 0.3},
            {"event": "alert", "severity": "warn"},
            {"event": "stream_end"},
        ]
        status = stream_status(events)
        assert status["method"] == "sdea"
        assert status["epoch"] == 1
        assert status["loss"] == 1.0
        assert status["hits@1"] == 0.3
        assert status["alerts_warn"] == 1
        assert status["ended"]
        line = format_status_line(status)
        assert "sdea@tiny" in line
        assert "loss=1" in line
        assert "alerts=1w/0f" in line
        assert "[ended]" in line
