"""End-to-end observability: instrumented runs, run records, overhead."""

import json
import math
import statistics
import time

import numpy as np
import pytest

from repro import obs
from repro.align.evaluator import evaluate_embeddings
from repro.cli import main
from repro.core import SDEA
from repro.core.candidates import gen_candidates
from repro.obs.runrecord import load_record
from repro.obs.telemetry import STREAM_SUFFIX, TelemetryStream, use_stream


class TestCliTraceSmoke:
    """`repro run --trace` on a tiny dataset emits a well-formed span tree."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        runs_dir = tmp_path_factory.mktemp("runs")
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["run", "--dataset", "srprs/dbp_yg",
                         "--method", "jape-stru", "--trace",
                         "--runs-dir", str(runs_dir)])
        return code, buf.getvalue(), runs_dir

    def test_exit_code_and_span_report_printed(self, traced_run):
        code, out, _ = traced_run
        assert code == 0
        assert "span" in out and "wall(s)" in out
        assert "run" in out and "fit" in out and "evaluate" in out

    def test_run_record_written_and_well_formed(self, traced_run):
        _, _, runs_dir = traced_run
        paths = list(runs_dir.glob("*.json"))
        assert len(paths) == 1
        data = json.loads(paths[0].read_text())
        assert data["method"] == "jape-stru"
        assert data["dataset"] == "srprs-dbp_yg"  # KGPair.name of srprs/dbp_yg
        from repro.obs.runrecord import SCHEMA_VERSION
        assert data["schema_version"] == SCHEMA_VERSION
        assert "H@1" in data["results"]
        assert data["timing"]["total_seconds"] == pytest.approx(
            data["timing"]["fit_seconds"] + data["timing"]["eval_seconds"]
        )
        assert "optim.steps" in data["metrics"]

    def test_span_tree_root_matches_elapsed_within_5pct(self, traced_run):
        _, _, runs_dir = traced_run
        record = load_record(next(iter(runs_dir.glob("*.json"))))
        spans = record.spans
        assert spans["name"] == "root"
        (run_span,) = [c for c in spans["children"] if c["name"] == "run"]
        child_names = {c["name"] for c in run_span["children"]}
        assert {"fit", "evaluate"} <= child_names
        total = record.timing["total_seconds"]
        assert spans["wall_seconds"] == pytest.approx(total, rel=0.05)
        assert run_span["wall_seconds"] == pytest.approx(total, rel=0.05)

    def test_obs_subcommand_renders_latest_record(self, traced_run, capsys):
        _, _, runs_dir = traced_run
        assert main(["obs", "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "jape-stru" in out
        assert "spans:" in out
        assert "fit" in out

    def test_obs_subcommand_without_records(self, tmp_path, capsys):
        assert main(["obs", "--runs-dir", str(tmp_path / "none")]) == 1
        assert "no run records" in capsys.readouterr().err


class TestSdeaInstrumentation:
    """A tiny SDEA fit and test ranking populate TrainLog extensions,
    metrics, spans and a live telemetry stream."""

    @pytest.fixture(scope="class")
    def fitted(self, request, tmp_path_factory):
        tiny_pair = request.getfixturevalue("tiny_pair")
        tiny_split = request.getfixturevalue("tiny_split")
        from repro.core import SDEAConfig
        config = SDEAConfig(
            bert_dim=32, bert_heads=2, bert_layers=1, bert_ff_dim=64,
            max_seq_len=32, embed_dim=32, relation_hidden=24,
            attr_epochs=2, rel_epochs=2, mlm_epochs=1, vocab_size=500,
            patience=2, seed=1,
        )
        stream = TelemetryStream(
            tmp_path_factory.mktemp("stream") / ("fit" + STREAM_SUFFIX))
        with obs.session(runs_dir=None) as sess, use_stream(stream):
            model = SDEA(config)
            result = model.fit(tiny_pair, tiny_split)
            model.evaluate(tiny_split.test)
        stream.close()
        return sess, result, obs.read_stream(stream.path)

    def test_trainlog_has_wall_time_and_lr_per_epoch(self, fitted):
        _, result, _ = fitted
        for log in (result.attribute_log, result.relation_log):
            assert len(log.epoch_seconds) == len(log.losses)
            assert len(log.learning_rates) == len(log.losses)
            assert all(s > 0 for s in log.epoch_seconds)
            assert all(lr > 0 for lr in log.learning_rates)
        # Original API is untouched.
        assert result.attribute_log.valid_hits1
        assert isinstance(result.attribute_log.stopped_epoch, int)

    def test_metrics_registry_saw_both_phases(self, fitted):
        sess, result, _ = fitted
        epochs = sess.registry.counter("trainer.epochs")
        assert epochs.value(phase="attr") == len(result.attribute_log.losses)
        assert epochs.value(phase="rel") == len(result.relation_log.losses)
        assert epochs.value(phase="mlm") == 1
        assert sess.registry.histogram("trainer.batch_seconds").count(
            phase="attr") > 0
        assert sess.registry.counter("optim.steps").value(
            optimizer="adam") > 0
        assert sess.registry.gauge("trainer.lr").value(phase="attr") > 0
        # Loss curve: one labeled series per (phase, epoch).
        assert sess.registry.gauge("trainer.loss_curve").value(
            phase="mlm", epoch=0) is not None

    def test_registry_series_derive_from_stream_events(self, fitted):
        sess, _, events = fitted
        registry = sess.registry
        for phase in ("mlm", "attr", "rel"):
            epochs = [e for e in events
                      if e["event"] == "epoch" and e["phase"] == phase]
            assert epochs, phase
            assert registry.counter("trainer.epochs").value(
                phase=phase) == len(epochs)
            for event in epochs:
                assert registry.gauge("trainer.loss_curve").value(
                    phase=phase, epoch=event["epoch"]) == event["loss"]
            validations = [e for e in events if e["event"] == "validation"
                           and e["phase"] == phase]
            last_hits1 = validations[-1]["hits1"] if validations else None
            assert registry.gauge("trainer.valid_hits1").value(
                phase=phase) == last_hits1

    def test_only_the_test_ranking_is_an_eval_event(self, fitted):
        """Alg.-2/3 validation scores travel as `validation` events."""
        sess, result, events = fitted
        assert result.attribute_log.valid_hits1
        assert result.relation_log.valid_hits1
        assert [e["event"] for e in events].count("eval") == 1
        assert sess.registry.counter("eval.rankings").value() == 1

    def test_every_epoch_event_carries_a_finite_grad_norm(self, fitted):
        """MLM included: the health rules on grad_norm see every phase."""
        _, _, events = fitted
        epochs = [e for e in events if e["event"] == "epoch"]
        assert {e["phase"] for e in epochs} == {"mlm", "attr", "rel"}
        for event in epochs:
            assert math.isfinite(event.get("grad_norm", math.nan)), event

    def test_span_tree_covers_training_phases(self, fitted):
        sess, _, _ = fitted
        names = {path[-1] for path, _ in sess.tracer.root.walk()}
        assert {"mlm/epoch", "attr_pretrain/epoch", "rel_train/epoch",
                "candidates/gen", "batch", "validate"} <= names
        attr_epoch = sess.tracer.root.children["attr_pretrain/epoch"]
        assert attr_epoch.calls == 2
        assert {"encode", "candidates", "batch", "validate"} <= set(
            attr_epoch.children
        )


class TestOverheadGuard:
    """Metrics/span instrumentation must stay within 5% of the no-op path.

    The no-op path (null registry/tracer) is the default when no
    session is active; the live path is measured inside ``obs.session``.
    Baseline and instrumented runs are interleaved, medians compared
    (scheduler spikes are one-sided, so a single lucky minimum must not
    decide the comparison), and a noisy measurement round is retried
    rather than widening the 5% contract.
    """

    @staticmethod
    def _workload(a, b, links):
        for _ in range(3):
            gen_candidates(a, b, k=10)
            evaluate_embeddings(a, b, links)

    @staticmethod
    def _timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def _measure(self, run) -> float:
        import gc
        baseline_times, instrumented_times = [], []
        gc.collect()
        gc.disable()
        try:
            for i in range(9):
                if i % 2:  # alternate order: bias hits both sides equally
                    with obs.session(runs_dir=None):
                        instrumented_times.append(self._timed(run))
                    baseline_times.append(self._timed(run))
                else:
                    baseline_times.append(self._timed(run))
                    with obs.session(runs_dir=None):
                        instrumented_times.append(self._timed(run))
        finally:
            gc.enable()
        return (statistics.median(instrumented_times)
                / statistics.median(baseline_times))

    def test_instrumentation_overhead_below_5pct(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(400, 64))
        b = rng.normal(size=(400, 64))
        links = [(i, i) for i in range(400)]
        run = lambda: self._workload(a, b, links)
        run()  # warm caches / allocator
        ratios = []
        for _ in range(3):
            ratios.append(self._measure(run))
            if ratios[-1] <= 1.05:
                return
        raise AssertionError(
            f"instrumentation overhead exceeded 5% in 3 rounds: "
            f"{[f'{r - 1:.1%}' for r in ratios]}"
        )

    def test_noop_is_the_default(self):
        from repro.obs.metrics import NullRegistry, get_registry
        from repro.obs.tracing import NullTracer, get_tracer
        assert isinstance(get_registry(), NullRegistry)
        assert isinstance(get_tracer(), NullTracer)
        assert not obs.is_active()
