"""Unit tests for repro.obs: metrics, tracing, run records, sessions."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import metrics as metrics_mod
from repro.obs import tracing as tracing_mod
from repro.obs.compare import diff_records, list_runs
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
    use_registry,
)
from repro.obs.runrecord import (
    STREAM_SUFFIX,
    TRACE_SUFFIX,
    RunRecord,
    claim_stem,
    format_record,
    latest_record,
    list_records,
    load_record,
    version_stamp,
    write_record,
)
from repro.obs.tracing import NullTracer, SpanNode, Tracer, use_tracer


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labels_are_independent_series(self):
        c = Counter("c")
        c.inc(optimizer="adam")
        c.inc(3, optimizer="sgd")
        assert c.value(optimizer="adam") == 1
        assert c.value(optimizer="sgd") == 3
        assert c.value() == 0
        labels = c.series_labels()
        assert {"optimizer": "adam"} in labels

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_last_value_and_minmax(self):
        g = Gauge("g")
        for v in (3.0, 1.0, 2.0):
            g.set(v)
        assert g.value() == 2.0
        snap = g.snapshot()["series"][0]
        assert snap["min"] == 1.0 and snap["max"] == 3.0

    def test_unset_is_none(self):
        assert Gauge("g").value() is None


class TestHistogram:
    def test_bucket_counts(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 4.0, 100.0):
            h.observe(v)
        snap = h.snapshot()["series"][0]
        # Buckets are inclusive upper bounds; 100 goes to overflow.
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(107.0)

    def test_percentile_estimates(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 3.0, 4.0):
            h.observe(v)
        assert h.percentile(25) == 1.0
        assert h.percentile(50) == 2.0
        assert h.percentile(100) == 5.0

    def test_overflow_percentile_reports_exact_max(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(42.0)
        assert h.percentile(99) == 42.0

    def test_empty_percentile(self):
        assert Histogram("h").percentile(95) == 0.0

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=1, max_size=200,
        ),
        bounds=st.lists(
            st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
            min_size=1, max_size=12, unique=True,
        ),
        p=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_is_conservative_upper_bound(self, values, bounds, p):
        """The estimate never underestimates the true percentile, and is
        never looser than one bucket: it equals the smallest bound >= the
        true rank value (or the exact max in the overflow bucket)."""
        bounds = sorted(bounds)
        h = Histogram("h", buckets=bounds)
        for v in values:
            h.observe(v)
        assert h.count() == len(values)
        assert h.sum() == pytest.approx(math.fsum(values))

        estimate = h.percentile(p)
        rank = max(1, math.ceil(len(values) * p / 100.0))
        true_value = sorted(values)[rank - 1]
        assert estimate >= true_value or estimate == pytest.approx(true_value)
        # Tightness: the estimate is the first bound at/above true_value,
        # unless true_value overflows every bound (then it's the max).
        covering = [b for b in bounds if b >= true_value]
        if covering:
            assert estimate <= covering[0] or estimate == pytest.approx(
                covering[0]
            )
        else:
            assert estimate == max(values)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        r = Registry()
        assert r.counter("a") is r.counter("a")
        assert r.names() == ["a"]

    def test_kind_conflict_raises(self):
        r = Registry()
        r.counter("a")
        with pytest.raises(TypeError):
            r.gauge("a")

    def test_snapshot_round_trips_through_json(self):
        r = Registry()
        r.counter("steps").inc(5, phase="attr")
        r.gauge("lr").set(1e-3)
        r.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        snap = json.loads(json.dumps(r.snapshot()))
        assert snap["steps"]["kind"] == "counter"
        assert snap["lat"]["series"][0]["count"] == 1

    def test_default_is_noop_null_registry(self):
        registry = metrics_mod.get_registry()
        assert isinstance(registry, NullRegistry)
        assert not registry.enabled
        # No-op instruments swallow writes and report zeros.
        registry.counter("x").inc()
        assert registry.counter("x").value() == 0.0
        registry.histogram("h").observe(1.0)
        assert registry.histogram("h").count() == 0
        assert registry.snapshot() == {}

    def test_use_registry_installs_and_restores(self):
        before = metrics_mod.get_registry()
        live = Registry()
        with use_registry(live):
            assert metrics_mod.get_registry() is live
            metrics_mod.counter("x").inc()
        assert metrics_mod.get_registry() is before
        assert live.counter("x").value() == 1


class TestTracer:
    def test_nesting_builds_a_tree(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        outer = t.root.children["outer"]
        assert outer.calls == 1
        assert outer.children["inner"].calls == 2
        assert outer.wall >= outer.children["inner"].wall

    def test_exception_safety(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("outer"):
                with t.span("inner"):
                    raise RuntimeError("boom")
        inner = t.root.children["outer"].children["inner"]
        assert inner.errors == 1
        assert inner.calls == 1
        # The stack unwound fully: new spans attach at the root again.
        with t.span("after"):
            pass
        assert "after" in t.root.children

    def test_attrs_recorded(self):
        t = Tracer()
        with t.span("epoch", epoch=3):
            pass
        assert t.root.children["epoch"].attrs == {"epoch": 3}

    def test_to_dict_roundtrip(self):
        t = Tracer()
        with t.span("a"):
            with t.span("b"):
                pass
        tree = json.loads(json.dumps(t.to_dict()))
        restored = SpanNode.from_dict(tree)
        assert restored.children["a"].children["b"].calls == 1

    def test_root_wall_is_sum_of_children(self):
        t = Tracer()
        with t.span("a"):
            pass
        with t.span("b"):
            pass
        tree = t.to_dict()
        expected = (t.root.children["a"].wall + t.root.children["b"].wall)
        assert tree["wall_seconds"] == pytest.approx(expected)

    def test_report_renders_indented_tree(self):
        t = Tracer()
        with t.span("fit"):
            with t.span("epoch"):
                pass
        report = t.report()
        assert "fit" in report
        assert "  epoch" in report.splitlines()[-1]

    def test_null_tracer_is_default_and_noop(self):
        tracer = tracing_mod.get_tracer()
        assert isinstance(tracer, NullTracer)
        with tracing_mod.span("anything"):
            pass
        assert tracer.root.children == {}

    def test_use_tracer_installs_and_restores(self):
        before = tracing_mod.get_tracer()
        live = Tracer()
        with use_tracer(live):
            with tracing_mod.span("x"):
                pass
        assert tracing_mod.get_tracer() is before
        assert "x" in live.root.children


class TestRunRecord:
    def _record(self):
        return RunRecord(
            method="sdea", dataset="srprs/dbp_yg", timestamp=1e9,
            config={"seed": 17, "attr_epochs": 2}, seed=17,
            version=version_stamp(),
            results={"H@1": 99.9},
            timing={"fit_seconds": 1.5, "eval_seconds": 0.5,
                    "total_seconds": 2.0},
            metrics={"optim.steps": {"kind": "counter", "series": [
                {"labels": {"optimizer": "adam"}, "value": 10}]}},
            spans={"name": "root", "calls": 1, "wall_seconds": 2.0,
                   "children": [{"name": "run", "calls": 1,
                                 "wall_seconds": 2.0}]},
        )

    def test_write_load_round_trip(self, tmp_path):
        record = self._record()
        path = write_record(record, tmp_path)
        assert path.parent == tmp_path
        loaded = load_record(path)
        assert loaded.method == record.method
        assert loaded.config == record.config
        assert loaded.spans == record.spans
        assert loaded.timing == record.timing

    def test_same_second_records_do_not_clobber(self, tmp_path):
        record = self._record()
        first = write_record(record, tmp_path)
        second = write_record(record, tmp_path)
        assert first != second
        assert len(list_records(tmp_path)) == 2

    def test_same_second_records_list_in_write_order(self, tmp_path):
        record = self._record()
        paths = [write_record(record, tmp_path) for _ in range(3)]
        assert [p.name for p in paths] == [
            f"{record.run_id}.json", f"{record.run_id}.1.json",
            f"{record.run_id}.2.json"]
        assert list_records(tmp_path) == paths

    def test_claim_skips_stems_holding_any_run_file(self, tmp_path):
        first = claim_stem(tmp_path, "sdea", "tiny", 1700000000.0)
        assert (tmp_path / (first + STREAM_SUFFIX)).exists()
        (tmp_path / (first + ".1" + TRACE_SUFFIX)).write_text("{}")
        assert claim_stem(tmp_path, "sdea", "tiny",
                          1700000000.0) == first + ".2"

    def test_latest_record(self, tmp_path):
        assert latest_record(tmp_path) is None
        record = self._record()
        write_record(record, tmp_path)
        record.timestamp += 60
        newest = write_record(record, tmp_path)
        assert latest_record(tmp_path) == newest

    def test_format_record_renders_all_sections(self):
        text = format_record(self._record())
        assert "sdea" in text
        assert "fit_seconds=1.500s" in text
        assert "optim.steps{optimizer=adam}" in text
        assert "run" in text and "spans:" in text

    def test_version_stamp_has_package_version(self):
        import repro
        stamp = version_stamp()
        assert stamp["repro"] == repro.__version__
        assert "python" in stamp

    def test_version_stamp_names_blas_configuration(self, monkeypatch):
        import os
        stamp = version_stamp()
        assert isinstance(stamp["blas"], str) and stamp["blas"]
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setenv("OMP_NUM_THREADS", "5")
        assert version_stamp()["blas_threads"] == 3
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert version_stamp()["blas_threads"] == 5
        monkeypatch.delenv("OMP_NUM_THREADS")
        assert version_stamp()["blas_threads"] == len(os.sched_getaffinity(0))

    def test_version_stamp_names_engine_dtype(self):
        from repro.nn import default_dtype
        assert version_stamp()["dtype"] == "float32"
        with default_dtype(np.float64):
            assert version_stamp()["dtype"] == "float64"

    def test_v2_records_without_shards_still_load(self):
        data = self._record().to_dict()
        data["schema_version"] = 2
        data["unknown_future_field"] = {"x": 1}  # must be ignored, not fatal
        loaded = RunRecord.from_dict(data)
        assert loaded.schema_version == 2
        assert loaded.results == {"H@1": 99.9}

    def test_v3_records_with_a_shards_digest_still_load(self, tmp_path):
        # The shape earlier schema-3 writers gave records of runs that
        # evaluated on a thread pool.
        data = self._record().to_dict()
        data["shards"] = {"count": 2, "workers": [
            {"shard": 0, "wall_seconds": 0.26},
            {"shard": 1, "wall_seconds": 0.24}]}
        old = tmp_path / f"{data['run_id']}.json"
        old.write_text(json.dumps(data, indent=2, sort_keys=True))
        fresh = self._record()
        fresh.timestamp += 60
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_record(old)
            text = format_record(loaded)
            new = write_record(fresh, tmp_path)
            runs = list_runs(tmp_path)
            diff = diff_records(old, new)
        assert loaded.schema_version == 3
        assert "fit_seconds=1.500s" in text
        assert [run.path for run in runs] == [old, new]
        assert not any(run.warnings for run in runs)
        assert not diff.warnings
        assert diff.results_identical


class TestSession:
    def test_session_installs_live_instances_and_restores(self):
        assert not obs.is_active()
        with obs.session(runs_dir=None) as sess:
            assert obs.is_active()
            assert obs.active_session() is sess
            assert metrics_mod.get_registry() is sess.registry
            assert tracing_mod.get_tracer() is sess.tracer
            metrics_mod.counter("x").inc()
            with tracing_mod.span("y"):
                pass
        assert not obs.is_active()
        assert isinstance(metrics_mod.get_registry(), NullRegistry)
        assert sess.registry.counter("x").value() == 1
        assert "y" in sess.tracer.root.children

    def test_sessions_nest(self):
        with obs.session(runs_dir=None) as outer:
            with obs.session(runs_dir=None) as inner:
                assert obs.active_session() is inner
            assert obs.active_session() is outer


class TestInstrumentedPrimitives:
    """Instrumented library functions publish metrics when a session is on."""

    def test_gen_candidates_metrics(self):
        from repro.core.candidates import gen_candidates
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(20, 8)), rng.normal(size=(30, 8))
        with obs.session(runs_dir=None) as sess:
            out = gen_candidates(a, b, k=5)
        assert out.shape == (20, 5)
        assert sess.registry.counter("candidates.generations").value() == 1
        assert sess.registry.get("candidates.set_size") is not None
        assert "candidates/gen" in sess.tracer.root.children

    def test_optimizer_and_clip_metrics(self):
        from repro.nn import Adam, clip_grad_norm
        from repro.nn.module import Parameter
        param = Parameter(np.ones(4))
        param.grad = np.full(4, 10.0)
        with obs.session(runs_dir=None) as sess:
            clip_grad_norm([param], 1.0)
            Adam([param], lr=0.1).step()
        assert sess.registry.counter("optim.steps").value(
            optimizer="adam") == 1
        assert sess.registry.gauge("optim.grad_norm").value() == 20.0
        assert sess.registry.counter("optim.grad_clips").value() == 1

    def test_evaluate_embeddings_metrics(self):
        from repro.align.evaluator import evaluate_embeddings
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(10, 6))
        links = [(i, i) for i in range(10)]
        with obs.session(runs_dir=None) as sess:
            evaluate_embeddings(emb, emb, links)
        assert sess.registry.counter("eval.rankings").value() == 1
        assert sess.registry.gauge("eval.hits_at_1").value() == 1.0
        assert "evaluate/rank" in sess.tracer.root.children
