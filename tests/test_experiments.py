"""Experiment harness: methods, runner, tables, analyses."""

import numpy as np
import pytest

from repro.experiments import (
    ErrorAnalysisReport,
    ExperimentResult,
    SDEAAligner,
    SDEAWithoutRelation,
    available_methods,
    default_sdea_config,
    error_analysis,
    format_dataset_stats_table,
    format_degree_table,
    format_longtail_table,
    format_results_table,
    longtail_analysis,
    make_method,
    paper_reference,
    run_experiment,
    run_suite,
)


class TestMethods:
    def test_available_includes_sdea_and_baselines(self):
        methods = available_methods()
        assert "sdea" in methods
        assert "sdea-norel" in methods
        assert "cea" in methods

    def test_make_method_unknown(self):
        with pytest.raises(KeyError):
            make_method("nope")

    def test_sdea_norel_disables_relation(self):
        aligner = SDEAWithoutRelation()
        assert aligner.model.config.use_relation is False

    def test_default_sdea_config_overrides(self):
        config = default_sdea_config(attr_epochs=3, seed=42)
        assert config.attr_epochs == 3
        assert config.seed == 42
        with pytest.raises(AttributeError):
            default_sdea_config(not_a_field=1)


class TestRunner:
    def test_run_experiment_fast_method(self, tiny_pair, tiny_split):
        result = run_experiment("jape-stru", tiny_pair, tiny_split)
        assert result.method == "jape-stru"
        assert result.dataset == tiny_pair.name
        assert result.seconds > 0
        row = result.row()
        assert set(row) >= {"H@1", "H@10", "MRR"}

    def test_run_experiment_with_stable(self, tiny_pair, tiny_split):
        result = run_experiment("cea", tiny_pair, tiny_split,
                                with_stable_matching=True)
        assert result.stable_hits_at_1 is not None
        assert "stable-H@1" in result.row()

    def test_run_suite(self, tiny_pair, tiny_split):
        results = run_suite(["jape-stru", "gcn"], tiny_pair, tiny_split)
        assert [r.method for r in results] == ["jape-stru", "gcn"]

    def test_interrupted_run_still_ends_its_stream(self, tiny_pair,
                                                   tiny_split, tmp_path,
                                                   monkeypatch):
        from repro import obs
        from repro.obs.runrecord import STREAM_SUFFIX
        from repro.obs.telemetry import read_stream

        def interrupt(self, pair, split=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(type(make_method("jape-stru")), "fit", interrupt)
        with obs.session(runs_dir=str(tmp_path)) as sess:
            with pytest.raises(KeyboardInterrupt):
                run_experiment("jape-stru", tiny_pair, tiny_split)
        (stream,) = tmp_path.iterdir()  # the run ended before its record
        assert stream.name.endswith("-jape-stru-tiny" + STREAM_SUFFIX)
        assert sess.last_stream_path == stream
        assert read_stream(stream)[-1]["event"] == "stream_end"


    def test_same_second_runs_claim_their_own_stems(self, tiny_pair,
                                                    tiny_split, tmp_path,
                                                    monkeypatch):
        import time

        from repro import obs
        from repro.obs.runrecord import load_record

        monkeypatch.setattr(time, "time", lambda: 1700000000.0)
        with obs.session(runs_dir=str(tmp_path)):
            first = run_experiment("jape-stru", tiny_pair, tiny_split)
            second = run_experiment("jape-stru", tiny_pair, tiny_split)
        stem = load_record(first.record_path).run_id
        assert first.record_path == tmp_path / f"{stem}.json"
        assert second.record_path == tmp_path / f"{stem}.1.json"
        for result in (first, second):
            stream = load_record(result.record_path).telemetry["stream"]
            assert stream == result.record_path.stem + "-stream.jsonl"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
            f"{stem}.json", f"{stem}-stream.jsonl",
            f"{stem}.1.json", f"{stem}.1-stream.jsonl"])


class TestTables:
    def _results(self):
        return [
            ExperimentResult("sdea", "d", 0.87, 0.966, 0.91, None, 1.0),
            ExperimentResult("cea", "d", 0.719, 0.854, 0.77, 0.787, 1.0),
        ]

    def test_format_results_table(self):
        text = format_results_table(self._results(), title="Table III")
        assert "Table III" in text
        assert "sdea" in text and "87.0" in text
        assert "st-H@1" in text  # stable column present

    def test_format_dataset_stats_table(self, tiny_pair):
        text = format_dataset_stats_table({"tiny": tiny_pair})
        assert "Entities" in text
        assert str(tiny_pair.kg1.num_entities) in text

    def test_format_degree_table(self, tiny_pair):
        text = format_degree_table({"tiny": tiny_pair})
        assert "1~3" in text and "%" in text

    def test_paper_reference_lookup(self):
        assert paper_reference("table3", "zh_en", "sdea") == (87.0, 96.6, 0.91)
        assert paper_reference("table9", "x", "y") is None


class TestLongtail:
    def test_longtail_analysis(self, tiny_pair, tiny_split):
        report = longtail_analysis("jape-stru", tiny_pair, tiny_split)
        assert set(report.buckets) == {"1~3", "4~10", "11+"}
        hits = report.hits_at_1()
        assert all(0.0 <= v <= 1.0 for v in hits.values())

    def test_format_longtail_table(self, tiny_pair, tiny_split):
        report = longtail_analysis("jape-stru", tiny_pair, tiny_split)
        text = format_longtail_table([report])
        assert "jape-stru" in text
        assert format_longtail_table([]) == "(no reports)"


class TestErrorAnalysis:
    def test_report_fields(self, tiny_pair, tiny_split):
        report = error_analysis(tiny_pair, tiny_split)
        assert isinstance(report, ErrorAnalysisReport)
        assert 0.0 <= report.no_matching_neighbor_fraction <= 1.0
        assert 0.0 <= report.numeric_fraction() <= 1.0
        text = report.format()
        assert "matching neighbors" in text

    def test_openea_like_has_fewer_matching_neighbors_than_dense(self):
        from repro.datasets import (
            DBP15KScale, OpenEAScale, build_dbp15k, build_openea,
        )
        dense = build_dbp15k("zh_en", scale=DBP15KScale(
            n_persons=30, n_places=12, n_clubs=6, n_countries=4))
        sparse = build_openea("d_w_15k_v1", scale=OpenEAScale(
            n_persons=30, n_places=12, n_clubs=6, n_countries=4))
        dense_report = error_analysis(dense)
        sparse_report = error_analysis(sparse)
        assert (sparse_report.no_matching_neighbor_fraction
                > dense_report.no_matching_neighbor_fraction)


class TestAttentionAnalysis:
    def test_report_on_tiny_fit(self, tiny_pair, tiny_sdea_config):
        from repro.core import SDEA
        from repro.experiments import analyze_attention
        model = SDEA(tiny_sdea_config)
        split = tiny_pair.split(seed=3)
        model.fit(tiny_pair, split)
        report = analyze_attention(model, tiny_pair, side=1)
        assert report.hub_count + report.specific_count > 0
        text = report.format()
        assert "attention/uniform" in text

    def test_requires_relation_module(self, tiny_pair, tiny_sdea_config):
        import pytest
        from repro.core import SDEA
        from repro.experiments import analyze_attention
        tiny_sdea_config.use_relation = False
        model = SDEA(tiny_sdea_config)
        model.fit(tiny_pair, tiny_pair.split(seed=3))
        with pytest.raises(RuntimeError):
            analyze_attention(model, tiny_pair)
