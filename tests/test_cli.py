"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "dbp15k/zh_en" in out
        assert "openea/d_w_100k_v1" in out

    def test_methods_lists_all(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "sdea" in out
        assert "bert-int" in out

    def test_stats(self, capsys):
        assert main(["stats", "--dataset", "srprs/dbp_yg"]) == 0
        out = capsys.readouterr().out
        assert "Entities" in out
        assert "1~3" in out

    def test_run_fast_method(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert main(["run", "--dataset", "srprs/dbp_wd",
                     "--method", "jape-stru",
                     "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "jape-stru" in out
        assert "H@1" in out
        assert "run record:" in out
        assert list(runs_dir.glob("*.json")), "run record was not written"

    def test_table_rejects_bad_number(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "--table", "9"])

    def test_export_writes_openea_layout(self, tmp_path, capsys):
        out_dir = tmp_path / "exported"
        assert main(["export", "--dataset", "srprs/dbp_yg",
                     "--out", str(out_dir)]) == 0
        for name in ("rel_triples_1", "rel_triples_2", "attr_triples_1",
                     "attr_triples_2", "ent_links"):
            assert (out_dir / name).exists(), name

    def test_export_roundtrips(self, tmp_path):
        from repro.kg import KGPair, load_graph, load_links
        out_dir = tmp_path / "exported"
        main(["export", "--dataset", "srprs/dbp_yg", "--out", str(out_dir)])
        kg1 = load_graph(out_dir / "rel_triples_1", out_dir / "attr_triples_1")
        kg2 = load_graph(out_dir / "rel_triples_2", out_dir / "attr_triples_2")
        links = load_links(out_dir / "ent_links")
        pair = KGPair.from_uri_links(kg1, kg2, links)
        assert len(pair.links) == len(links)

    def test_validate_dataset(self, capsys):
        code = main(["validate", "--dataset", "srprs/dbp_yg"])
        out = capsys.readouterr().out
        # generated datasets are clean of link-level issues; graph-level
        # duplicates may legitimately exist, so accept either exit code
        assert code in (0, 1)
        assert out.strip()

    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_lint_dirty_file_exits_nonzero_with_rule_ids(self, tmp_path,
                                                         capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import numpy as np\n"
            "def f(x):\n"
            "    x.data[0] = np.random.rand()\n"
        )
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "R002" in out
        assert f"{dirty}:3:" in out  # file:line anchors

    def test_lint_json_format(self, tmp_path, capsys):
        import json
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert main(["lint", str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"R002": 1}

    def test_lint_select_restricts_rules(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import numpy as np\n"
            "def f(x):\n"
            "    x.data[0] = np.random.rand()\n"
        )
        assert main(["lint", str(dirty), "--select", "R001"]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "R002" not in out

    def test_lint_ignore_drops_rules(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import numpy as np\n"
            "def f(x):\n"
            "    x.data[0] = np.random.rand()\n"
        )
        assert main(["lint", str(dirty), "--ignore", "R002"]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "R002" not in out

    def test_lint_missing_path_fails_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "no_such_dir"
        assert main(["lint", str(missing)]) != 0
        assert str(missing) in capsys.readouterr().err

    def test_lint_records_runtime_metric(self, tmp_path):
        from repro.obs import Registry, use_registry
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        registry = Registry()
        with use_registry(registry):
            main(["lint", str(clean)])
        snapshot = registry.snapshot()
        assert any("lint_seconds" in name for name in snapshot)

    def test_ir_single_method(self, capsys):
        assert main(["ir", "--method", "mtranse"]) == 0
        out = capsys.readouterr().out
        assert "method=mtranse" in out
        assert "1 phase(s) of mtranse" in out

    def test_ir_unknown_method_fails(self, capsys):
        assert main(["ir", "--method", "not-a-method"]) == 1
        assert "unknown method" in capsys.readouterr().err

    def test_ir_all_methods_goes_on_past_a_crashed_fit(self, monkeypatch,
                                                       capsys):
        import repro.analysis.ir as ir
        import repro.cli as cli

        real_capture = ir.capture_method

        def capture(name):
            if name == "boom":
                raise ValueError("fit exploded")
            return real_capture(name)

        monkeypatch.setattr(cli, "available_methods",
                            lambda: ["boom", "mtranse"])
        monkeypatch.setattr(ir, "capture_method", capture)
        assert main(["ir"]) == 1
        captured = capsys.readouterr()
        assert "boom: no capture: ValueError: fit exploded" in captured.err
        assert "== mtranse ==" in captured.out
        assert "method=mtranse" in captured.out

    def test_run_with_detect_anomaly(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        assert main(["run", "--dataset", "srprs/dbp_wd",
                     "--method", "jape-stru", "--detect-anomaly",
                     "--runs-dir", str(runs_dir)]) == 0
        assert "H@1" in capsys.readouterr().out

    def test_report_command(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table3_zh_en.txt").write_text("ROWS\n")
        out_file = tmp_path / "EXP.md"
        assert main(["report", "--results", str(results),
                     "--out", str(out_file)]) == 0
        assert out_file.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["run", "--dataset", "nope/x", "--method", "jape-stru"],
         "unknown dataset 'nope/x'"),
        (["stats", "--dataset", "nope/x"], "unknown dataset 'nope/x'"),
        (["export", "--dataset", "nope/x", "--out", "TMP"],
         "unknown dataset 'nope/x'"),
        (["profile", "--method", "jape-stru", "--dataset", "nope/x"],
         "unknown dataset 'nope/x'"),
        (["run", "--dataset", "srprs/dbp_yg", "--method", "nope"],
         "unknown method 'nope'"),
        (["table", "--table", "3", "--methods", "nope"],
         "unknown method 'nope'"),
        (["obs", "prune", "--keep", "-1"], "--keep N with N >= 0"),
    ], ids=["run-dataset", "stats-dataset", "export-dataset",
            "profile-dataset", "run-method", "table-methods",
            "prune-negative-keep"])
    def test_exits_nonzero_with_a_message(self, argv, message, tmp_path,
                                          capsys):
        # KeyError / ValueError escaping main would fail the test here.
        argv = [str(tmp_path) if arg == "TMP" else arg for arg in argv]
        if argv[0] in ("run", "profile", "obs"):
            argv += ["--runs-dir", str(tmp_path)]
        assert main(argv) != 0
        assert message in capsys.readouterr().err


class TestShapeCheckCommand:
    def test_single_method_text(self, capsys):
        assert main(["shape-check", "--method", "sdea"]) == 0
        out = capsys.readouterr().out
        assert "== sdea == ok" in out
        assert "0 findings across 1 method(s)" in out
        assert "shape-checked 1 methods" in out

    def test_all_methods_are_clean(self, capsys):
        from repro.experiments import available_methods

        assert main(["shape-check"]) == 0
        out = capsys.readouterr().out
        assert f"0 findings across {len(available_methods())} method(s)" in out

    def test_json_format(self, capsys):
        import json

        assert main(["shape-check", "--method", "mtranse",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["methods_checked"] == 1
        assert payload["counts"] == {}
        assert payload["methods"][0]["method"] == "mtranse"

    def test_select_and_ignore_are_accepted(self, capsys):
        assert main(["shape-check", "--method", "gcn",
                     "--select", "S001", "S002",
                     "--ignore", "S003"]) == 0
        assert "== gcn == ok" in capsys.readouterr().out

    def test_unknown_method_fails(self, capsys):
        assert main(["shape-check", "--method", "not-a-method"]) == 1
        assert "unknown method" in capsys.readouterr().err

    def test_records_runtime_metric(self):
        from repro.obs import Registry, use_registry

        registry = Registry()
        with use_registry(registry):
            main(["shape-check", "--method", "mtranse"])
        snapshot = registry.snapshot()
        assert any("shapecheck_seconds" in name for name in snapshot)
