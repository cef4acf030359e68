"""Shard-safety effect analysis: call graph, findings C001–C006, formats.

Three layers of coverage:

* self-gate — the shipped ``src/repro`` tree must analyze clean, with
  every declared entry point carrying its ``@shard_safe`` contract;
* synthetic packages — each finding code is pinned with a minimal
  package written to ``tmp_path`` that makes exactly that code fire
  (and a noqa'd twin that suppresses it);
* reporters — golden checks over the text and JSON renderings so the
  CLI output format stays stable.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.effects import (
    analyze_effects,
    effects_of,
    scan_package,
)
from repro.analysis.effects.callgraph import call_sites

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_pkg(tmp_path, name, files):
    """Write a package ``name`` with ``{relpath: source}`` under tmp_path."""
    root = tmp_path / name
    root.mkdir()
    (root / "__init__.py").write_text("")
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        parent = path.parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            parent = parent.parent
        path.write_text(textwrap.dedent(source))
    return root


def codes(report):
    return sorted(f.code for f in report.findings)


# ---------------------------------------------------------------------- #
# Self-gate on the real package
# ---------------------------------------------------------------------- #
class TestSelfGate:
    def test_src_tree_is_effect_clean(self):
        report = analyze_effects()
        assert report.functions > 1000, "package scan came back nearly empty"
        assert report.modules > 100
        assert report.edges > 1000
        messages = "\n".join(f.format() for f in report.findings)
        assert not report.findings, "\n" + messages

    def test_all_declared_entry_points_have_contracts(self):
        report = analyze_effects()
        contracted = {entry.function for entry in report.entries}
        assert contracted == {
            "repro.align.similarity.chunked_cosine_topk",
            "repro.align.evaluator.evaluate_embeddings",
            "repro.core.trainer.pretrain_attribute_module",
            "repro.core.trainer.train_relation_model",
            "repro.experiments.runner.run_experiment",
            "repro.experiments.runner.run_suite",
        }

    def test_topk_entry_effects_are_pure_modulo_metrics(self):
        effects = effects_of("repro.align.similarity.chunked_cosine_topk")
        kinds = {rendered.split("(", 1)[0] for rendered, _ in effects}
        assert "writes-global" not in kinds
        assert "io" not in kinds
        assert "rng-draw" not in kinds

    def test_effects_of_unknown_function_raises(self):
        with pytest.raises(KeyError):
            effects_of("repro.not.a.function")


# ---------------------------------------------------------------------- #
# Call graph construction
# ---------------------------------------------------------------------- #
class TestCallGraph:
    def test_scan_finds_functions_methods_and_globals(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            _registry = {}
            CONST = (1, 2)

            def helper():
                return 1

            class Thing:
                def method(self):
                    return helper()
        """})
        graph = scan_package(root, package="pkg")
        assert "pkg.mod.helper" in graph.functions
        assert "pkg.mod.Thing.method" in graph.functions
        assert "_registry" in graph.modules["pkg.mod"].globals
        assert "Thing" in graph.modules["pkg.mod"].classes

    def test_same_module_call_edge_resolves(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            def helper():
                return 1

            def caller():
                return helper()
        """})
        graph = scan_package(root, package="pkg")
        sites = call_sites(graph, graph.functions["pkg.mod.caller"])
        assert any(s.callee == "pkg.mod.helper" for s in sites)

    def test_self_method_and_super_resolve_via_declared_bases(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            class Base:
                def __init__(self):
                    self.x = 0

            class Unrelated:
                def __init__(self):
                    self.y = 1

            class Child(Base):
                def __init__(self):
                    super().__init__()

                def run(self):
                    return self.step()

                def step(self):
                    return 2
        """})
        graph = scan_package(root, package="pkg")
        init_sites = call_sites(graph, graph.functions["pkg.mod.Child.__init__"])
        callees = {s.callee for s in init_sites}
        assert "pkg.mod.Base.__init__" in callees
        # super() must follow the declared base chain, never a name-wide
        # search that would also pull in Unrelated.__init__.
        assert "pkg.mod.Unrelated.__init__" not in callees
        run_sites = call_sites(graph, graph.functions["pkg.mod.Child.run"])
        assert any(s.callee == "pkg.mod.Child.step" for s in run_sites)

    def test_cross_module_call_resolves_through_import(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {
            "util.py": """
                def shared():
                    return 1
            """,
            "mod.py": """
                from .util import shared

                def caller():
                    return shared()
            """,
        })
        graph = scan_package(root, package="pkg")
        sites = call_sites(graph, graph.functions["pkg.mod.caller"])
        assert any(s.callee == "pkg.util.shared" for s in sites)

    def test_arg_alias_map_tracks_caller_params(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            def mutator(target):
                target.append(1)

            def caller(items):
                mutator(items)
        """})
        graph = scan_package(root, package="pkg")
        sites = call_sites(graph, graph.functions["pkg.mod.caller"])
        site = next(s for s in sites if s.callee == "pkg.mod.mutator")
        assert site.arg_map.get("target") == "items"


# ---------------------------------------------------------------------- #
# Finding codes on synthetic packages
# ---------------------------------------------------------------------- #
class TestFindingCodes:
    def test_c001_unregistered_global_write(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            _cache = {}

            def bad():
                global _cache
                _cache = {}
        """})
        report = analyze_effects(root=root, package="pkg", select=["C001"])
        assert codes(report) == ["C001"]
        assert "pkg.mod:_cache" in report.findings[0].message

    def test_c001_interprocedural_through_helper(self, tmp_path):
        """The write is reported where it happens, found via any caller."""
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            _state = {}

            def inner():
                global _state
                _state = {}

            def outer():
                inner()
        """})
        report = analyze_effects(root=root, package="pkg", select=["C001"])
        assert codes(report) == ["C001"]
        assert "pkg.mod.inner" in report.findings[0].message

    def test_c002_legacy_np_random(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            import numpy as np

            def draw():
                return np.random.rand(3)
        """})
        report = analyze_effects(root=root, package="pkg", select=["C002"])
        assert codes(report) == ["C002"]
        assert "legacy numpy global RNG" in report.findings[0].message

    def test_c002_module_level_generator(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            import numpy as np

            _rng = np.random.default_rng(0)

            def draw():
                return _rng.integers(10)
        """})
        report = analyze_effects(root=root, package="pkg", select=["C002"])
        assert codes(report) == ["C002"]
        assert "pkg.mod:_rng" in report.findings[0].message

    def test_c002_explicit_generator_param_is_clean(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            def draw(rng):
                return rng.integers(10)
        """})
        report = analyze_effects(root=root, package="pkg", select=["C002"])
        assert codes(report) == []

    def test_c003_slot_bypass_write(self, tmp_path):
        # A mini tree that shadows a real manifest location: writes from
        # anything but the sanctioned installer are bypasses.
        root = make_pkg(tmp_path, "repro", {"obs/metrics.py": """
            _default = None

            def set_registry(registry):
                global _default
                _default = registry

            def sneaky():
                global _default
                _default = None
        """})
        report = analyze_effects(root=root, package="repro", select=["C003"])
        assert codes(report) == ["C003"]
        assert "repro.obs.metrics.sneaky" in report.findings[0].message
        assert "obs.metrics.registry" in report.findings[0].message

    def test_c004_contract_rng_violation(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"entry.py": """
            import numpy as np
            from repro.concurrency import shard_safe

            @shard_safe(note="test entry")
            def step():
                return np.random.rand(2)
        """})
        report = analyze_effects(root=root, package="pkg", select=["C004"])
        assert codes(report) == ["C004"]
        assert "shared RNG state" in report.findings[0].message

    def test_c004_undeclared_arg_mutation(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"entry.py": """
            from repro.concurrency import shard_safe

            @shard_safe(note="test entry")
            def step(batch):
                batch.append(1)
        """})
        report = analyze_effects(root=root, package="pkg", select=["C004"])
        assert codes(report) == ["C004"]
        assert "mutates parameter 'batch'" in report.findings[0].message

    def test_c004_declared_mutation_is_clean(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"entry.py": """
            from repro.concurrency import shard_safe

            @shard_safe(mutates=("batch",), note="test entry")
            def step(batch):
                batch.append(1)
        """})
        report = analyze_effects(root=root, package="pkg", select=["C004"])
        assert codes(report) == []

    def test_c005_stale_manifest_against_foreign_tree(self, tmp_path):
        """Scanning a tree without the manifest's modules flags staleness."""
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            def noop():
                return None
        """})
        report = analyze_effects(root=root, package="pkg", select=["C005"])
        assert report.findings, "manifest cross-check did not run"
        assert all(f.code == "C005" for f in report.findings)
        assert any("not part of the scanned package" in f.message
                   for f in report.findings)

    def test_c006_undeclared_io_is_a_warning(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"entry.py": """
            from repro.concurrency import shard_safe

            @shard_safe(note="test entry")
            def step():
                with open("/tmp/x", "w") as fh:
                    fh.write("hi")
        """})
        report = analyze_effects(root=root, package="pkg", select=["C006"])
        assert codes(report) == ["C006"]
        assert report.findings[0].severity == "warning"

    def test_c006_declared_io_is_clean(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"entry.py": """
            from repro.concurrency import shard_safe

            @shard_safe(io=True, note="test entry")
            def step():
                with open("/tmp/x", "w") as fh:
                    fh.write("hi")
        """})
        report = analyze_effects(root=root, package="pkg", select=["C006"])
        assert codes(report) == []

    def test_noqa_suppresses_and_is_counted(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            import numpy as np

            def draw():
                return np.random.rand(3)  # repro: noqa[C002]
        """})
        report = analyze_effects(root=root, package="pkg", select=["C002"])
        assert codes(report) == []
        assert report.suppressed >= 1

    def test_select_and_ignore_filters(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            import numpy as np

            _cache = {}

            def bad():
                global _cache
                _cache = {}
                return np.random.rand(3)
        """})
        both = analyze_effects(root=root, package="pkg",
                               select=["C001", "C002"])
        assert codes(both) == ["C001", "C002"]
        only = analyze_effects(root=root, package="pkg",
                               select=["C001", "C002"], ignore=["C001"])
        assert codes(only) == ["C002"]


# ---------------------------------------------------------------------- #
# Reporters (golden formats)
# ---------------------------------------------------------------------- #
class TestReporters:
    def _report(self, tmp_path):
        root = make_pkg(tmp_path, "pkg", {"mod.py": """
            import numpy as np

            def draw():
                return np.random.rand(3)
        """})
        return analyze_effects(root=root, package="pkg", select=["C002"])

    def test_finding_text_format(self, tmp_path):
        report = self._report(tmp_path)
        line = report.findings[0].format()
        assert line.startswith("[error] C002 shared-rng-draw: ")
        assert line.endswith("(at pkg/mod.py:5)")

    def test_report_text_has_header_and_count(self, tmp_path):
        text = self._report(tmp_path).to_text()
        assert "call edges" in text.splitlines()[0]
        assert "1 finding(s): C002×1" in text

    def test_report_json_is_serializable_and_stable(self, tmp_path):
        payload = self._report(tmp_path).to_json()
        encoded = json.loads(json.dumps(payload))
        assert encoded["counts"] == {"C002": 1}
        assert encoded["findings"][0]["code"] == "C002"
        assert set(encoded["stats"]) == {
            "modules", "functions", "edges", "sccs", "suppressed"}
        assert encoded["entries"] == []

    def test_self_json_entries_carry_contracts(self):
        payload = analyze_effects().to_json()
        entries = {e["function"]: e for e in payload["entries"]}
        topk = entries["repro.align.similarity.chunked_cosine_topk"]
        assert topk["contract"]["merges"] == ["obs.metrics.registry"]
        assert topk["contract"]["io"] is False
