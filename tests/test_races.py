"""Dynamic race sanitizer: recorders, conflict rules, and scenarios.

The sanitizer's value hinges on two directions staying true at once:
the shipped hot paths must run clean under an 8-thread barrier
harness, and a deliberately unsynchronized workload must reliably
produce findings.  Both are pinned here, along with unit coverage of
the recording wrappers and each D-code's trigger condition.
"""

import threading

from repro.analysis.races import (
    Sanitizer,
    Scenario,
    default_scenarios,
    race_check,
    scenario_names,
)
from repro.concurrency import (
    IMMUTABLE,
    NEEDS_MERGE,
    SYNCHRONIZED,
    UNSAFE,
)

THREADS = 4
ROUNDS = 2


def run_scenario(scenario, threads=THREADS, rounds=ROUNDS):
    return race_check(threads=threads, rounds=rounds, scenarios=[scenario])


def codes(report):
    return sorted(f.code for f in report.findings)


# ---------------------------------------------------------------------- #
# Recording wrappers
# ---------------------------------------------------------------------- #
class TestRecorders:
    def test_dict_wrapper_records_reads_and_writes(self):
        sanitizer = Sanitizer()
        wrapped = sanitizer.watch_value("cell", {"a": 1}, UNSAFE)
        wrapped["b"] = 2
        assert wrapped["a"] == 1
        assert "b" in wrapped
        kinds = [(r.kind) for r in sanitizer.log.records()]
        assert kinds.count("write") == 1
        assert kinds.count("read") == 2

    def test_list_wrapper_records_reads_and_writes(self):
        sanitizer = Sanitizer()
        wrapped = sanitizer.watch_value("cell", [1, 2], UNSAFE)
        wrapped.append(3)
        assert wrapped[0] == 1
        assert list(wrapped) == [1, 2, 3]
        kinds = [r.kind for r in sanitizer.log.records()]
        assert "write" in kinds and "read" in kinds

    def test_proxy_wrapper_delegates_and_records(self):
        class Thing:
            label = "x"

        sanitizer = Sanitizer()
        wrapped = sanitizer.watch_value("cell", Thing(), UNSAFE)
        assert wrapped.label == "x"
        wrapped.label = "y"
        assert wrapped.label == "y"
        kinds = [r.kind for r in sanitizer.log.records()]
        assert kinds.count("write") == 1
        assert kinds.count("read") == 2

    def test_guard_held_tracks_the_lock(self):
        guard = threading.Lock()
        sanitizer = Sanitizer()
        wrapped = sanitizer.watch_value("cell", {}, SYNCHRONIZED, guard=guard)
        wrapped["unguarded"] = 1
        with guard:
            wrapped["guarded"] = 2
        held = {r.where: r.guard_held for r in sanitizer.log.records()}
        flags = [r.guard_held for r in sanitizer.log.records()
                 if r.kind == "write"]
        assert flags == [False, True], held

    def test_watch_and_uninstall_restore_manifest_slot(self):
        from repro.obs import attribution

        original = attribution._NAME_CACHE
        sanitizer = Sanitizer()
        sanitizer.watch("obs.attribution.name_cache")
        assert attribution._NAME_CACHE is not original
        sanitizer.uninstall()
        assert attribution._NAME_CACHE is original


# ---------------------------------------------------------------------- #
# Conflict rules (one scenario per D-code)
# ---------------------------------------------------------------------- #
class TestConflictRules:
    def _shared_cell_scenario(self, classification, body, guard=None):
        holder = {}

        def setup(sanitizer):
            holder["cell"] = sanitizer.watch_value(
                "test.cell", {}, classification, guard=guard)
            return holder

        return Scenario(name="synthetic", slots=(), body=body, setup=setup)

    def test_d001_unguarded_concurrent_writes(self):
        def body(ctx, index, round_index):
            ctx["cell"][f"k{index}"] = index
            return None

        report = run_scenario(self._shared_cell_scenario(UNSAFE, body))
        assert "D001" in codes(report)

    def test_d001_on_synchronized_slot_ignoring_its_guard(self):
        guard = threading.Lock()

        def body(ctx, index, round_index):
            ctx["cell"][f"k{index}"] = index  # never takes the guard
            return None

        report = run_scenario(
            self._shared_cell_scenario(SYNCHRONIZED, body, guard=guard))
        assert "D001" in codes(report)

    def test_clean_when_synchronized_writers_hold_the_guard(self):
        guard = threading.Lock()

        def body(ctx, index, round_index):
            with guard:
                ctx["cell"][f"k{index}"] = index
            return None

        report = run_scenario(
            self._shared_cell_scenario(SYNCHRONIZED, body, guard=guard))
        assert codes(report) == []

    def test_d002_single_writer_with_racing_readers(self):
        def body(ctx, index, round_index):
            if index == 0:
                ctx["cell"]["k"] = round_index
            else:
                ctx["cell"].get("k")
            return None

        report = run_scenario(
            self._shared_cell_scenario(NEEDS_MERGE, body))
        assert "D002" in codes(report)

    def test_d003_write_to_immutable_slot(self):
        def body(ctx, index, round_index):
            if index == 0 and round_index == 0:
                ctx["cell"]["k"] = 1
            return None

        report = run_scenario(self._shared_cell_scenario(IMMUTABLE, body))
        assert codes(report) == ["D003"]

    def test_d004_scenario_assertion_failure(self):
        def body(ctx, index, round_index):
            if index == 1 and round_index == 0:
                return "deliberate failure"
            return None

        scenario = Scenario(name="asserting", slots=(), body=body)
        report = run_scenario(scenario)
        assert codes(report) == ["D004"]
        assert "deliberate failure" in report.findings[0].message

    def test_d004_from_raised_exception(self):
        def body(ctx, index, round_index):
            if index == 0:
                raise RuntimeError("boom")
            return None

        scenario = Scenario(name="raising", slots=(), body=body)
        report = run_scenario(scenario, rounds=1)
        assert codes(report) == ["D004"]
        assert "boom" in report.findings[0].message

    def test_single_thread_reports_nothing_but_d003(self):
        def body(ctx, index, round_index):
            ctx["cell"]["k"] = index
            ctx["cell"].get("k")
            return None

        report = run_scenario(
            self._shared_cell_scenario(UNSAFE, body), threads=1)
        assert codes(report) == []


# ---------------------------------------------------------------------- #
# The shipped harness
# ---------------------------------------------------------------------- #
class TestDefaultHarness:
    def test_scenario_names_are_stable(self):
        assert scenario_names() == [s.name for s in default_scenarios()]
        expected = {
            "attribution-names", "metrics-updates", "forward-hooks",
            "grad-mode-isolation", "kernel-toggle", "shape-sig-cache",
            "topk-shards",
        }
        assert set(scenario_names()) == expected

    def test_default_harness_is_race_clean(self):
        report = race_check(threads=THREADS, rounds=1)
        messages = "\n".join(f.format() for f in report.findings)
        assert not report.findings, "\n" + messages
        assert report.accesses > 100, "sanitizer recorded almost nothing"
        assert len(report.scenarios) == 7

    def test_report_json_round_trips(self):
        import json

        report = race_check(threads=2, rounds=1)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["counts"] == {}
        assert payload["stats"]["threads"] == 2
        assert len(payload["stats"]["scenarios"]) == 7

    def test_report_text_format(self):
        report = race_check(threads=2, rounds=1)
        text = report.to_text()
        assert text.splitlines()[0].startswith("race-check: 7 scenario(s)")
        assert text.rstrip().endswith("0 findings")

    def test_select_ignore_filter_dynamic_findings(self):
        def body(ctx, index, round_index):
            ctx["cell"][f"k{index}"] = index
            return None

        holder = {}

        def setup(sanitizer):
            holder["cell"] = sanitizer.watch_value("test.cell", {}, UNSAFE)
            return holder

        scenario = Scenario(name="synthetic", slots=(), body=body,
                            setup=setup)
        report = race_check(threads=THREADS, rounds=1,
                            scenarios=[scenario], ignore=["D001"])
        assert codes(report) == []
