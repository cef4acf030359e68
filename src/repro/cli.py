"""Command-line interface for the SDEA reproduction.

Usage (installed as the ``repro`` console script)::

    repro datasets                      # list generated benchmarks
    repro stats    --dataset dbp15k/zh_en
    repro run      --dataset dbp15k/zh_en --method sdea --stable --trace
    repro run      --dataset srprs/dbp_yg --method jape-stru --health-gate
    repro obs                           # inspect the latest run record
    repro obs list                      # one row per run record
    repro obs diff                      # latest two runs, per-metric deltas
    repro obs compare a b c             # N-way results table
    repro obs watch                     # tail the live telemetry stream
    repro obs prune --keep 20           # cap retained run records
    repro obs rules                     # health-rule check vocabulary
    repro obs --chrome-trace out.json   # span data -> Perfetto trace
    repro profile --method sdea         # op-level profile + chrome trace
    repro table    --table 3            # regenerate a paper table
    repro export   --dataset srprs/en_fr --out ./data/en_fr
    repro lint     src tests            # autograd-aware static analysis
    repro shape-check                   # symbolic whole-model shape check
    repro ir       --method sdea --replay   # per-phase training-step IR + replay
    repro ir                            # IR-check every registered method
    repro ir       --method jape-stru --dot step.dot --format json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional

from . import obs
from .datasets import available_datasets, build_dataset
from .errors import UnknownNameError
from .experiments import (
    available_methods,
    format_dataset_stats_table,
    format_degree_table,
    format_results_table,
    run_experiment,
    run_suite,
)
from .experiments.report import write_report
from .experiments.suites import (
    FULL_METHODS,
    TABLE3_DATASETS,
    TABLE4_DATASETS,
    TABLE5_DATASETS,
    TABLE5_METHODS,
)
from .kg.io import save_graph, save_links
from .kg.validation import validate_pair


def _cmd_datasets(_: argparse.Namespace) -> int:
    for name in available_datasets():
        print(name)
    return 0


def _cmd_methods(_: argparse.Namespace) -> int:
    for name in available_methods():
        print(name)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    pair = build_dataset(args.dataset)
    print(format_dataset_stats_table({args.dataset: pair}))
    print()
    print(format_degree_table({args.dataset: pair}))
    print(f"\nground-truth links: {len(pair.links)}")
    print("test pairs with matching neighbors: "
          f"{100 * pair.matched_neighbor_fraction():.1f}%")
    return 0


def _print_health(health: Optional[dict]) -> None:
    if not health:
        return
    warn = health.get("alerts_warn", 0)
    fail = health.get("alerts_fail", 0)
    print(f"health: {len(health.get('rules', []))} rules, "
          f"{warn} warn / {fail} fail alerts")
    for alert in health.get("alerts", []):
        severity = str(alert.get("severity", "?")).upper()
        where = alert.get("provenance", "?")
        print(f"  [{severity}] {alert.get('rule', '?')}: "
              f"{alert.get('message', '')} (at {where})")


def _cmd_run(args: argparse.Namespace) -> int:
    pair = build_dataset(args.dataset)
    split = pair.split()
    print(f"dataset: {args.dataset}  "
          f"(train/valid/test = {len(split.train)}/{len(split.valid)}/"
          f"{len(split.test)})")
    if args.detect_anomaly:
        from .analysis import detect_anomaly
        anomaly_ctx = detect_anomaly()
    else:
        anomaly_ctx = nullcontext()
    # --health-gate arms the rule engine (defaults when no rules file);
    # --health-rules alone evaluates + reports without gating the exit.
    rule_texts: Optional[List[str]] = None
    if args.health_gate or args.health_rules:
        rule_texts = []
        if args.health_rules:
            from .obs.health import RuleError, load_rules_toml
            try:
                rule_texts = [r.text for r in
                              load_rules_toml(args.health_rules)]
            except (OSError, RuleError) as exc:
                print(f"cannot load health rules: {exc}", file=sys.stderr)
                return 2
    telemetry_on = args.telemetry or rule_texts is not None
    if args.capture_ir:
        from .analysis.ir import IRCapture
        ir_ctx = IRCapture()
    else:
        ir_ctx = nullcontext()
    from .analysis.anomaly import AnomalyError
    with obs.session(runs_dir=args.runs_dir, profile=args.profile,
                     telemetry=telemetry_on,
                     health_rules=rule_texts) as sess, \
            anomaly_ctx, ir_ctx:
        try:
            result = run_experiment(args.method, pair, split,
                                    with_stable_matching=args.stable)
        except AnomalyError as exc:
            if not args.health_gate:
                raise
            # The runner converted the anomaly into a fail alert (with
            # the op's creation-stack provenance) before re-raising.
            _print_health(sess.last_health)
            if sess.last_stream_path is not None:
                print(f"telemetry stream: {sess.last_stream_path}")
            print(f"run aborted: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            print()
            print(sess.tracer.report())
            print()
        if args.profile:
            print()
            print(sess.profiler.report())
            print()
    if args.capture_ir:
        if not ir_ctx.captures:
            print("ir capture: no backward observed (non-gradient method)")
        from .analysis.ir import run_passes
        for capture in ir_ctx.captures:
            capture.method = args.method
            print()
            print(run_passes(capture).to_text())
        print()
    print(f"{args.method}: {result.row()}  ({result.seconds:.1f}s)")
    if args.profile:
        print(f"profile: {result.total_flops_estimate:.4g} FLOPs estimated, "
              f"peak {result.peak_tensor_bytes} live tensor bytes")
    if result.record_path is not None:
        print(f"run record: {result.record_path}")
    if telemetry_on and sess.last_stream_path is not None:
        print(f"telemetry stream: {sess.last_stream_path}")
    _print_health(result.health)
    if args.health_gate and result.health \
            and result.health.get("alerts_fail", 0):
        print("health gate: FAIL", file=sys.stderr)
        return 1
    return 0


def _obs_show(args: argparse.Namespace) -> int:
    path = Path(args.record) if args.record else obs.latest_record(args.runs_dir)
    if path is None:
        print(f"no run records under {args.runs_dir!r}; "
              "use `repro run` to create one", file=sys.stderr)
        return 1
    try:
        record = obs.load_record(path)
    except FileNotFoundError:
        print(f"run record not found: {path}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, AttributeError) as exc:
        # malformed JSON, or JSON that is not a run record
        print(f"cannot read run record {path}: {exc}", file=sys.stderr)
        return 1
    if args.chrome_trace:
        try:
            trace_doc = obs.record_to_chrome_trace(record)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        out = obs.write_chrome_trace(args.chrome_trace, trace_doc)
        print(f"wrote chrome trace for {record.run_id} to {out} "
              "(open in https://ui.perfetto.dev)")
        return 0
    print(f"({path})")
    print(obs.format_record(record, with_spans=not args.no_spans,
                            with_metrics=not args.no_metrics))
    return 0


def _resolve_record(target: str, runs_dir: str) -> Path:
    """A record target: a path, a run id, or a record file name."""
    path = Path(target)
    if path.exists():
        return path
    matches = [p for p in obs.list_records(runs_dir)
               if p.stem == target or p.name == target]
    if not matches:
        raise FileNotFoundError(
            f"no run record {target!r} under {runs_dir!r} "
            "(pass a path or a run id from `repro obs list`)"
        )
    return matches[-1]


def _summary_dict(summary) -> dict:
    return {
        "run_id": summary.run_id,
        "path": str(summary.path),
        "method": summary.method,
        "dataset": summary.dataset,
        "schema_version": summary.schema_version,
        "results": summary.results,
        "timing": summary.timing,
        "peak_tensor_bytes": summary.peak_tensor_bytes,
        "alerts_warn": summary.alerts_warn,
        "alerts_fail": summary.alerts_fail,
        "stream": str(summary.stream) if summary.stream else None,
        "warnings": summary.warnings,
    }


def _obs_list(args: argparse.Namespace) -> int:
    from .obs import compare as compare_mod
    summaries = compare_mod.list_runs(args.runs_dir)
    if args.format == "json":
        print(json.dumps([_summary_dict(s) for s in summaries], indent=2))
    else:
        print(compare_mod.format_run_list(summaries))
    return 0


def _obs_diff(args: argparse.Namespace) -> int:
    from .obs import compare as compare_mod
    targets = list(args.targets)
    if not targets:
        records = obs.list_records(args.runs_dir)
        if len(records) < 2:
            print(f"need two run records under {args.runs_dir!r} to diff",
                  file=sys.stderr)
            return 1
        targets = [str(records[-2]), str(records[-1])]
    if len(targets) != 2:
        print("obs diff takes exactly two records (or none for the "
              "latest two)", file=sys.stderr)
        return 2
    try:
        path_a = _resolve_record(targets[0], args.runs_dir)
        path_b = _resolve_record(targets[1], args.runs_dir)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    diff = compare_mod.diff_records(path_a, path_b)
    if args.format == "json":
        print(compare_mod.format_diff_json(diff))
    elif args.format == "markdown":
        print(compare_mod.format_diff_markdown(diff))
    else:
        print(compare_mod.format_diff_text(diff))
    return 0


def _obs_compare(args: argparse.Namespace) -> int:
    from .obs import compare as compare_mod
    try:
        paths = [_resolve_record(t, args.runs_dir) for t in args.targets] \
            or obs.list_records(args.runs_dir)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not paths:
        print(f"no run records under {args.runs_dir!r}", file=sys.stderr)
        return 1
    summaries = compare_mod.compare_records(paths)
    if args.format == "json":
        print(json.dumps([_summary_dict(s) for s in summaries], indent=2))
    else:
        print(compare_mod.format_compare_table(summaries))
    return 0


def _obs_watch(args: argparse.Namespace) -> int:
    from .obs import telemetry as telemetry_mod
    stream = Path(args.stream) if args.stream \
        else telemetry_mod.latest_stream(args.runs_dir)
    if stream is None or not stream.exists():
        print(f"no telemetry stream under {args.runs_dir!r}; run with "
              "`repro run --telemetry` (or --health-gate) first",
              file=sys.stderr)
        return 1
    if args.once:
        events = telemetry_mod.read_stream(stream)
        print(f"({stream})")
        print(telemetry_mod.format_status_line(
            telemetry_mod.stream_status(events)))
        return 0
    print(f"watching {stream}  (ctrl-c to stop)")
    status: dict = {}
    events: List[dict] = []
    try:
        for event in telemetry_mod.iter_stream(
                stream, poll_seconds=args.interval, timeout=args.timeout):
            events.append(event)
            status = telemetry_mod.stream_status(events)
            line = telemetry_mod.format_status_line(status)
            print(f"\r\x1b[2K{line}", end="", flush=True)
    except KeyboardInterrupt:
        pass
    print()
    return 0


def _obs_prune(args: argparse.Namespace) -> int:
    from .obs import compare as compare_mod
    if args.keep is None or args.keep < 0:
        print("obs prune needs --keep N with N >= 0", file=sys.stderr)
        return 2
    removed = compare_mod.prune_runs(args.runs_dir, keep=args.keep)
    print(f"pruned {len(removed)} files "
          f"(keeping the newest {args.keep} records)")
    for path in removed:
        print(f"  removed {path}")
    return 0


def _obs_rules(_: argparse.Namespace) -> int:
    from .obs.health import DEFAULT_RULES, format_rule_table
    print(format_rule_table())
    print()
    print("default rules (armed by --health-gate when no rules file is "
          "given):")
    for rule in DEFAULT_RULES:
        print(f"  {rule}")
    return 0


_OBS_ACTIONS = {
    "show": _obs_show,
    "list": _obs_list,
    "diff": _obs_diff,
    "compare": _obs_compare,
    "watch": _obs_watch,
    "prune": _obs_prune,
    "rules": _obs_rules,
}


def _cmd_obs(args: argparse.Namespace) -> int:
    return _OBS_ACTIONS[args.action](args)


_TABLES = {
    "3": (TABLE3_DATASETS, FULL_METHODS),
    "4": (TABLE4_DATASETS, FULL_METHODS),
    "5": (TABLE5_DATASETS, TABLE5_METHODS),
}


def _cmd_table(args: argparse.Namespace) -> int:
    datasets, default_methods = _TABLES[args.table]
    methods = args.methods or list(default_methods)
    for dataset in datasets:
        pair = build_dataset(dataset)
        split = pair.split()
        results = run_suite(methods, pair, split)
        print(format_results_table(results, title=f"== {dataset} =="))
        print()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    pair = build_dataset(args.dataset)
    out = Path(args.out)
    save_graph(pair.kg1, out / "rel_triples_1", out / "attr_triples_1")
    save_graph(pair.kg2, out / "rel_triples_2", out / "attr_triples_2")
    links = [
        (pair.kg1.entity_uri(a), pair.kg2.entity_uri(b))
        for a, b in pair.links
    ]
    save_links(links, out / "ent_links")
    print(f"wrote OpenEA-format files to {out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    pair = build_dataset(args.dataset)
    report = validate_pair(pair)
    print(report.format(limit=args.limit))
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    path = write_report(args.results, args.out)
    print(f"wrote {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import format_json, format_text, lint_paths
    from .obs import metrics

    start = time.perf_counter()
    try:
        report = lint_paths(args.paths, select=args.select,
                            ignore=args.ignore)
    except FileNotFoundError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 1
    seconds = time.perf_counter() - start
    # Lands in the run-record metrics snapshot when an obs session is
    # active (no-op otherwise) — `repro obs` then shows lint runtime.
    metrics.histogram("analysis.lint_seconds").observe(seconds)
    metrics.counter("analysis.lint_violations").inc(
        len(report.violations))
    output = format_json(report) if args.format == "json" \
        else format_text(report)
    print(output)
    if args.format == "text":
        print(f"(linted {report.files_checked} files "
              f"in {seconds * 1000:.0f} ms)")
    return 1 if report.violations else 0


def _cmd_shape_check(args: argparse.Namespace) -> int:
    from .analysis.shapes.interpreter import (
        format_json as shapes_json,
        format_text as shapes_text,
        shape_check,
    )
    from .obs import metrics

    methods = None
    if args.method is not None:
        # shape_check reports a name without a probe as finding S006;
        # a name that is not a method at all is a usage error.
        if args.method not in available_methods():
            raise UnknownNameError("method", args.method,
                                   available_methods())
        methods = [args.method]
    start = time.perf_counter()
    report = shape_check(methods, select=args.select, ignore=args.ignore)
    seconds = time.perf_counter() - start
    # Same pattern as `repro lint`: lands in the run-record metrics
    # snapshot when an obs session is active, no-op otherwise.
    metrics.histogram("analysis.shapecheck_seconds").observe(seconds)
    metrics.counter("analysis.shapecheck_findings").inc(len(report.findings))
    output = shapes_json(report) if args.format == "json" \
        else shapes_text(report)
    print(output)
    if args.format == "text":
        print(f"(shape-checked {len(report.reports)} methods "
              f"in {seconds * 1000:.0f} ms)")
    return 1 if report.findings else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Op-level profile of one method's training loop.

    Without ``--dataset`` the method runs at unit-test scale on the tiny
    synthetic pair (seconds, not minutes) — enough to see the op mix,
    forward/backward split and FLOP distribution of the real code paths.
    """
    from .analysis.ir import tiny_method, tiny_pair
    from .experiments.methods import make_method
    from .obs import trace as obs_trace
    from .obs.profile import format_summary_json

    if args.dataset:
        pair = build_dataset(args.dataset)
        method = make_method(args.method)
    else:
        pair = tiny_pair()
        method = tiny_method(args.method)
    split = pair.split()
    with obs.session(runs_dir=None, profile=True) as sess:
        with obs_trace.span("profile", method=args.method,
                            dataset=pair.name):
            with obs_trace.span("fit"):
                method.fit(pair, split)
            with obs_trace.span("evaluate"):
                method.evaluate(split.test)
    profiler = sess.profiler
    if not profiler.stats:
        print(f"{args.method} executed no tensor ops "
              "(closed-form / non-gradient method); nothing to profile",
              file=sys.stderr)
        return 1
    if args.format == "json":
        print(format_summary_json(profiler, top=args.top))
    else:
        print(f"profile: {args.method} on {pair.name}")
        print()
        print(profiler.report(top=args.top))
    trace_out = args.trace_out or str(
        Path(args.runs_dir) / f"profile-{args.method}-trace.json"
    )
    out = obs.write_chrome_trace(trace_out, obs.build_chrome_trace(
        span_tree=sess.tracer.to_dict(),
        op_events=profiler.trace_events(),
        metadata={"method": args.method, "dataset": pair.name},
    ))
    print(f"chrome trace: {out}  (open in https://ui.perfetto.dev)")
    return 0


def _cmd_ir(args: argparse.Namespace) -> int:
    """Capture each training phase's step as IR, analyze, optionally replay.

    Runs the method (every registered method without ``--method``) at
    unit-test scale on the tiny synthetic pair, prints the G001–G013
    findings of every captured phase, and with ``--replay`` re-executes
    each captured step and verifies it bit-for-bit against what the
    eager engine produced.  A crashed fit is reported and the remaining
    methods still run.
    """
    from .analysis.ir import capture_method, replay, run_passes
    from .obs import metrics

    methods = [args.method] if args.method else available_methods()
    reports, dots, failures = [], [], 0
    for name in methods:
        start = time.perf_counter()
        if len(methods) > 1 and args.format == "text":
            print(f"== {name} ==")
        try:
            captures = capture_method(name)
        except UnknownNameError:
            raise
        except Exception as exc:  # report it and go on to the next method
            print(f"{name}: no capture: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failures += 1
            continue
        method_reports = []
        for capture in captures:
            report = run_passes(capture, select=args.select,
                                ignore=args.ignore)
            if args.replay:
                report.replay = replay(capture)
            if report.gating or (args.replay and not report.replay.ok):
                failures += 1
            if args.format == "text":
                print(report.to_text() + "\n")
            method_reports.append(report)
            dots.append(capture.graph.to_dot())
        seconds = time.perf_counter() - start
        # Same pattern as `repro lint` / `repro shape-check`: lands in
        # the run-record metrics snapshot when an obs session is active.
        metrics.histogram("analysis.ir_seconds").observe(seconds)
        metrics.counter("analysis.ir_findings").inc(
            sum(len(report.findings) for report in method_reports))
        reports += method_reports
        if args.format == "text":
            print(f"({len(captures)} phase(s) of {name} captured + "
                  f"analyzed in {seconds:.1f} s)")
    if args.dot:
        Path(args.dot).write_text("\n".join(dots), encoding="utf-8")
        # stderr under --format json keeps stdout pure JSON for piping
        print(f"wrote op graphs: {args.dot}  (one digraph per capture; "
              "render with `dot -Tsvg`)",
              file=sys.stderr if args.format == "json" else sys.stdout)
    if args.format == "json":
        print(json.dumps([report.to_dict() for report in reports],
                         indent=2, sort_keys=True))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SDEA reproduction (ICDE 2022) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list generated datasets") \
        .set_defaults(func=_cmd_datasets)
    sub.add_parser("methods", help="list alignment methods") \
        .set_defaults(func=_cmd_methods)

    stats = sub.add_parser("stats", help="dataset statistics (Tables I/VI)")
    stats.add_argument("--dataset", required=True)
    stats.set_defaults(func=_cmd_stats)

    run = sub.add_parser("run", help="train + evaluate one method")
    run.add_argument("--dataset", required=True)
    run.add_argument("--method", required=True)
    run.add_argument("--stable", action="store_true",
                     help="also report stable-matching Hits@1")
    run.add_argument("--trace", action="store_true",
                     help="print the hierarchical span-timing tree")
    run.add_argument("--detect-anomaly", action="store_true",
                     help="raise with op provenance on the first NaN/Inf "
                          "in a forward value or backward gradient")
    run.add_argument("--profile", action="store_true",
                     help="op-level autograd profiling: per-op wall time, "
                          "FLOP estimates, forward/backward split, "
                          "chrome trace next to the run record")
    run.add_argument("--runs-dir", default=obs.DEFAULT_RUNS_DIR,
                     help="directory for structured run records")
    run.add_argument("--telemetry", action="store_true",
                     help="stream live epoch/eval events to a tail-able "
                          "JSONL file next to the run record (plus a "
                          "Prometheus .prom exposition file); watch with "
                          "`repro obs watch`")
    run.add_argument("--health-gate", action="store_true",
                     help="evaluate health rules online (defaults: "
                          "loss/grad_norm nonfinite + grad spike) and "
                          "exit nonzero on any fail alert; implies "
                          "--telemetry")
    run.add_argument("--capture-ir", action="store_true",
                     help="capture one step of each training phase into "
                          "the analysis IR and print the G-finding reports "
                          "after the run (see `repro ir`)")
    run.add_argument("--health-rules", default=None, metavar="RULES.toml",
                     help="TOML file with a top-level `rules` string "
                          "array (see `repro obs rules`); implies "
                          "--telemetry")
    run.set_defaults(func=_cmd_run)

    obs_cmd = sub.add_parser(
        "obs",
        help="run observability: show/list/diff/compare/watch/prune "
             "records and live telemetry streams",
    )
    obs_cmd.add_argument("action", nargs="?", default="show",
                         choices=sorted(_OBS_ACTIONS),
                         help="show: pretty-print one record (default); "
                              "list: one row per record; diff: per-metric "
                              "deltas between two records; compare: N-way "
                              "table; watch: tail the live stream; prune: "
                              "cap retained records; rules: health-check "
                              "vocabulary")
    obs_cmd.add_argument("targets", nargs="*",
                         help="record paths or run ids (diff/compare)")
    obs_cmd.add_argument("--runs-dir", default=obs.DEFAULT_RUNS_DIR)
    obs_cmd.add_argument("--record", default=None,
                         help="path to a specific run-record JSON (show)")
    obs_cmd.add_argument("--no-spans", action="store_true",
                         help="omit the span tree")
    obs_cmd.add_argument("--no-metrics", action="store_true",
                         help="omit the metrics snapshot")
    obs_cmd.add_argument("--chrome-trace", default=None, metavar="OUT.json",
                         help="convert the record's span data to a "
                              "catapult/Perfetto trace file instead of "
                              "printing it")
    obs_cmd.add_argument("--format", choices=("text", "json", "markdown"),
                         default="text",
                         help="list/diff/compare output format")
    obs_cmd.add_argument("--keep", type=int, default=None,
                         help="prune: number of newest records to keep")
    obs_cmd.add_argument("--stream", default=None,
                         help="watch: stream file (default: most recently "
                              "modified *-stream.jsonl under --runs-dir)")
    obs_cmd.add_argument("--once", action="store_true",
                         help="watch: print one status line and exit")
    obs_cmd.add_argument("--interval", type=float, default=0.5,
                         help="watch: poll interval in seconds")
    obs_cmd.add_argument("--timeout", type=float, default=None,
                         help="watch: give up after this many seconds "
                              "without a stream_end event")
    obs_cmd.set_defaults(func=_cmd_obs)

    profile = sub.add_parser(
        "profile",
        help="op-level autograd profile of one method (tiny synthetic "
             "pair by default): per-op wall time, FLOPs, fwd/bwd split, "
             "chrome trace",
    )
    profile.add_argument("--method", required=True)
    profile.add_argument("--dataset", default=None,
                         help="profile on a real dataset instead of the "
                              "tiny synthetic pair (slower)")
    profile.add_argument("--top", type=int, default=15,
                         help="rows in the per-op table")
    profile.add_argument("--format", choices=("text", "json"),
                         default="text")
    profile.add_argument("--trace-out", default=None,
                         help="chrome-trace output path (default: "
                              "<runs-dir>/profile-<method>-trace.json)")
    profile.add_argument("--runs-dir", default=obs.DEFAULT_RUNS_DIR)
    profile.set_defaults(func=_cmd_profile)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("--table", required=True, choices=sorted(_TABLES))
    table.add_argument("--methods", nargs="*", default=None)
    table.set_defaults(func=_cmd_table)

    export = sub.add_parser("export", help="write OpenEA-format files")
    export.add_argument("--dataset", required=True)
    export.add_argument("--out", required=True)
    export.set_defaults(func=_cmd_export)

    validate = sub.add_parser(
        "validate", help="sanity-check a dataset (duplicates, orphans, ...)"
    )
    validate.add_argument("--dataset", required=True)
    validate.add_argument("--limit", type=int, default=20)
    validate.set_defaults(func=_cmd_validate)

    report = sub.add_parser(
        "report", help="compose EXPERIMENTS.md from benchmark results"
    )
    report.add_argument("--results", default="benchmarks/results")
    report.add_argument("--out", default="EXPERIMENTS.md")
    report.set_defaults(func=_cmd_report)

    lint = sub.add_parser(
        "lint", help="autograd-aware static analysis (see "
                     "docs/static_analysis.md)"
    )
    lint.add_argument("paths", nargs="+",
                      help="files or directories to lint recursively")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--select", nargs="*", default=None,
                      help="restrict to specific rule ids (e.g. R001 R002)")
    lint.add_argument("--ignore", nargs="*", default=None,
                      help="skip specific rule ids (e.g. R005)")
    lint.set_defaults(func=_cmd_lint)

    shape = sub.add_parser(
        "shape-check",
        help="abstractly execute every registered method over symbolic "
             "dims and report shape/dtype/broadcast findings (see "
             "docs/static_analysis.md)",
    )
    shape.add_argument("--method", default=None,
                       help="check one method (default: all registered)")
    shape.add_argument("--format", choices=("text", "json"), default="text")
    shape.add_argument("--select", nargs="*", default=None,
                       help="restrict to specific finding codes "
                            "(e.g. S001 S002)")
    shape.add_argument("--ignore", nargs="*", default=None,
                       help="skip specific finding codes (e.g. S003)")
    shape.set_defaults(func=_cmd_shape_check)

    ir = sub.add_parser(
        "ir",
        help="capture one step of each training phase as an SSA-style op "
             "graph, run compiler-style passes (liveness, dead ops, "
             "fusion legality, gradient checks, ... — codes G001-G013) "
             "and optionally verify the IR with a bit-for-bit replay",
    )
    ir.add_argument("--method", default=None,
                    help="one registered method (default: every method)")
    ir.add_argument("--format", choices=("text", "json"), default="text")
    ir.add_argument("--select", nargs="*", default=None,
                    help="restrict to specific finding codes "
                         "(e.g. G002 G005)")
    ir.add_argument("--ignore", nargs="*", default=None,
                    help="skip specific finding codes (e.g. G004)")
    ir.add_argument("--replay", action="store_true",
                    help="re-execute each captured step and assert outputs "
                         "and parameter gradients match eager bit-for-bit")
    ir.add_argument("--dot", default=None, metavar="OUT.dot",
                    help="also write the op graphs in graphviz format")
    ir.set_defaults(func=_cmd_ir)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
