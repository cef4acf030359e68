"""End-to-end benchmark of the SDEA reproduction.

    python3 e2ebench/run.py --workload sdea-srprs --seed 31 --seconds 30 --trace 0

Runs the workload's operations again and again, each repetition in a
fresh interpreter (``op.py``), for ``--seconds`` seconds, and reports
medians over the repetitions.  ``--seed`` is the dataset generator's
seed.  With ``--trace 1`` the first repetition runs traced and gives the
per-layer metrics; the others run untraced and give the median the
tracing overhead is measured against.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it from the
root of a checkout; it writes only ``.bench_tmp/`` (removed on exit) and
``.bench_out/`` (one span file per traced run) there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up alone is under a second, so an untraced run also starts this
# many set-up-only interpreters and reports the median over all set-ups.
SETUP_PROBES = 4
# A run must end within 180 s; no repetition may run past this.
DEADLINE_S = 170.0

END_TO_END = {
    "run_s": "s", "setup_s": "s", "steps_per_s": "1/s",
    "peak_rss_mb": "MB", "hits_at_1": "ratio", "mrr": "ratio",
}
PER_LAYER = {
    "text.mlm_s": "s", "text.mlm_steps": "count", "text.mlm_step_ms": "ms",
    "text.tokenizer_train_s": "s", "text.corpus_stats_s": "s",
    "core.attr_pretrain_s": "s", "core.encode_s": "s",
    "core.encode_calls": "count", "core.encode_rows": "count",
    "core.encode_redundant_calls": "count", "core.attr_train_s": "s",
    "core.attr_steps": "count", "core.candidates_s": "s",
    "core.candidate_recall": "ratio", "core.rel_train_s": "s",
    "core.rel_steps": "count", "core.embed_all_s": "s",
    "kg.sequences_s": "s", "kg.neighbor_index_s": "s",
    "nn.backward_s": "s", "nn.backward_calls": "count",
    "nn.optim_step_s": "s", "nn.optim_steps": "count", "nn.clip_s": "s",
    "align.evaluate_s": "s", "align.evaluate_calls": "count",
    "align.topk_s": "s", "baselines.gcn_fit_s": "s",
    "baselines.cea_levenshtein_s": "s",
    "baselines.bert_int_interaction_s": "s", "datasets.build_s": "s",
    "obs.record_write_s": "s", "obs.record_bytes": "bytes",
    "host.calib_s": "s", "host.blas_threads": "count",
    "bench.trace_overhead_share": "ratio", "bench.unattributed_share": "ratio",
}


def host_description(threads: int) -> dict:
    import numpy

    blas = "unknown"
    with contextlib.suppress(Exception):
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '')}".strip()
    return {"nproc": os.cpu_count(), "blas": blas, "blas_threads": threads,
            "python": platform.python_version(), "numpy": numpy.__version__}


def calibrate() -> float:
    """Median time of a fixed 512x512 float64 matmul in this process."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((512, 512))
    times = []
    for _ in range(9):
        start = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spawn(args, workdir: Path, timeout: float, *flags: str) -> dict:
    """One repetition in a fresh interpreter; its JSON, or an error."""
    workdir.mkdir(parents=True)
    out = workdir / "op.json"
    t0 = time.monotonic()
    command = [sys.executable, str(HERE / "op.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--t0", repr(t0), "--scratch", str(workdir), "--out", str(out),
               *flags]
    try:
        proc = subprocess.run(command, cwd=CHECKOUT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not out.is_file():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-6:]
        return {"error": f"exit code {proc.returncode}: " + " | ".join(tail)}
    return json.loads(out.read_text(encoding="utf-8"))


def repeat(args, scratch: Path) -> list:
    """Repetitions until the next one would end after ``--seconds``; a
    traced run needs one untraced repetition besides the traced one."""
    start = time.monotonic()
    needed = 2 if args.trace else 1
    reps, walls = [], []
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= needed \
                and elapsed + statistics.median(walls) > args.seconds:
            break
        remaining = DEADLINE_S - elapsed
        if walls and remaining < max(walls):
            break
        began = time.monotonic()
        traced = args.trace == 1 and not reps
        rep = spawn(args, scratch / f"rep{len(reps)}", remaining,
                    "--trace", "1" if traced else "0")
        walls.append(time.monotonic() - began)
        reps.append(rep)
        if "error" in rep:
            break
    return reps


def print_trace(args, rep: dict) -> None:
    trace = rep["trace"]
    wall = trace["wall_s"]
    print(f"self time by layer, traced repetition "
          f"({wall:.3f} s from first fit to last evaluate):")
    print(f"  {'layer':<13} {'self s':>9} {'share':>7} {'calls':>7}")
    for layer, (seconds, calls) in sorted(trace["layers"].items(),
                                          key=lambda item: -item[1][0]):
        print(f"  {layer:<13} {seconds:>9.3f} {seconds / wall:>7.1%} "
              f"{calls:>7}")
    print("candidate recall per epoch of the last Alg.-2 run: "
          + (" ".join(f"{x:.3f}" for x in trace["recall_series"]) or "-"))
    if trace["cross_check"]:
        print("cross-check against the run record's own spans:")
    for ours, x, theirs, y, gap in trace["cross_check"]:
        flag = "  DISAGREE (>5%)" if gap > 0.05 else ""
        print(f"  {ours:<36} {x:8.3f} s  vs  {theirs:<38} {y:8.3f} s  "
              f"{gap:6.1%}{flag}")
    out_dir = CHECKOUT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace.json"
    path.write_text(json.dumps(trace), encoding="utf-8")
    print(f"spans: {path.relative_to(CHECKOUT)}")


def report(args, host: dict, calib_s: float, setups: list,
           reps: list) -> int:
    methods = WORKLOADS[args.workload].methods
    print(f"e2ebench {args.workload}: seed {args.seed}, {len(reps)} "
          f"repetitions, each in a fresh interpreter")
    print("host: " + "  ".join(f"{k}={v}" for k, v in host.items()))
    print(f"host.calib_s: {calib_s:.6f}  "
          f"(512x512 float64 matmul, median of 9, untraced)")
    for probe in setups:
        if "error" in probe:
            print(f"e2ebench: set-up failed: {probe['error']}", file=sys.stderr)
            return 1
    if setups:
        print("set-up only: " + "  ".join(f"{p['setup_s']:.3f} s"
                                          for p in setups))
    failed = 0
    for index, rep in enumerate(reps):
        if "error" in rep:
            failed += len(methods)
            print(f"rep {index}: FAILED: {rep['error']}")
            continue
        print(f"rep {index}{' traced' if rep['traced'] else ''}: "
              f"setup {rep['setup_s']:.3f} s  run {rep['run_s']:.3f} s  "
              f"steps {rep['steps']}  peak RSS {rep['peak_rss_mb']:.0f} MB  "
              f"fingerprint {rep['fingerprint'][:16]}")
        for row in rep["methods"]:
            failed += bool(row["problems"])
            for problem in row["problems"]:
                print(f"  CHECK FAILED {row['method']}: {problem}")
    good = [rep for rep in reps if "error" not in rep]
    untraced = [rep for rep in good if not rep["traced"]]
    if not untraced:
        print("e2ebench: no untraced repetition completed", file=sys.stderr)
        return 1
    fingerprints = sorted({rep["fingerprint"] for rep in good})
    print("fingerprint (sha256 of loss trajectories + H@1/H@10/MRR): "
          + " ".join(fingerprints)
          + ("" if len(fingerprints) == 1 else "  DIFFERS between repetitions"))
    rows = untraced[0]["methods"]
    for row in rows:
        print(f"  {row['method']:<10} H@1 {row['hits_at_1']:.4f}  "
              f"H@10 {row['hits_at_10']:.4f}  MRR {row['mrr']:.4f}  "
              f"fit {row['fit_s']:.3f} s  eval {row['eval_s']:.3f} s")
    run_s = statistics.median(rep["run_s"] for rep in untraced)
    if args.trace:
        traced = [rep for rep in good if rep["traced"]]
        if not traced:
            print("e2ebench: the traced repetition failed", file=sys.stderr)
            return 1
        print_trace(args, traced[0])
        metrics = dict(traced[0]["trace"]["metrics"])
        metrics["host.calib_s"] = calib_s
        metrics["host.blas_threads"] = host["blas_threads"]
        metrics["bench.trace_overhead_share"] = traced[0]["run_s"] / run_s - 1
        units = PER_LAYER
    else:
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(rep["setup_s"]
                                         for rep in setups + untraced),
            "steps_per_s": statistics.median(rep["steps"] / rep["fit_s"]
                                             for rep in untraced),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                             for rep in untraced),
            "hits_at_1": statistics.fmean(r["hits_at_1"] for r in rows),
            "mrr": statistics.fmean(r["mrr"] for r in rows),
        }
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0 and len(fingerprints) == 1,
        "attempted": len(reps) * len(methods),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="dataset generator seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to benchmark: "
              f"{CHECKOUT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # One process, no more BLAS threads than CPUs it may run on; set
    # before numpy loads here and inherited by every repetition.
    threads = len(os.sched_getaffinity(0))
    os.environ.update({var: str(threads) for var in THREAD_VARS})
    host = host_description(threads)
    calib_s = calibrate()
    scratch = CHECKOUT / ".bench_tmp" / str(os.getpid())
    try:
        setups = [] if args.trace else [
            spawn(args, scratch / f"setup{i}", 60.0, "--setup-only")
            for i in range(SETUP_PROBES)]
        reps = repeat(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    return report(args, host, calib_s, setups, reps)


if __name__ == "__main__":
    sys.exit(main())
