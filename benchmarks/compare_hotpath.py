"""Guard the hot-path benchmark numbers against perf regressions.

Compares a fresh ``bench_hotpath`` run against the committed baseline
(``BENCH_hotpath.json`` at the repo root) and fails when any benchmark's
GFLOP/s drops by more than the threshold (default 20%).  Rows are only
compared when their workload descriptions match — a bench whose workload
definition changed is reported as "workload changed" and skipped, so
evolving the suite does not masquerade as a regression.

Usage::

    python benchmarks/compare_hotpath.py                  # rerun + diff
    python benchmarks/compare_hotpath.py --fresh run.json # diff two files
    python benchmarks/compare_hotpath.py --threshold 0.3
    python benchmarks/compare_hotpath.py --smoke          # structural only

``--smoke`` never times anything: it validates that the committed
baseline parses, has the expected schema, and contains the fused-kernel
rows alongside their references, and that the hot-path table in
``docs/performance.md`` quotes the baseline's GFLOP/s figures and
speed-ups at the table's own rounding.  That deterministic check is
what ``make check`` runs; the full timing comparison is ``make
bench-compare``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

BASELINE = REPO_ROOT / "BENCH_hotpath.json"
PERF_DOC = REPO_ROOT / "docs" / "performance.md"

#: Rows the committed baseline must always carry: each fused kernel row
#: next to the composed reference it is diffed against.
REQUIRED_ROWS = (
    "matmul", "softmax", "softmax_fused", "bigru_step", "bigru_step_fused",
    "mha_step", "mha_step_fused", "cosine_topk", "cosine_topk_chunked",
    "ir_replay",
)


def _load(path: Path) -> Dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read benchmark JSON {path}: {exc}")
    if "benchmarks" not in payload:
        raise SystemExit(f"{path}: missing 'benchmarks' key")
    return payload


def validate_baseline(path: Path = BASELINE) -> List[str]:
    """Structural checks on the committed baseline (no timing)."""
    payload = _load(path)
    problems = []
    if payload.get("schema_version") != 1:
        problems.append(f"unexpected schema_version "
                        f"{payload.get('schema_version')!r}")
    rows = payload["benchmarks"]
    for name in REQUIRED_ROWS:
        if name not in rows:
            problems.append(f"missing benchmark row {name!r}")
            continue
        row = rows[name]
        gflops = row.get("gflops_per_sec")
        if not isinstance(gflops, (int, float)) or gflops <= 0:
            problems.append(f"{name}: bad gflops_per_sec {gflops!r}")
        if not isinstance(row.get("workload"), str):
            problems.append(f"{name}: missing workload description")
    return problems


def _quoted(value: float, cell: str) -> bool:
    """Whether ``cell`` is ``value`` printed with ``cell``'s decimals."""
    decimals = len(cell.partition(".")[2])
    return f"{value:.{decimals}f}" == cell


def check_docs_table(baseline: Dict) -> List[str]:
    """Compare the hot-path table in ``docs/performance.md`` with the
    baseline rows.

    Each table row names its composed and fused JSON rows in backticks
    (`` `softmax` → `softmax_fused` ``) and quotes their GFLOP/s and the
    fused/composed speed-up; every figure must equal the baseline's
    value rounded to the decimals the table prints.
    """
    rows = baseline["benchmarks"]
    problems = []
    checked = 0
    for line in PERF_DOC.read_text(encoding="utf-8").splitlines():
        cells = [c.strip().strip("*") for c in line.strip().strip("|")
                 .split("|")]
        names = re.findall(r"`(\w+)`", cells[1]) if len(cells) == 5 else []
        if len(names) != 2:
            continue
        composed, fused = names
        if composed not in rows or fused not in rows:
            problems.append(f"{PERF_DOC.name}: table row {cells[0]!r} names "
                            f"{composed!r}/{fused!r}, not both in the JSON")
            continue
        base = float(rows[composed]["gflops_per_sec"])
        fast = float(rows[fused]["gflops_per_sec"])
        speedup = cells[4].rstrip("×")
        for what, value, cell in (
                (composed, base, cells[2]), (fused, fast, cells[3]),
                (f"{fused}/{composed}", fast / base, speedup)):
            if not _quoted(value, cell):
                problems.append(f"{PERF_DOC.name}: {what} quoted as {cell!r}, "
                                f"the JSON gives {value:.4g}")
        checked += 1
    if not checked:
        problems.append(f"{PERF_DOC.name}: no hot-path table rows found")
    return problems


def compare(baseline: Dict, fresh: Dict, threshold: float) -> int:
    """Print a row-by-row diff; return the number of regressions."""
    base_rows = baseline["benchmarks"]
    fresh_rows = fresh["benchmarks"]
    regressions = 0
    print(f"{'benchmark':<22} {'baseline':>10} {'fresh':>10} "
          f"{'ratio':>7}  status")
    for name in sorted(set(base_rows) | set(fresh_rows)):
        base = base_rows.get(name)
        new = fresh_rows.get(name)
        if base is None or new is None:
            which = "baseline" if base is None else "fresh run"
            print(f"{name:<22} {'-':>10} {'-':>10} {'-':>7}  "
                  f"missing from {which}")
            continue
        if base.get("workload") != new.get("workload"):
            print(f"{name:<22} {'-':>10} {'-':>10} {'-':>7}  "
                  f"workload changed (skipped)")
            continue
        b = float(base["gflops_per_sec"])
        f = float(new["gflops_per_sec"])
        ratio = f / b if b else float("inf")
        if ratio < 1.0 - threshold:
            status = f"REGRESSION (>{threshold:.0%} drop)"
            regressions += 1
        elif ratio > 1.0 + threshold:
            status = "improved"
        else:
            status = "ok"
        print(f"{name:<22} {b:>10.4f} {f:>10.4f} {ratio:>6.2f}x  {status}")
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(BASELINE),
                        help="committed baseline JSON")
    parser.add_argument("--fresh", default=None,
                        help="fresh result JSON (default: rerun the bench)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated GFLOP/s drop (fraction)")
    parser.add_argument("--repeat", type=int, default=9,
                        help="repetitions when rerunning the bench")
    parser.add_argument("--smoke", action="store_true",
                        help="structural validation of the baseline only")
    args = parser.parse_args(argv)

    if args.smoke:
        problems = validate_baseline(Path(args.baseline))
        if problems:
            for problem in problems:
                print(f"baseline invalid: {problem}")
            return 1
        stale = check_docs_table(_load(Path(args.baseline)))
        if stale:
            for problem in stale:
                print(f"docs table stale: {problem}")
            return 1
        print(f"baseline {args.baseline} structurally valid "
              f"({len(REQUIRED_ROWS)} required rows present), "
              f"{PERF_DOC.name} table in sync")
        return 0

    baseline = _load(Path(args.baseline))
    if args.fresh is not None:
        fresh = _load(Path(args.fresh))
    else:
        import bench_hotpath
        fresh = bench_hotpath.run_all(max(1, args.repeat))
    regressions = compare(baseline, fresh, args.threshold)
    if regressions:
        print(f"{regressions} regression(s) beyond "
              f"{args.threshold:.0%} threshold")
        return 1
    print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
