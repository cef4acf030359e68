"""Structural check of the committed hot-path benchmark baseline.

Validates that ``BENCH_hotpath.json`` at the repo root parses, has the
expected schema, and contains the fused-kernel rows alongside their
references, and that the hot-path table in ``docs/performance.md``
quotes the baseline's GFLOP/s figures and speed-ups at the table's own
rounding.  Nothing is timed, so the check is deterministic; ``make
check`` runs it::

    python benchmarks/compare_hotpath.py --smoke

Micro-bench timings are not compared against the baseline: best-of-N
GFLOP/s flaps by more than any useful threshold on a shared host.
End-to-end regressions are judged by ``e2ebench/`` instead.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(BASELINE),
                        help="committed baseline JSON")
    parser.add_argument("--smoke", action="store_true", required=True,
                        help="structural validation of the baseline and "
                             "the docs table (no timing)")
    args = parser.parse_args(argv)

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


if __name__ == "__main__":
    raise SystemExit(main())
