"""Smoke run of the end-to-end benchmark on the SDEA and table paths.

Runs one traced repetition of the ``sdea-srprs`` and of the
``competitors`` workload::

    python3 e2ebench/run.py --workload sdea-srprs --seed 31 --seconds 1 --trace 1
    python3 e2ebench/run.py --workload competitors --seed 31 --seconds 1 --trace 1

and fails unless, for each,

* the last line's JSON reports ``correct: true`` and ``failed: 0``;
* no line reports ``CHECK FAILED``, ``FAILED`` or ``DISAGREE``;
* the tracer saw tokenizer training, MLM pre-training, Alg.-2 encodes
  and Alg.-2 steps: ``text.tokenizer_train_s``, ``text.mlm_s``,
  ``core.encode_calls`` and ``core.attr_steps`` are non-zero;
* on ``competitors``, the tracer also saw CEA's Levenshtein matrix:
  ``baselines.cea_levenshtein_s`` is non-zero.

The tracer finds the program's functions by module, name and positional
arguments, so a refactor of ``WordPieceTokenizer.train``,
``pretrain_mlm``, ``encode_all`` or ``levenshtein_similarity_matrix``
can leave them untraced without any unit test noticing; this runs them
at the benchmark's own sizes.  About 27 s on a 2-core host.

Usage::

    python benchmarks/e2e_smoke.py      # or: make e2e-smoke
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
MARKERS = ("CHECK FAILED", "FAILED", "DISAGREE")
NONZERO = ("text.tokenizer_train_s", "text.mlm_s", "core.encode_calls",
           "core.attr_steps")
# Workload -> the metrics its traced repetition must report non-zero.
RUNS = {
    "sdea-srprs": NONZERO,
    "competitors": NONZERO + ("baselines.cea_levenshtein_s",),
}
TIMEOUT_SECONDS = 300


def command(workload: str) -> List[str]:
    return ["e2ebench/run.py", "--workload", workload, "--seed", "31",
            "--seconds", "1", "--trace", "1"]


def problems(returncode: int, stdout: str,
             nonzero: Sequence[str]) -> List[str]:
    """Every reason the benchmark output fails the smoke gate."""
    found = []
    if returncode != 0:
        found.append(f"exit status {returncode}")
    lines = stdout.strip().splitlines()
    for line in lines:
        if any(marker in line for marker in MARKERS):
            found.append(f"output line: {line.strip()}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return found + ["last line is not the result JSON"]
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    for name in nonzero:
        value = metrics.get(name, {}).get("value")
        if not value:
            found.append(f"{name} is {value!r}")
    return found


def main() -> int:
    failed = False
    for workload, nonzero in RUNS.items():
        args = command(workload)
        try:
            proc = subprocess.run([sys.executable, *args], cwd=REPO_ROOT,
                                  capture_output=True, text=True,
                                  timeout=TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            print(f"e2e-smoke: FAIL - {workload}: no result within "
                  f"{TIMEOUT_SECONDS} s", file=sys.stderr)
            failed = True
            continue
        found = problems(proc.returncode, proc.stdout, nonzero)
        if found:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            for problem in found:
                print(f"e2e-smoke: FAIL - {workload}: {problem}",
                      file=sys.stderr)
            failed = True
            continue
        print(f"e2e-smoke: OK - {' '.join(args)}: correct, 0 failed, "
              f"{', '.join(nonzero)} non-zero, no DISAGREE")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
