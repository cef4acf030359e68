"""Smoke run of the end-to-end benchmark on the SDEA path.

Runs one traced repetition of the ``sdea-srprs`` workload::

    python3 e2ebench/run.py --workload sdea-srprs --seed 31 --seconds 1 --trace 1

and fails unless

* the last line's JSON reports ``correct: true`` and ``failed: 0``;
* no line reports ``CHECK FAILED``, ``FAILED`` or ``DISAGREE``;
* the tracer saw MLM pre-training, Alg.-2 encodes and Alg.-2 steps:
  ``text.mlm_s``, ``core.encode_calls`` and ``core.attr_steps`` are
  non-zero.

The tracer finds the program's functions by module, name and positional
arguments, so a refactor of ``pretrain_mlm`` or ``encode_all`` can leave
them untraced without any unit test noticing; this runs them at the
benchmark's own sizes.  About 20 s on a 2-core host.

Usage::

    python benchmarks/e2e_smoke.py      # or: make e2e-smoke
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["e2ebench/run.py", "--workload", "sdea-srprs", "--seed", "31",
           "--seconds", "1", "--trace", "1"]
MARKERS = ("CHECK FAILED", "FAILED", "DISAGREE")
NONZERO = ("text.mlm_s", "core.encode_calls", "core.attr_steps")
TIMEOUT_SECONDS = 300


def problems(returncode: int, stdout: str) -> List[str]:
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
    for name in NONZERO:
        value = metrics.get(name, {}).get("value")
        if not value:
            found.append(f"{name} is {value!r}")
    return found


def main() -> int:
    try:
        proc = subprocess.run([sys.executable, *COMMAND], cwd=REPO_ROOT,
                              capture_output=True, text=True,
                              timeout=TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        print(f"e2e-smoke: FAIL - no result within {TIMEOUT_SECONDS} s",
              file=sys.stderr)
        return 1
    found = problems(proc.returncode, proc.stdout)
    if found:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        for problem in found:
            print(f"e2e-smoke: FAIL - {problem}", file=sys.stderr)
        return 1
    print(f"e2e-smoke: OK - {' '.join(COMMAND)}: correct, 0 failed, "
          f"{', '.join(NONZERO)} non-zero, no DISAGREE")
    return 0


if __name__ == "__main__":
    sys.exit(main())
