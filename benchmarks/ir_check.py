"""End-to-end smoke of the training-step IR pipeline.

Captures every training phase of three registered methods on the tiny
synthetic pair with the op profiler armed, then asserts the whole
capture -> analyze -> verify chain held together:

* each capture window is clean (one full step, no boundary artefacts)
  and inside its op budget;
* ``mtranse`` and ``gcn-align`` (one phase each) report zero *gating*
  findings (info-level G001/G004 are allowed);
* ``sdea`` yields three captures — MLM pre-training, Alg.-2 fine-tuning
  and relation training — with no error-severity finding.  Its Alg.-2
  and relation steps carry true G005 warnings (the triplet's repeated
  embedding ``take``; the GRU's packed-weight ``concatenate``, built
  once per call by design), so warnings do not gate it;
* the liveness plan is internally consistent: planned peak <= eager
  peak <= the profiler's measured ``peak_tensor_bytes``;
* the replay executor re-runs each captured IR and every op output and
  every parameter gradient is bit-for-bit identical to eager, with no
  op replayed opaquely.

(jape-stru stays out of the gate: its duplicate embedding ``take`` is a
real G005 warning that ``repro ir --method jape-stru`` surfaces by
design.)

Deterministic and second-scale, so ``make check`` runs it on every gate
(``make ir-check``).

Usage::

    python benchmarks/ir_check.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.analysis.ir import capture_method, plan_memory, replay, run_passes  # noqa: E402

#: method -> (expected captures, severities that fail the gate)
METHODS = {
    "mtranse": (1, ("error", "warning")),
    "gcn-align": (1, ("error", "warning")),
    "sdea": (3, ("error",)),
}
BUDGET_SECONDS = 10.0


def fail(message: str):
    print(f"ir-check: FAIL - {message}", file=sys.stderr)
    raise SystemExit(1)


def check_method(method: str) -> None:
    expected, gating = METHODS[method]
    with obs.session(runs_dir=None, profile=True) as sess:
        captures = capture_method(method)
    measured_peak = sess.profiler.peak_live_bytes if sess.profiler else 0
    if len(captures) != expected:
        fail(f"{method}: {len(captures)} captures, expected {expected}")
    for capture in captures:
        check_capture(f"{method}@{capture.step_index}", capture, gating,
                      measured_peak)


def check_capture(label: str, capture, gating, measured_peak: int) -> None:
    if not capture.clean:
        fail(f"{label}: capture window not clean")
    if capture.graph.overflowed:
        fail(f"{label}: capture overflowed its op budget")

    report = run_passes(capture)
    bad = [f for f in report.findings if f.severity in gating]
    if bad:
        for finding in bad:
            print(f"  {finding.format()}", file=sys.stderr)
        fail(f"{label}: {len(bad)} gating IR finding(s)")

    plan = plan_memory(capture)
    if plan.planned_peak_bytes > plan.eager_peak_bytes:
        fail(f"{label}: planned peak {plan.planned_peak_bytes} exceeds "
             f"eager peak {plan.eager_peak_bytes}")
    if measured_peak and plan.eager_peak_bytes > measured_peak:
        fail(f"{label}: eager peak {plan.eager_peak_bytes} exceeds "
             f"profiler-measured peak {measured_peak}")

    result = replay(capture)
    if not result.ok:
        for mismatch in result.mismatches:
            print(f"  {mismatch}", file=sys.stderr)
        fail(f"{label}: replay diverged from eager ({result.summary()})")
    if result.opaque_ops:
        fail(f"{label}: replayed {len(result.opaque_ops)} op(s) opaquely")

    print(f"ir-check: {label}: {len(capture.graph.op_nodes())} ops, "
          f"{result.forward_matched}/{result.forward_checked} outputs and "
          f"{result.grads_matched}/{result.grads_checked} grads bit-equal, "
          f"planned {plan.planned_peak_bytes} <= eager "
          f"{plan.eager_peak_bytes} <= measured {measured_peak} bytes")


def main() -> int:
    start = time.perf_counter()
    for method in METHODS:
        check_method(method)
    elapsed = time.perf_counter() - start
    if elapsed > BUDGET_SECONDS:
        fail(f"budget blown: {elapsed:.1f}s > {BUDGET_SECONDS:.0f}s")
    print(f"ir-check: OK - every phase of {len(METHODS)} methods captured, "
          f"analyzed and replayed bit-for-bit in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
