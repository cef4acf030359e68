"""End-to-end smoke of the observability/telemetry stack.

Runs the fast TransE baseline twice on the tiny srprs/dbp_yg pair inside
a recording session (health rules armed), then asserts the whole
pipeline held together:

* both runs streamed epoch / eval / run_end events and wrote a run
  record carrying the telemetry digest;
* each record's stream is ``<record stem>-stream.jsonl``, and the runs
  directory holds no other run files (no ``live-*`` stream, no
  ``.prom`` file);
* each record's ``trainer.epochs{phase="transe"}`` series equals the
  number of ``epoch`` events in its stream (``telemetry.emit`` derives
  the one from the other);
* ``diff_records`` between the two seeded runs reports bitwise-zero
  headline metric deltas and an identical loss trajectory;
* zero health alerts fired (the tiny run is healthy by construction) —
  any alert is a regression in either the trainer or the rule engine.

Deterministic and second-scale, so ``make check`` runs it on every gate
(``make obs-check``).

Usage::

    python benchmarks/obs_check.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.datasets import build_dataset  # noqa: E402
from repro.experiments import run_experiment  # noqa: E402
from repro.obs.compare import diff_records, format_diff_text  # noqa: E402

DATASET = "srprs/dbp_yg"
METHOD = "jape-stru"
RULES = [
    "loss.nonfinite",
    "grad_norm.nonfinite",
    "epoch_seconds.trend(slope>10)",  # generous: fires only on pathology
]


def fail(message: str):
    print(f"obs-check: FAIL - {message}", file=sys.stderr)
    raise SystemExit(1)


def one_run(runs_dir: str):
    pair = build_dataset(DATASET)
    split = pair.split()
    with obs.session(runs_dir=runs_dir, health_rules=RULES) as sess:
        result = run_experiment(METHOD, pair, split)
    if result.record_path is None:
        fail("run wrote no record")
    if sess.last_stream_path is None or not sess.last_stream_path.exists():
        fail("run streamed no telemetry")
    return result


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="obs-check-") as tmp:
        a = one_run(tmp)
        b = one_run(tmp)

        for result in (a, b):
            health = result.health or {}
            alerts = health.get("alerts", [])
            if alerts:
                fail(f"unexpected health alerts: {alerts}")

        records = obs.list_records(tmp)
        if len(records) != 2:
            fail(f"expected 2 run records, found {len(records)}")
        for record_path in records:
            record = obs.load_record(record_path)
            digest = record.telemetry
            if not digest.get("stream") or not digest.get("events"):
                fail(f"{record_path.name}: empty telemetry digest {digest}")
            expected_name = record_path.stem + "-stream.jsonl"
            if digest["stream"] != expected_name:
                fail(f"{record_path.name}: stream is {digest['stream']!r}, "
                     f"not {expected_name!r}")
            stream = record_path.with_name(str(digest["stream"]))
            if not stream.exists():
                fail(f"missing stream file {stream.name}")
            events = obs.read_stream(stream)
            kinds = {e.get("event") for e in events}
            for expected in ("run_start", "epoch", "eval", "run_end",
                             "stream_end"):
                if expected not in kinds:
                    fail(f"{stream.name}: no {expected!r} event")
            streamed = sum(e.get("event") == "epoch" for e in events)
            derived = sum(
                entry["value"] for entry in
                record.metrics.get("trainer.epochs", {}).get("series", [])
                if entry.get("labels") == {"phase": "transe"})
            if derived != streamed:
                fail(f"{record_path.name}: trainer.epochs{{phase=transe}} "
                     f"is {derived}, but the stream holds {streamed} "
                     "epoch events")
        strays = sorted(p.name for p in Path(tmp).iterdir()
                        if p.name.startswith("live-")
                        or p.name.endswith(".prom"))
        if strays:
            fail(f"stray run files in the runs directory: {strays}")

        diff = diff_records(records[0], records[1])
        if not diff.results_identical:
            print(format_diff_text(diff), file=sys.stderr)
            fail("seeded reruns produced different headline metrics")
        loss_curves = [t for t in diff.trajectories if t.metric == "loss"]
        if not loss_curves or any(t.max_abs_divergence != 0.0
                                  for t in loss_curves):
            print(format_diff_text(diff), file=sys.stderr)
            fail("seeded reruns produced diverging loss trajectories")

    print("obs-check: OK - two recorded runs, bitwise-equal "
          "metrics, zero health alerts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
