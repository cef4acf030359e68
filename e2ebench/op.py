"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts it once per repetition::

    python3 e2ebench/op.py --workload sdea-srprs --seed 31 --trace 0 \\
        --t0 T --scratch DIR --out DIR/op.json

It sets up (imports, ``build_dataset``, ``split``), runs the workload
through the program's own entry point, checks the outputs and writes one
JSON object to ``--out``.  ``setup_s`` counts from ``--t0``, the parent's
``time.monotonic()`` just before it started this interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import (  # noqa: E402  (needs the path above)
    ATTR, ENCODE, OPTIM_STEP, PARAM_HASH, ROOT, Capture, Tracer,
)
from workloads import (  # noqa: E402
    LOSS_PHASES, WORKLOADS, apply_schedule, run_workload,
)


def check_record(result) -> list:
    """The run record must exist, parse, and agree with the result."""
    from repro.obs.runrecord import load_record

    path = result.record_path
    if path is None or not Path(path).is_file():
        return ["no run record written"]
    try:
        record = load_record(path)
    except (OSError, ValueError, TypeError) as exc:
        return [f"run record unreadable: {exc}"]
    if record.method != result.method or record.results != result.row():
        return ["run record disagrees with the result"]
    return []


def check(workload, results, losses):
    """Per method, its outputs and every failed check; and the fingerprint,
    the sha256 of all loss trajectories plus Hits@1/10 and MRR."""
    pending = list(losses)
    rows, digest = [], []
    for result in results:
        problems, trajectories = [], []
        for phase in LOSS_PHASES.get(result.method, ()):
            if pending and pending[0][0] == phase:
                trajectories.append(pending.pop(0))
            else:
                problems.append(f"no {phase} loss trajectory")
        for phase, values in trajectories:
            if not values or not all(map(math.isfinite, values)):
                problems.append(f"{phase} losses not finite: {values}")
        h1, h10, mrr = result.hits_at_1, result.hits_at_10, result.mrr
        if not all(map(math.isfinite, (h1, h10, mrr))):
            problems.append(f"not finite: H@1={h1} H@10={h10} MRR={mrr}")
        elif not (0.0 <= h1 <= h10 <= 1.0 and 0.0 < mrr <= 1.0
                  and h1 <= mrr + 1e-12):
            problems.append(f"out of range: H@1={h1} H@10={h10} MRR={mrr}")
        if workload.path == "run":
            problems += check_record(result)
        rows.append({"method": result.method, "hits_at_1": h1,
                     "hits_at_10": h10, "mrr": mrr,
                     "fit_s": result.fit_seconds,
                     "eval_s": result.eval_seconds, "problems": problems})
        digest.append([result.method, trajectories, h1, h10, mrr])
    if pending:
        rows[-1]["problems"].append(
            "loss trajectories of no method: "
            + ", ".join(phase for phase, _ in pending))
    fingerprint = hashlib.sha256(json.dumps(digest).encode()).hexdigest()
    return rows, fingerprint


def _record_totals(node: dict, parent: str, totals: dict) -> None:
    name = node.get("name")
    wall = float(node.get("wall_seconds", 0.0))
    if name in totals:
        totals[name] += wall
    if parent == "attr_pretrain/epoch" and name in ("encode", "validate"):
        totals["encode+validate"] += wall
    for child in node.get("children", []):
        _record_totals(child, name, totals)


def cross_check(tracer: Tracer, results) -> list:
    """Outside measurements against the program's own span tree in the
    run records: [ours, seconds, theirs, seconds, relative gap]."""
    from repro.obs.runrecord import load_record

    paths = [r.record_path for r in results if r.record_path is not None]
    if not paths:
        return []
    totals = {"mlm/epoch": 0.0, "attr_pretrain/epoch": 0.0,
              "encode+validate": 0.0}
    for path in paths:
        _record_totals(load_record(path).spans, "", totals)
    after = tracer.after_epochs()
    encode = tracer.total(ENCODE, under=ATTR) - after[ENCODE]
    hashes = tracer.total(PARAM_HASH, under=ATTR) - after[PARAM_HASH]
    ranking = tracer.total("align.evaluate_embeddings", under=ATTR)
    pairs = [
        ("text.mlm_s", tracer.total("text.pretrain_mlm"),
         "mlm/epoch", totals["mlm/epoch"]),
        ("core.attr_pretrain_s - final encode",
         tracer.total(ATTR) - after[ENCODE] - after[PARAM_HASH],
         "attr_pretrain/epoch", totals["attr_pretrain/epoch"]),
        ("core.encode_s in epochs", encode,
         "encode + validate - validation ranking",
         totals["encode+validate"] - ranking - hashes),
    ]
    return [[ours, x, theirs, y, abs(x - y) / max(x, y, 1e-9)]
            for ours, x, theirs, y in pairs]


def trace_report(tracer: Tracer, root: int, results) -> dict:
    """The per-layer metrics, layer table and checks of a traced run."""
    wall = tracer.durations()[root]
    own = tracer.self_times()
    mlm_s = tracer.total("text.pretrain_mlm")
    mlm_steps = tracer.count(OPTIM_STEP, under="text.pretrain_mlm")
    recall = tracer.recall_series()
    metrics = {
        "text.mlm_s": mlm_s,
        "text.mlm_steps": mlm_steps,
        "text.mlm_step_ms": 1000.0 * mlm_s / mlm_steps if mlm_steps else 0.0,
        "text.tokenizer_train_s": tracer.total("text.tokenizer_train"),
        "text.corpus_stats_s": tracer.total("text.corpus_stats"),
        "core.attr_pretrain_s": tracer.total(ATTR),
        "core.encode_s": tracer.total(ENCODE),
        "core.encode_calls": tracer.count(ENCODE),
        "core.encode_rows": sum(tracer.encode_rows.values()),
        "core.encode_redundant_calls": sum(tracer.encode_redundant.values()),
        "core.attr_train_s": sum(own[i] for i in tracer.select(ATTR)),
        "core.attr_steps": tracer.count(OPTIM_STEP, under=ATTR),
        "core.candidates_s": tracer.total("core.gen_candidates"),
        "core.candidate_recall": recall[-1] if recall else 0.0,
        "core.rel_train_s": tracer.total("core.train_relation_model"),
        "core.rel_steps": tracer.count(OPTIM_STEP,
                                       under="core.train_relation_model"),
        "core.embed_all_s": tracer.total("core.embed_all"),
        "kg.sequences_s": tracer.total("kg.build_sequences"),
        "kg.neighbor_index_s": tracer.total("kg.NeighborIndex"),
        "nn.backward_s": tracer.total("nn.backward"),
        "nn.backward_calls": tracer.count("nn.backward"),
        "nn.optim_step_s": tracer.total(OPTIM_STEP),
        "nn.optim_steps": tracer.count(OPTIM_STEP),
        "nn.clip_s": tracer.total("nn.clip_grad_norm"),
        "align.evaluate_s": tracer.total("align.evaluate_embeddings"),
        "align.evaluate_calls": tracer.count("align.evaluate_embeddings"),
        "align.topk_s": tracer.total("align.chunked_cosine_topk"),
        "baselines.gcn_fit_s": tracer.total("baselines.GCNAlign.fit"),
        "baselines.cea_levenshtein_s":
            tracer.total("baselines.levenshtein_similarity_matrix"),
        "baselines.bert_int_interaction_s":
            tracer.total("baselines.BertInt.interaction_similarity"),
        "datasets.build_s": tracer.total("datasets.build_dataset"),
        "obs.record_write_s": tracer.total("obs.write_record"),
        "obs.record_bytes": tracer.record_bytes,
        "bench.unattributed_share": own[root] / wall,
    }
    return {"metrics": metrics, "wall_s": wall,
            "layers": tracer.layer_table(root), "recall_series": recall,
            "cross_check": cross_check(tracer, results),
            "spans": tracer.spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the set-up; report setup_s only")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    # Load every module a target may be looked up in before wrapping;
    # build_dataset is looked up after, so the traced run times it.
    import repro.datasets
    import repro.experiments  # noqa: F401

    probe = Tracer() if args.trace else Capture()
    probe.install()
    pair = repro.datasets.build_dataset(workload.dataset, seed=args.seed)
    split = pair.split()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
        return 0

    apply_schedule(workload)
    root = probe.open(ROOT) if args.trace else -1
    start = time.perf_counter()
    results = run_workload(workload, pair, split, args.scratch)
    run_s = time.perf_counter() - start
    if args.trace:
        probe.close(root)

    rows, fingerprint = check(workload, results, probe.losses)
    out = {
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "run_s": run_s,
        "fit_s": sum(r.fit_seconds for r in results),
        "steps": probe.steps,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "methods": rows,
        "fingerprint": fingerprint,
    }
    if args.trace:
        out["trace"] = trace_report(probe, root, results)
    args.out.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
