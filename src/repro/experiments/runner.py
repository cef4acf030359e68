"""Experiment runner: train + evaluate one method on one dataset.

Every invocation is traced (``run → fit / evaluate`` spans) and, while an
observability session (:func:`repro.obs.session`) is active, a structured
run record is written under the session's ``runs_dir`` — see
``docs/observability.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..align.evaluator import EvaluationResult
from ..kg.pair import AlignmentSplit, KGPair
from ..nn.kernels import use_kernels
from ..obs import trace
from ..obs import telemetry as telemetry_mod
from ..obs.runrecord import RunRecord, _slug, write_record
from ..obs.session import active_session
from .methods import make_method


@dataclass
class ExperimentResult:
    """One (method, dataset) cell of a results table.

    ``seconds`` is the total train+evaluate wall time;
    ``fit_seconds`` / ``eval_seconds`` attribute it to the two stages.
    """

    method: str
    dataset: str
    hits_at_1: float
    hits_at_10: float
    mrr: float
    stable_hits_at_1: Optional[float]
    seconds: float
    fit_seconds: float = 0.0
    eval_seconds: float = 0.0
    record_path: Optional[Path] = None
    # Filled from the op profiler when the run executed inside
    # ``obs.session(profile=True)``; zero otherwise.
    peak_tensor_bytes: int = 0
    total_flops_estimate: int = 0
    # Health-engine digest (rules + fired alerts) when the run streamed
    # telemetry with rules armed; None otherwise.  ``repro run
    # --health-gate`` exits nonzero when this contains a fail alert.
    health: Optional[Dict[str, object]] = None

    @classmethod
    def from_evaluation(cls, method: str, dataset: str,
                        result: EvaluationResult,
                        seconds: float,
                        fit_seconds: float = 0.0,
                        eval_seconds: float = 0.0) -> "ExperimentResult":
        return cls(
            method=method,
            dataset=dataset,
            hits_at_1=result.metrics.hits_at_1,
            hits_at_10=result.metrics.hits_at_10,
            mrr=result.metrics.mrr,
            stable_hits_at_1=result.stable_hits_at_1,
            seconds=seconds,
            fit_seconds=fit_seconds,
            eval_seconds=eval_seconds,
        )

    def row(self) -> Dict[str, float]:
        out = {
            "H@1": round(100 * self.hits_at_1, 1),
            "H@10": round(100 * self.hits_at_10, 1),
            "MRR": round(self.mrr, 2),
        }
        if self.stable_hits_at_1 is not None:
            out["stable-H@1"] = round(100 * self.stable_hits_at_1, 1)
        out["fit(s)"] = round(self.fit_seconds, 2)
        out["eval(s)"] = round(self.eval_seconds, 2)
        return out


def _method_config(method) -> tuple[Dict[str, object], Optional[int]]:
    """Best-effort (config dict, seed) extraction from an Aligner."""
    for holder in (method, getattr(method, "model", None)):
        config = getattr(holder, "config", None)
        if config is None:
            continue
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            as_dict = dataclasses.asdict(config)
        elif isinstance(config, dict):
            as_dict = dict(config)
        else:
            continue
        seed = as_dict.get("seed")
        return as_dict, seed if isinstance(seed, int) else None
    return {}, None


def _open_stream(session, method, method_name: str, dataset: str):
    """Open the live telemetry stream (+ health engine) for one run.

    Returns ``(stream, engine)``, both ``None`` unless the active
    session asked for telemetry (``obs.session(telemetry=True)`` or
    ``health_rules=...``) and has a ``runs_dir`` to stream into.  The
    stream opens under a provisional ``live-*`` name — ``repro obs
    watch`` tails it while the run is in flight — and is renamed next to
    the run record once the record's final (dedup-counted) name exists.

    The engine is armed when the session carries rules, or the method's
    config declares ``health_rules``; both sources merge (session rules
    first), falling back to :data:`repro.obs.health.DEFAULT_RULES` when
    the session armed rules without naming any.  ``drop(vs=baseline)``
    references resolve against the latest prior record for the same
    (method, dataset) in the session's ``runs_dir``.
    """
    if (session is None or not getattr(session, "telemetry", False)
            or session.runs_dir is None):
        return None, None
    from ..obs.compare import baseline_metrics
    from ..obs.health import DEFAULT_RULES, HealthEngine, parse_rules

    config, _ = _method_config(method)
    config_rules = config.get("health_rules") or ()
    engine = None
    if session.health_rules is not None or config_rules:
        texts = list(session.health_rules or ())
        texts += [str(rule) for rule in config_rules]
        if not texts:
            texts = list(DEFAULT_RULES)
        engine = HealthEngine(
            parse_rules(texts),
            baseline=baseline_metrics(session.runs_dir, method_name,
                                      dataset),
            registry=session.registry,
        )
    directory = Path(session.runs_dir)
    directory.mkdir(parents=True, exist_ok=True)
    live = directory / (
        f"live-{os.getpid()}-{_slug(method_name)}-{_slug(dataset)}"
        + telemetry_mod.STREAM_SUFFIX
    )
    if live.exists():  # leftover from a crashed run: start fresh
        live.unlink()
    stream = telemetry_mod.TelemetryStream(
        live, registry=session.registry,
        snapshot_seconds=getattr(session, "snapshot_seconds", 5.0),
        engine=engine,
    )
    return stream, engine


def _note_anomaly(engine, exc) -> bool:
    """Record ``exc`` as a fail alert when it is an AnomalyError."""
    try:
        from ..analysis.anomaly import AnomalyError
    except ImportError:  # pragma: no cover - analysis always present
        return False
    if engine is None or not isinstance(exc, AnomalyError):
        return False
    engine.note_anomaly(exc)
    return True


def _write_run_record(result: ExperimentResult, method,
                      stream=None, engine=None) -> Optional[Path]:
    """Persist a run record when an obs session with a runs_dir is active.

    With op profiling active the record embeds the profiler digest
    (totals + top-10 op table) and a chrome-trace file — spans merged
    with op events, Perfetto-loadable — is written next to the record
    and pointed to from ``profile.chrome_trace``.  With telemetry active
    the record embeds the stream digest (event/snapshot counts + the
    health summary) and the closed stream is renamed to
    ``<record-stem>-stream.jsonl`` next to the record.
    """
    session = active_session()
    if session is None or session.runs_dir is None:
        return None
    from ..obs.runrecord import version_stamp
    config, seed = _method_config(method)
    profiler = getattr(session, "profiler", None)
    telemetry_digest: Dict[str, object] = {}
    if stream is not None:
        telemetry_digest = {
            "stream": stream.path.name,
            "stream_schema_version": telemetry_mod.STREAM_SCHEMA_VERSION,
            "events": stream.events_written,
            "snapshots": stream.snapshots_written,
        }
        if engine is not None:
            telemetry_digest["health"] = engine.summary()
    record = RunRecord(
        method=result.method,
        dataset=result.dataset,
        timestamp=time.time(),
        config=config,
        seed=seed,
        version=version_stamp(),
        results=result.row(),
        timing={
            "fit_seconds": result.fit_seconds,
            "eval_seconds": result.eval_seconds,
            "total_seconds": result.seconds,
        },
        metrics=session.registry.snapshot(),
        spans=session.tracer.to_dict(),
        profile=profiler.summary(top=10) if profiler is not None else {},
        telemetry=telemetry_digest,
    )
    path = write_record(record, session.runs_dir)
    # The record file name (dedup counter) is only known after
    # write_record, so sibling-file pointers are patched into the JSON
    # in place.
    patches: Dict[str, str] = {}
    if profiler is not None:
        from ..obs.chrometrace import build_chrome_trace, write_chrome_trace
        trace_path = path.with_name(path.stem + "-trace.json")
        write_chrome_trace(trace_path, build_chrome_trace(
            span_tree=session.tracer.to_dict(),
            op_events=profiler.trace_events(),
            metadata={"run_id": record.run_id, "method": record.method,
                      "dataset": record.dataset},
        ))
        record.profile["chrome_trace"] = trace_path.name
        patches["profile"] = trace_path.name
    if stream is not None:
        stem = path.name[:-len(".json")]
        final = stream.rename(
            path.with_name(stem + telemetry_mod.STREAM_SUFFIX)
        )
        record.telemetry["stream"] = final.name
        patches["telemetry"] = final.name
    if patches:
        data = json.loads(path.read_text(encoding="utf-8"))
        if "profile" in patches:
            data["profile"]["chrome_trace"] = patches["profile"]
        if "telemetry" in patches:
            data["telemetry"]["stream"] = patches["telemetry"]
        path.write_text(json.dumps(data, indent=2, sort_keys=True,
                                   default=str), encoding="utf-8")
    return path


def run_experiment(method_name: str, pair: KGPair,
                   split: Optional[AlignmentSplit] = None,
                   with_stable_matching: bool = False) -> ExperimentResult:
    """Fit ``method_name`` on the pair's train split; evaluate on test.

    Fit and evaluate run on the fused autograd kernels
    (:func:`repro.nn.kernels.use_kernels`), whose outputs and gradients
    are bit-for-bit those of the composed ops.

    Inside ``obs.session(telemetry=True)`` (or with health rules armed)
    the whole run streams live events — ``run_start``, per-epoch
    ``epoch`` / ``validation``, ``eval``, ``run_end`` — to an
    append-only JSONL file next to the eventual run record; alerts the
    health engine fires land in the same stream.  If the run dies on an
    :class:`~repro.analysis.anomaly.AnomalyError`, the anomaly is
    converted into a ``fail`` alert (keeping the op's creation-stack
    provenance) before the exception propagates, so ``repro run
    --health-gate`` reports *where* the NaN was born.  On any early exit,
    ``KeyboardInterrupt`` included, the stream is still closed with its
    ``stream_end`` marker, so ``repro obs watch`` returns.
    """
    split = split or pair.split()
    method = make_method(method_name)
    session = active_session()
    stream, engine = _open_stream(session, method, method_name, pair.name)
    try:
        previous_stream = telemetry_mod.set_stream(stream) \
            if stream is not None else None
        try:
            telemetry_mod.emit(
                "run_start", method=method_name, dataset=pair.name,
                train=len(split.train), valid=len(split.valid),
                test=len(split.test),
            )
            with trace.span("run", method=method_name, dataset=pair.name), \
                    use_kernels():
                fit_start = time.perf_counter()
                telemetry_mod.emit("phase", name="fit")
                with trace.span("fit"):
                    method.fit(pair, split)
                fit_seconds = time.perf_counter() - fit_start
                eval_start = time.perf_counter()
                telemetry_mod.emit("phase", name="evaluate")
                with trace.span("evaluate"):
                    evaluation = method.evaluate(
                        split.test,
                        with_stable_matching=with_stable_matching,
                    )
                eval_seconds = time.perf_counter() - eval_start
        finally:
            if stream is not None:
                telemetry_mod.set_stream(previous_stream)
    except BaseException as exc:
        _note_anomaly(engine, exc)
        if stream is not None:
            stream.close()
        if session is not None:
            if stream is not None:
                session.last_stream_path = stream.path
            session.last_health = (engine.summary()
                                   if engine is not None else None)
        raise
    result = ExperimentResult.from_evaluation(
        method_name, pair.name, evaluation,
        seconds=fit_seconds + eval_seconds,
        fit_seconds=fit_seconds, eval_seconds=eval_seconds,
    )
    profiler = getattr(session, "profiler", None) if session else None
    if profiler is not None:
        result.peak_tensor_bytes = profiler.peak_live_bytes
        result.total_flops_estimate = profiler.total_flops()
    if stream is not None:
        stream.emit(
            "run_end", method=method_name, dataset=pair.name,
            hits_at_1=result.hits_at_1, hits_at_10=result.hits_at_10,
            mrr=result.mrr, fit_seconds=fit_seconds,
            eval_seconds=eval_seconds,
        )
        stream.close()
    if engine is not None:
        result.health = engine.summary()
    result.record_path = _write_run_record(result, method,
                                           stream=stream, engine=engine)
    if session is not None:
        if stream is not None:
            session.last_stream_path = stream.path
        session.last_health = result.health
    return result


def run_suite(method_names: Sequence[str], pair: KGPair,
              split: Optional[AlignmentSplit] = None,
              with_stable_matching: bool = False) -> List[ExperimentResult]:
    """Run several methods on one dataset (one table column group)."""
    split = split or pair.split()
    return [
        run_experiment(name, pair, split, with_stable_matching)
        for name in method_names
    ]
