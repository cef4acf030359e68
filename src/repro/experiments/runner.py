"""Experiment runner: train + evaluate one method on one dataset.

Every invocation is traced (``run → fit / evaluate`` spans).  While an
observability session (:func:`repro.obs.session`) with a ``runs_dir`` is
active, each invocation is a *recorded run*: it claims a file stem when
it starts, streams its events to ``<stem>-stream.jsonl`` while it runs,
and then writes its chrome trace (profiled sessions) and its run record
``<stem>.json`` once each — see ``docs/observability.md``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..align.evaluator import EvaluationResult
from ..kg.pair import AlignmentSplit, KGPair
from ..nn.kernels import use_kernels
from ..obs import trace
from ..obs import telemetry as telemetry_mod
from ..obs.runrecord import (
    STREAM_SUFFIX, TRACE_SUFFIX, RunRecord, claim_stem, version_stamp,
    write_record,
)
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
    # Health-engine digest (rules + fired alerts) when the session armed
    # health rules; None otherwise.  ``repro run --health-gate`` exits
    # nonzero when this contains a fail alert.
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


def _health_engine(session, method_name: str, dataset: str):
    """The health engine a recorded run's stream feeds, or ``None``.

    Armed when the session carries rules; an empty rule list arms
    :data:`repro.obs.health.DEFAULT_RULES`.  ``drop(vs=baseline)``
    references resolve against the latest prior record for the same
    (method, dataset) in the session's ``runs_dir``.
    """
    if session.health_rules is None:
        return None
    from ..obs.compare import baseline_metrics
    from ..obs.health import DEFAULT_RULES, HealthEngine, parse_rules

    return HealthEngine(
        parse_rules(session.health_rules or DEFAULT_RULES),
        baseline=baseline_metrics(session.runs_dir, method_name, dataset),
        registry=session.registry,
    )


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


def _write_run_record(result: ExperimentResult, method, session, stem: str,
                      started: float, stream) -> Path:
    """Write the run's chrome trace (profiled sessions) and its record,
    each once, under the stem claimed when the run started.

    With op profiling active the record embeds the profiler digest
    (totals + top-10 op table) and points to ``<stem>-trace.json`` — spans
    merged with op events, Perfetto-loadable — from
    ``profile.chrome_trace``.  The record's telemetry digest names the
    closed stream and counts its events, with the health summary when
    rules were armed.
    """
    config, seed = _method_config(method)
    telemetry_digest: Dict[str, object] = {
        "stream": stem + STREAM_SUFFIX,
        "stream_schema_version": telemetry_mod.STREAM_SCHEMA_VERSION,
        "events": stream.events_written,
    }
    if result.health is not None:
        telemetry_digest["health"] = result.health
    record = RunRecord(
        method=result.method,
        dataset=result.dataset,
        timestamp=started,
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
        telemetry=telemetry_digest,
    )
    profiler = session.profiler
    if profiler is not None:
        from ..obs.chrometrace import build_chrome_trace, write_chrome_trace
        record.profile = profiler.summary(top=10)
        record.profile["chrome_trace"] = stem + TRACE_SUFFIX
        write_chrome_trace(
            Path(session.runs_dir) / (stem + TRACE_SUFFIX),
            build_chrome_trace(
                span_tree=record.spans,
                op_events=profiler.trace_events(),
                metadata={"run_id": record.run_id, "method": record.method,
                          "dataset": record.dataset},
            ))
    return write_record(record, session.runs_dir, stem=stem)


def run_experiment(method_name: str, pair: KGPair,
                   split: Optional[AlignmentSplit] = None,
                   with_stable_matching: bool = False) -> ExperimentResult:
    """Fit ``method_name`` on the pair's train split; evaluate on test.

    Fit and evaluate run on the fused autograd kernels
    (:func:`repro.nn.kernels.use_kernels`), whose outputs and gradients
    are bit-for-bit those of the composed ops.

    Inside ``obs.session(runs_dir=...)`` the run claims its file stem
    first (:func:`repro.obs.runrecord.claim_stem`), then streams live
    events — ``run_start``, per-epoch ``epoch`` / ``validation``,
    ``eval``, ``run_end`` — to ``<stem>-stream.jsonl``; alerts of the
    session's health rules land in the same stream.  If the run dies on
    an :class:`~repro.analysis.anomaly.AnomalyError`, the anomaly is
    converted into a ``fail`` alert (keeping the op's creation-stack
    provenance) before the exception propagates, so ``repro run
    --health-gate`` reports *where* the NaN was born.  On any early exit,
    ``KeyboardInterrupt`` included, the stream is still closed with its
    ``stream_end`` marker, so ``repro obs watch`` returns.
    """
    split = split or pair.split()
    method = make_method(method_name)
    session = active_session()
    stream = engine = None
    if session is not None and session.runs_dir is not None:
        started = time.time()
        stem = claim_stem(session.runs_dir, method_name, pair.name, started)
        engine = _health_engine(session, method_name, pair.name)
        stream = telemetry_mod.TelemetryStream(
            Path(session.runs_dir) / (stem + STREAM_SUFFIX), engine=engine)
        session.last_stream_path = stream.path
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
        result.record_path = _write_run_record(result, method, session, stem,
                                               started, stream)
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
