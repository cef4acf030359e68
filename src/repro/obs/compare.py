"""Cross-run analytics over ``runs/``: list, diff and compare records.

A run record (:mod:`repro.obs.runrecord`) is a point-in-time manifest;
this module turns a directory of them into an analyzable registry:

* :func:`list_runs` — one summary row per record, oldest first, with
  schema-version warnings collected instead of raised.
* :func:`diff_records` — per-metric deltas between any two records:
  headline results (Hits@k / MRR, expected bitwise-zero between seeded
  reruns), wall-time and peak-memory regressions, health-alert deltas,
  and loss / Hits@1 trajectory divergence read from the records'
  sibling telemetry streams when both records have one.
* :func:`compare_records` — an N-way table of the same columns.
* :func:`format_diff_text` / :func:`format_diff_markdown` /
  :func:`format_diff_json` — the reporters behind ``repro obs diff``.
* :func:`prune_runs` — housekeeping: cap the number of retained records
  (each removed together with its ``-stream.jsonl`` / ``-trace.json``
  siblings, :func:`repro.obs.runrecord.run_files`).

Readers are deliberately forgiving: a record written by a newer schema
produces a warning string in the summary, never an exception — ``repro
obs list`` must stay usable across versions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .runrecord import (
    SCHEMA_VERSION, RunRecord, list_records, load_record, run_files,
)
from .telemetry import read_stream

__all__ = [
    "RunSummary", "MetricDelta", "TrajectoryDelta", "RunDiff",
    "summarize_record", "list_runs", "format_run_list",
    "load_trajectories", "baseline_metrics",
    "diff_records", "compare_records",
    "format_diff_text", "format_diff_markdown", "format_diff_json",
    "format_compare_table", "prune_runs",
]

#: Result keys treated as quality metrics (percent-scale ones first).
_RESULT_KEYS = ("H@1", "H@10", "MRR", "stable-H@1")


@dataclass
class RunSummary:
    """One row of ``repro obs list``."""

    path: Path
    run_id: str
    method: str
    dataset: str
    timestamp: float
    schema_version: int
    results: Dict[str, object] = field(default_factory=dict)
    timing: Dict[str, float] = field(default_factory=dict)
    peak_tensor_bytes: int = 0
    alerts_warn: int = 0
    alerts_fail: int = 0
    stream: Optional[Path] = None
    warnings: List[str] = field(default_factory=list)
    version: Dict[str, object] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return float(self.timing.get("total_seconds", 0.0))


def summarize_record(path, record: Optional[RunRecord] = None) -> RunSummary:
    """Build a :class:`RunSummary`, collecting (not raising) warnings."""
    path = Path(path)
    warnings: List[str] = []
    if record is None:
        record = load_record(path)
    version = record.schema_version
    if not isinstance(version, int):
        warnings.append(f"non-integer schema_version {version!r}")
        version = -1
    elif version > SCHEMA_VERSION:
        warnings.append(
            f"schema_version {version} is newer than this reader "
            f"({SCHEMA_VERSION}); some fields may be missing"
        )
    profile = record.profile if isinstance(record.profile, dict) else {}
    totals = profile.get("totals", {}) if isinstance(
        profile.get("totals", {}), dict) else {}
    telemetry = record.telemetry if isinstance(record.telemetry, dict) else {}
    stream_name = telemetry.get("stream")
    stream = path.with_name(str(stream_name)) if stream_name else None
    if stream is not None and not stream.exists():
        warnings.append(f"telemetry stream {stream.name} is missing")
        stream = None
    health = telemetry.get("health", {})
    if not isinstance(health, dict):
        health = {}
    return RunSummary(
        path=path,
        run_id=record.run_id,
        method=record.method,
        dataset=record.dataset,
        timestamp=record.timestamp,
        schema_version=version,
        results=dict(record.results or {}),
        timing={k: float(v) for k, v in (record.timing or {}).items()},
        peak_tensor_bytes=int(totals.get("peak_tensor_bytes", 0) or 0),
        alerts_warn=int(health.get("alerts_warn", 0) or 0),
        alerts_fail=int(health.get("alerts_fail", 0) or 0),
        stream=stream,
        warnings=warnings,
        version=dict(record.version or {}),
    )


def list_runs(runs_dir) -> List[RunSummary]:
    """Summaries for every readable record under ``runs_dir``, oldest
    first.  Unreadable files become warning-only placeholder rows."""
    out: List[RunSummary] = []
    for path in list_records(runs_dir):
        try:
            out.append(summarize_record(path))
        except (ValueError, TypeError, KeyError, OSError) as exc:
            out.append(RunSummary(
                path=path, run_id=path.stem, method="?", dataset="?",
                timestamp=0.0, schema_version=-1,
                warnings=[f"unreadable record: {exc}"],
            ))
    return out


def format_run_list(summaries: Sequence[RunSummary]) -> str:
    """The ``repro obs list`` table."""
    if not summaries:
        return "no run records"
    lines = [f"{'run':<42} {'method':<12} {'H@1':>6} {'MRR':>6} "
             f"{'wall(s)':>8} {'alerts':>7}"]
    lines.append("-" * len(lines[0]))
    for s in summaries:
        h1 = s.results.get("H@1")
        mrr = s.results.get("MRR")
        alerts = (f"{s.alerts_warn}w/{s.alerts_fail}f"
                  if (s.alerts_warn or s.alerts_fail) else "-")
        lines.append(
            f"{s.run_id:<42} {s.method:<12} "
            f"{h1 if h1 is not None else '-':>6} "
            f"{mrr if mrr is not None else '-':>6} "
            f"{s.total_seconds:>8.2f} {alerts:>7}"
        )
        for warning in s.warnings:
            lines.append(f"  ! {warning}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Trajectories (from the sibling telemetry stream)
# ---------------------------------------------------------------------- #
def load_trajectories(summary: RunSummary
                      ) -> Dict[str, Dict[str, List[float]]]:
    """Per-phase metric curves from the record's telemetry stream.

    Returns ``{"loss": {phase: [...]}, "hits1": {...},
    "epoch_seconds": {...}}`` (empty when the run streamed nothing).
    """
    curves: Dict[str, Dict[str, List[float]]] = {
        "loss": {}, "hits1": {}, "epoch_seconds": {},
    }
    if summary.stream is None:
        return curves
    for event in read_stream(summary.stream,
                             on_warning=summary.warnings.append):
        kind = event.get("event")
        phase = str(event.get("phase", ""))
        if kind == "epoch":
            if isinstance(event.get("loss"), (int, float)):
                curves["loss"].setdefault(phase, []).append(
                    float(event["loss"]))
            if isinstance(event.get("seconds"), (int, float)):
                curves["epoch_seconds"].setdefault(phase, []).append(
                    float(event["seconds"]))
        elif kind == "validation":
            if isinstance(event.get("hits1"), (int, float)):
                curves["hits1"].setdefault(phase, []).append(
                    float(event["hits1"]))
    return curves


def baseline_metrics(runs_dir, method: str, dataset: str,
                     exclude: Optional[Path] = None
                     ) -> Optional[Dict[str, float]]:
    """Rule-engine baseline: headline metrics of the latest prior record
    for this (method, dataset), as fractions (``hits@1`` in [0, 1])."""
    latest: Optional[RunSummary] = None
    for summary in list_runs(runs_dir):
        if summary.method != method or summary.dataset != dataset:
            continue
        if exclude is not None and summary.path == Path(exclude):
            continue
        if latest is None or summary.timestamp >= latest.timestamp:
            latest = summary
    if latest is None:
        return None
    out: Dict[str, float] = {}
    for key, name, scale in (("H@1", "hits@1", 100.0),
                             ("H@10", "hits@10", 100.0),
                             ("MRR", "mrr", 1.0)):
        value = latest.results.get(key)
        if isinstance(value, (int, float)):
            out[name] = float(value) / scale
    return out or None


# ---------------------------------------------------------------------- #
# Diff
# ---------------------------------------------------------------------- #
@dataclass
class MetricDelta:
    """``b - a`` for one scalar metric."""

    name: str
    a: Optional[float]
    b: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def pct(self) -> Optional[float]:
        if self.a in (None, 0) or self.b is None:
            return None
        return (self.b - self.a) / abs(self.a) * 100.0


@dataclass
class TrajectoryDelta:
    """Divergence between two per-epoch curves of the same metric/phase."""

    metric: str
    phase: str
    epochs_a: int
    epochs_b: int
    max_abs_divergence: float
    final_a: Optional[float]
    final_b: Optional[float]

    @property
    def identical(self) -> bool:
        return (self.epochs_a == self.epochs_b
                and self.max_abs_divergence == 0.0)


@dataclass
class RunDiff:
    """Everything ``repro obs diff`` reports between two records."""

    a: RunSummary
    b: RunSummary
    results: List[MetricDelta]
    timing: List[MetricDelta]
    memory: MetricDelta
    alerts: List[MetricDelta]
    trajectories: List[TrajectoryDelta]
    warnings: List[str]

    @property
    def results_identical(self) -> bool:
        """True when every headline metric delta is exactly zero."""
        return all(d.delta == 0.0 for d in self.results
                   if d.delta is not None) and any(
            d.delta is not None for d in self.results)

    def _quality_curves(self) -> List[TrajectoryDelta]:
        """The loss / hits@1 curves.  ``epoch_seconds`` is left out:
        wall time is never bitwise reproducible, and it is reported as
        its own regression row."""
        return [t for t in self.trajectories if t.metric != "epoch_seconds"]

    @property
    def trajectories_identical(self) -> bool:
        """True when quality curves were compared and match exactly."""
        quality = self._quality_curves()
        return bool(quality) and all(t.identical for t in quality)

    @property
    def verdict(self) -> str:
        """The one-line conclusion both text reporters print."""
        if not self.results_identical:
            return "metrics differ"
        if not self._quality_curves():
            return "headline metrics identical; no trajectories compared"
        if self.trajectories_identical:
            return "metrics and trajectories are bitwise-identical"
        return "headline metrics identical; trajectories diverge"


def _result_value(results: Dict[str, object], key: str) -> Optional[float]:
    value = results.get(key)
    return float(value) if isinstance(value, (int, float)) else None


def diff_records(path_a, path_b) -> RunDiff:
    """Per-metric deltas between two run records (``b`` relative to ``a``)."""
    a = summarize_record(path_a)
    b = summarize_record(path_b)
    warnings = [f"{a.run_id}: {w}" for w in a.warnings]
    warnings += [f"{b.run_id}: {w}" for w in b.warnings]
    if (a.method, a.dataset) != (b.method, b.dataset):
        warnings.append(
            f"comparing different workloads: {a.method}/{a.dataset} "
            f"vs {b.method}/{b.dataset}"
        )
    blas_a, blas_b = _blas_config(a), _blas_config(b)
    if blas_a and blas_b and blas_a != blas_b:
        warnings.append(
            f"BLAS configuration differs: {blas_a} vs {blas_b}; float "
            f"results may differ in the last bits with no code change"
        )
    dtype_a, dtype_b = a.version.get("dtype"), b.version.get("dtype")
    if dtype_a and dtype_b and dtype_a != dtype_b:
        warnings.append(
            f"engine dtype differs: {dtype_a} vs {dtype_b}; losses and "
            f"metrics differ with no code change"
        )

    keys = [k for k in _RESULT_KEYS
            if k in a.results or k in b.results]
    results = [MetricDelta(k, _result_value(a.results, k),
                           _result_value(b.results, k)) for k in keys]
    timing_keys = sorted(set(a.timing) | set(b.timing))
    timing = [MetricDelta(k, a.timing.get(k), b.timing.get(k))
              for k in timing_keys]
    memory = MetricDelta("peak_tensor_bytes",
                         float(a.peak_tensor_bytes) or None,
                         float(b.peak_tensor_bytes) or None)
    alerts = [
        MetricDelta("alerts_warn", float(a.alerts_warn),
                    float(b.alerts_warn)),
        MetricDelta("alerts_fail", float(a.alerts_fail),
                    float(b.alerts_fail)),
    ]

    # Curves are compared only between two streams: a record without
    # one (its stream file deleted, or a record written without a stream)
    # leaves nothing to compare, and the verdict says so.
    trajectories = (_trajectory_deltas(a, b)
                    if a.stream is not None and b.stream is not None
                    else [])
    return RunDiff(a=a, b=b, results=results, timing=timing, memory=memory,
                   alerts=alerts, trajectories=trajectories,
                   warnings=warnings)


def _trajectory_deltas(a: RunSummary, b: RunSummary
                       ) -> List[TrajectoryDelta]:
    curves_a = load_trajectories(a)
    curves_b = load_trajectories(b)
    trajectories: List[TrajectoryDelta] = []
    for metric in ("loss", "hits1", "epoch_seconds"):
        phases = sorted(set(curves_a[metric]) | set(curves_b[metric]))
        for phase in phases:
            series_a = curves_a[metric].get(phase, [])
            series_b = curves_b[metric].get(phase, [])
            shared = min(len(series_a), len(series_b))
            divergence = max(
                (abs(x - y) for x, y in zip(series_a, series_b)),
                default=0.0,
            )
            if len(series_a) != len(series_b) and shared == 0:
                divergence = math.inf
            trajectories.append(TrajectoryDelta(
                metric=metric, phase=phase,
                epochs_a=len(series_a), epochs_b=len(series_b),
                max_abs_divergence=divergence,
                final_a=series_a[-1] if series_a else None,
                final_b=series_b[-1] if series_b else None,
            ))
    return trajectories


def _blas_config(summary: RunSummary) -> Optional[str]:
    """``"<library> threads=<n>"`` when the record stamps both."""
    version = summary.version
    if "blas" not in version or "blas_threads" not in version:
        return None
    return f"{version['blas']} threads={version['blas_threads']}"


def compare_records(paths: Sequence) -> List[RunSummary]:
    """Summaries for an N-way comparison table, in the given order."""
    return [summarize_record(p) for p in paths]


# ---------------------------------------------------------------------- #
# Reporters
# ---------------------------------------------------------------------- #
def _fmt(value: Optional[float], digits: int = 4) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.{digits}g}"


def _delta_rows(deltas: Sequence[MetricDelta]) -> List[Tuple[str, ...]]:
    rows = []
    for d in deltas:
        pct = f"{d.pct:+.1f}%" if d.pct is not None else "-"
        delta = f"{d.delta:+.6g}" if d.delta is not None else "-"
        if d.delta == 0.0:
            delta, pct = "0", "0.0%"
        rows.append((d.name, _fmt(d.a), _fmt(d.b), delta, pct))
    return rows


def format_diff_text(diff: RunDiff) -> str:
    """Aligned-text diff report (``repro obs diff``)."""
    lines = [f"a: {diff.a.run_id}", f"b: {diff.b.run_id}", ""]
    header = f"{'metric':<20} {'a':>12} {'b':>12} {'delta':>12} {'%':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for section in (diff.results, diff.timing, [diff.memory], diff.alerts):
        for name, a, b, delta, pct in _delta_rows(section):
            lines.append(f"{name:<20} {a:>12} {b:>12} {delta:>12} {pct:>8}")
    if diff.trajectories:
        lines.append("")
        lines.append(f"{'trajectory':<26} {'epochs':>9} "
                     f"{'max|a-b|':>12} {'final a':>10} {'final b':>10}")
        lines.append("-" * 71)
        for t in diff.trajectories:
            epochs = (str(t.epochs_a) if t.epochs_a == t.epochs_b
                      else f"{t.epochs_a}/{t.epochs_b}")
            lines.append(
                f"{t.metric + '[' + (t.phase or '-') + ']':<26} "
                f"{epochs:>9} {_fmt(t.max_abs_divergence, 6):>12} "
                f"{_fmt(t.final_a):>10} {_fmt(t.final_b):>10}"
            )
    lines.append("")
    lines.append(f"verdict: {diff.verdict}")
    for warning in diff.warnings:
        lines.append(f"! {warning}")
    return "\n".join(lines)


def format_diff_markdown(diff: RunDiff) -> str:
    """Markdown diff report (``repro obs diff --format markdown``)."""
    lines = [
        f"# Run diff: `{diff.a.run_id}` vs `{diff.b.run_id}`",
        "",
        f"- method/dataset: `{diff.a.method}` on `{diff.a.dataset}`"
        + (f" vs `{diff.b.method}` on `{diff.b.dataset}`"
           if (diff.a.method, diff.a.dataset)
           != (diff.b.method, diff.b.dataset) else ""),
        "",
        "| metric | a | b | delta | % |",
        "|---|---:|---:|---:|---:|",
    ]
    for section in (diff.results, diff.timing, [diff.memory], diff.alerts):
        for name, a, b, delta, pct in _delta_rows(section):
            lines.append(f"| {name} | {a} | {b} | {delta} | {pct} |")
    if diff.trajectories:
        lines += [
            "",
            "## Trajectories",
            "",
            "| metric | phase | epochs (a/b) | max abs divergence "
            "| final a | final b |",
            "|---|---|---:|---:|---:|---:|",
        ]
        for t in diff.trajectories:
            lines.append(
                f"| {t.metric} | {t.phase or '-'} "
                f"| {t.epochs_a}/{t.epochs_b} "
                f"| {_fmt(t.max_abs_divergence, 6)} "
                f"| {_fmt(t.final_a)} | {_fmt(t.final_b)} |"
            )
    lines.append("")
    lines.append(f"**Verdict:** {diff.verdict}.")
    for warning in diff.warnings:
        lines.append(f"> warning: {warning}")
    lines.append("")
    return "\n".join(lines)


def format_diff_json(diff: RunDiff) -> str:
    def delta_dict(d: MetricDelta) -> Dict[str, object]:
        return {"name": d.name, "a": d.a, "b": d.b, "delta": d.delta,
                "pct": d.pct}

    payload = {
        "a": diff.a.run_id,
        "b": diff.b.run_id,
        "results": [delta_dict(d) for d in diff.results],
        "timing": [delta_dict(d) for d in diff.timing],
        "memory": delta_dict(diff.memory),
        "alerts": [delta_dict(d) for d in diff.alerts],
        "trajectories": [
            {
                "metric": t.metric, "phase": t.phase,
                "epochs_a": t.epochs_a, "epochs_b": t.epochs_b,
                "max_abs_divergence": (
                    None if math.isinf(t.max_abs_divergence)
                    else t.max_abs_divergence),
                "final_a": t.final_a, "final_b": t.final_b,
            }
            for t in diff.trajectories
        ],
        "results_identical": diff.results_identical,
        "trajectories_identical": diff.trajectories_identical,
        "warnings": diff.warnings,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def format_compare_table(summaries: Sequence[RunSummary]) -> str:
    """N-way comparison table (``repro obs compare``)."""
    if not summaries:
        return "no run records"
    keys = [k for k in _RESULT_KEYS
            if any(k in s.results for s in summaries)]
    header = f"{'run':<42} " + " ".join(f"{k:>8}" for k in keys) \
        + f" {'fit(s)':>8} {'eval(s)':>8} {'peakMB':>7} {'alerts':>7}"
    lines = [header, "-" * len(header)]
    for s in summaries:
        cells = " ".join(
            f"{s.results.get(k) if s.results.get(k) is not None else '-':>8}"
            for k in keys
        )
        alerts = (f"{s.alerts_warn}w/{s.alerts_fail}f"
                  if (s.alerts_warn or s.alerts_fail) else "-")
        peak = s.peak_tensor_bytes / 1e6
        lines.append(
            f"{s.run_id:<42} {cells} "
            f"{s.timing.get('fit_seconds', 0.0):>8.2f} "
            f"{s.timing.get('eval_seconds', 0.0):>8.2f} "
            f"{peak:>7.1f} {alerts:>7}"
        )
        for warning in s.warnings:
            lines.append(f"  ! {warning}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Housekeeping
# ---------------------------------------------------------------------- #
def prune_runs(runs_dir, keep: int) -> List[Path]:
    """Delete all but the newest ``keep`` records (plus their stream /
    trace siblings).  Returns the removed paths."""
    if keep < 0:
        raise ValueError("keep must be >= 0")
    records = list_records(runs_dir)
    removed: List[Path] = []
    doomed = records[:-keep] if keep else records
    for record_path in doomed:
        for path in run_files(record_path):
            if path.exists():
                path.unlink()
                removed.append(path)
    return removed
