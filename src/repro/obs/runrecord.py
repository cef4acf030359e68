"""Structured run records — one JSON manifest per experiment invocation.

A :class:`RunRecord` captures everything needed to interpret (and later
compare) a run: the method + dataset, the full hyper-parameter config,
the master seed, a best-effort version stamp (git describe when the repo
is available, else the package version), headline results, split fit vs.
evaluate timing, a metrics-registry snapshot, and the hierarchical span
tree.  Records are written to ``runs/<timestamp>-<method>-<dataset>.json``
(the directory is gitignored) and rendered back with
:func:`format_record` / the ``repro obs`` CLI subcommand.

This module also names a recorded run's files.  They share one stem,
claimed by :func:`claim_stem` when the run starts: the record
``<stem>.json``, its telemetry stream ``<stem>-stream.jsonl`` and, for a
profiled run, its chrome trace ``<stem>-trace.json``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from .tracing import format_span_tree

__all__ = [
    "RunRecord", "version_stamp", "claim_stem", "run_files",
    "write_record", "load_record", "latest_record", "list_records",
    "format_record", "DEFAULT_RUNS_DIR",
    "RECORD_SUFFIX", "STREAM_SUFFIX", "TRACE_SUFFIX",
]

DEFAULT_RUNS_DIR = "runs"
#: The files of one recorded run: ``<stem>`` plus each suffix.
RECORD_SUFFIX = ".json"
STREAM_SUFFIX = "-stream.jsonl"
TRACE_SUFFIX = "-trace.json"
_SUFFIXES = (RECORD_SUFFIX, STREAM_SUFFIX, TRACE_SUFFIX)
# v1: original record shape.  v2: adds the ``telemetry`` digest
# (live-stream pointer + event counts + health-alert summary).  v3 (this
# version): some v3 records carry a ``shards`` digest, which
# ``RunRecord.from_dict`` drops like any unknown key.  Readers must
# warn — not crash — on versions above their own (see
# repro.obs.compare.summarize_record).
SCHEMA_VERSION = 3


def version_stamp(repo_root: Optional[Path] = None) -> Dict[str, object]:
    """Best-effort provenance: package version, git describe, platform.

    ``blas`` (library and version) and ``blas_threads`` name the BLAS
    configuration: OpenBLAS splits large GEMMs differently by thread
    count, so the same seed can give results that differ in the last
    bits on another configuration.  ``dtype`` names the engine's
    floating dtype, which moves every result the same way.
    """
    from ..nn.tensor import get_default_dtype

    stamp: Dict[str, object] = {"python": platform.python_version(),
                                "dtype": get_default_dtype().name}
    try:
        from .. import __version__
        stamp["repro"] = __version__
    except Exception:  # pragma: no cover - package metadata always present
        stamp["repro"] = "unknown"
    try:
        import numpy
        stamp["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, release = blas.get("name", "?"), blas.get("version", "")
        stamp["blas"] = f"{name} {release}".strip()
    except Exception:  # pragma: no cover - numpy builds without the dict
        pass
    stamp["blas_threads"] = _blas_threads()
    root = Path(repo_root) if repo_root else Path(__file__).resolve().parents[3]
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root, capture_output=True, text=True, timeout=5,
        )
        if described.returncode == 0:
            stamp["git"] = described.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return stamp


def _blas_threads() -> int:
    """BLAS threads of this process, by the rule ``e2ebench`` applies.

    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, when set to a
    positive count; otherwise the CPUs in the affinity mask.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "-" for c in text)


def _run_id(method: str, dataset: str, timestamp: float) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(timestamp))
    return f"{stamp}-{_slug(method)}-{_slug(dataset)}"


@dataclasses.dataclass
class RunRecord:
    """The JSON-able manifest of one ``run_experiment`` invocation."""

    method: str
    dataset: str
    timestamp: float
    config: Dict[str, object] = dataclasses.field(default_factory=dict)
    seed: Optional[int] = None
    version: Dict[str, object] = dataclasses.field(default_factory=dict)
    results: Dict[str, object] = dataclasses.field(default_factory=dict)
    timing: Dict[str, float] = dataclasses.field(default_factory=dict)
    metrics: Dict[str, object] = dataclasses.field(default_factory=dict)
    spans: Dict[str, object] = dataclasses.field(default_factory=dict)
    # Op-profiler digest (obs.session(profile=True)): totals, top-10 op
    # table, and a pointer to the chrome-trace file next to the record.
    profile: Dict[str, object] = dataclasses.field(default_factory=dict)
    # Telemetry digest: the sibling ``*-stream.jsonl`` name, its event
    # count, and the health engine's alert summary when rules were armed.
    telemetry: Dict[str, object] = dataclasses.field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def run_id(self) -> str:
        return _run_id(self.method, self.dataset, self.timestamp)

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["run_id"] = self.run_id
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})


def _free_stem(directory: Path, run_id: str) -> str:
    """``run_id``, else ``run_id.1``, ``run_id.2``, ...: the first stem
    for which no file of a recorded run exists yet."""
    stem, counter = run_id, 0
    while any((directory / (stem + suffix)).exists() for suffix in _SUFFIXES):
        counter += 1
        stem = f"{run_id}.{counter}"
    return stem


def claim_stem(runs_dir, method: str, dataset: str, timestamp: float) -> str:
    """Claim the file stem of a run that starts at ``timestamp``.

    The stem is the run id, with a ``.1``, ``.2``, ... counter when an
    earlier run of the same second holds it.  Creating
    ``<stem>-stream.jsonl`` exclusively is the claim, so two processes
    never share a stem.
    """
    directory = Path(runs_dir)
    directory.mkdir(parents=True, exist_ok=True)
    run_id = _run_id(method, dataset, timestamp)
    while True:
        stem = _free_stem(directory, run_id)
        try:
            (directory / (stem + STREAM_SUFFIX)).open("x").close()
        except FileExistsError:  # claimed between the check and the create
            continue
        return stem


def run_files(record_path) -> List[Path]:
    """The record at ``record_path`` and its siblings, existing or not."""
    record_path = Path(record_path)
    stem = record_path.name[:-len(RECORD_SUFFIX)]
    return [record_path.with_name(stem + suffix) for suffix in _SUFFIXES]


def write_record(record: RunRecord, runs_dir=DEFAULT_RUNS_DIR,
                 stem: Optional[str] = None) -> Path:
    """Serialise ``record`` as ``<stem>.json`` under ``runs_dir``; returns
    the written path.  ``stem`` is the one :func:`claim_stem` gave the
    run; without it the record takes the first free stem for its
    ``run_id``."""
    directory = Path(runs_dir)
    directory.mkdir(parents=True, exist_ok=True)
    if stem is None:
        stem = _free_stem(directory, record.run_id)
    path = directory / (stem + RECORD_SUFFIX)
    path.write_text(
        json.dumps(record.to_dict(), indent=2, sort_keys=True, default=str),
        encoding="utf-8",
    )
    return path


def load_record(path) -> RunRecord:
    """Parse a run-record JSON file back into a :class:`RunRecord`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return RunRecord.from_dict(data)


def _record_order(path: Path):
    """Sort key: run id, then same-second counter (``S`` before ``S.1``)."""
    stem = path.name[:-len(RECORD_SUFFIX)]
    run_id, dot, counter = stem.rpartition(".")
    return (run_id, int(counter)) if dot and counter.isdigit() else (stem, 0)


def list_records(runs_dir=DEFAULT_RUNS_DIR) -> List[Path]:
    """Run-record paths under ``runs_dir``, oldest first.

    A run's chrome trace (``*-trace.json``) shares the record's
    extension but is not a record.
    """
    directory = Path(runs_dir)
    if not directory.is_dir():
        return []
    return sorted(
        (p for p in directory.glob("*" + RECORD_SUFFIX)
         if p.is_file() and not p.name.endswith(TRACE_SUFFIX)),
        key=_record_order,
    )


def latest_record(runs_dir=DEFAULT_RUNS_DIR) -> Optional[Path]:
    """The most recently written record under ``runs_dir`` (or None)."""
    paths = list_records(runs_dir)
    return paths[-1] if paths else None


def _format_metrics(metrics: Dict[str, object]) -> List[str]:
    lines: List[str] = []
    for name, payload in sorted(metrics.items()):
        kind = payload.get("kind", "?") if isinstance(payload, dict) else "?"
        series = payload.get("series", []) if isinstance(payload, dict) else []
        for entry in series:
            labels = entry.get("labels", {})
            label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            display = f"{name}{{{label_text}}}" if label_text else name
            if kind == "histogram":
                lines.append(
                    f"  {display:<44} n={entry.get('count', 0):<6} "
                    f"mean={_num(entry.get('sum', 0.0), entry.get('count', 0))} "
                    f"p50={entry.get('p50', 0):.4g} "
                    f"p95={entry.get('p95', 0):.4g} "
                    f"max={entry.get('max')}"
                )
            else:
                lines.append(
                    f"  {display:<44} {entry.get('value', 0):.6g}"
                )
    return lines


def _num(total: float, count: int) -> str:
    return f"{total / count:.4g}" if count else "0"


def format_record(record: RunRecord, with_spans: bool = True,
                  with_metrics: bool = True) -> str:
    """Indented text report of one run record (``repro obs`` output)."""
    lines = [f"run    {record.run_id}"]
    lines.append(f"method {record.method}   dataset {record.dataset}"
                 + (f"   seed {record.seed}" if record.seed is not None else ""))
    if record.version:
        version = " ".join(f"{k}={v}" for k, v in sorted(record.version.items()))
        lines.append(f"build  {version}")
    if record.timing:
        timing = "  ".join(
            f"{k}={v:.3f}s" for k, v in sorted(record.timing.items())
        )
        lines.append(f"timing {timing}")
    if record.results:
        results = "  ".join(
            f"{k}={v}" for k, v in sorted(record.results.items())
        )
        lines.append(f"result {results}")
    if record.config:
        lines.append("config " + json.dumps(record.config, sort_keys=True,
                                            default=str))
    if with_metrics and record.metrics:
        lines.append("")
        lines.append("metrics:")
        lines.extend(_format_metrics(record.metrics))
    if record.profile:
        lines.append("")
        lines.append("profile:")
        lines.extend("  " + line for line in _format_profile(record.profile))
    if record.telemetry:
        lines.append("")
        lines.append("telemetry:")
        lines.extend("  " + line
                     for line in _format_telemetry(record.telemetry))
    if with_spans and record.spans:
        lines.append("")
        lines.append("spans:")
        lines.append(format_span_tree(record.spans))
    return "\n".join(lines)


def _format_telemetry(telemetry: Dict[str, object]) -> List[str]:
    lines: List[str] = []
    stream = telemetry.get("stream")
    if stream:
        lines.append(
            f"stream: {stream}  events={telemetry.get('events', 0)}"
        )
    health = telemetry.get("health")
    if isinstance(health, dict):
        lines.append(
            f"health: rules={len(health.get('rules', []))}  "
            f"warn={health.get('alerts_warn', 0)}  "
            f"fail={health.get('alerts_fail', 0)}"
        )
        for alert in health.get("alerts", []):
            if isinstance(alert, dict):
                lines.append(
                    f"  [{str(alert.get('severity', '?')).upper()}] "
                    f"{alert.get('rule', '?')}: {alert.get('message', '')}"
                )
    return lines


def _format_profile(profile: Dict[str, object]) -> List[str]:
    lines: List[str] = []
    totals = profile.get("totals", {})
    if isinstance(totals, dict) and totals:
        lines.append(
            f"ops={totals.get('ops', 0)}  "
            f"wall={float(totals.get('wall_seconds', 0.0)):.3f}s  "
            f"flops={float(totals.get('flops_estimate', 0)):.4g}  "
            f"peak_bytes={totals.get('peak_tensor_bytes', 0)}"
        )
    trace_file = profile.get("chrome_trace")
    if trace_file:
        lines.append(f"chrome-trace: {trace_file}")
    top_ops = profile.get("top_ops", [])
    if top_ops:
        lines.append(f"{'op':<14} {'calls':>8} {'wall(s)':>9} "
                     f"{'fwd(s)':>8} {'bwd(s)':>8} {'flops':>12}")
        for row in top_ops:
            lines.append(
                f"{row.get('op', '?'):<14} {row.get('calls', 0):>8} "
                f"{float(row.get('wall_seconds', 0.0)):>9.4f} "
                f"{float(row.get('forward_seconds', 0.0)):>8.4f} "
                f"{float(row.get('backward_seconds', 0.0)):>8.4f} "
                f"{float(row.get('flops', 0)):>12.4g}"
            )
    return lines
