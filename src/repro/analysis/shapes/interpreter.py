"""Whole-model shape checking: run method probes, collect S-findings.

Drives every registered probe (:mod:`.probes`) under a
:class:`~.abstract.SymbolicTrace` with module-boundary spec
verification, then maps the recorded trace events to stable finding
codes:

========  ====================  ========
code      name                  severity
========  ====================  ========
S001      shape-mismatch        error
S002      silent-broadcast      error
S003      dtype-deviation       warning
S004      grad-drop             error
S005      spec-violation        error
S006      probe-error           error
========  ====================  ========

``S001`` covers both hard failures (an op raised
:class:`~.abstract.AbstractShapeError`) and soft contract misses
(a probe's ``expect`` found the wrong output shape).  ``S006`` means
the probe itself crashed — the model under test could not even be
*constructed or run* at witness sizes, which is itself a finding.

Reporters mirror :mod:`repro.analysis.lint` (text + JSON, stable key
order) so CI tooling can consume both the same way.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .abstract import AbstractShapeError, SymbolicTrace
from .spec import verify_module_calls

__all__ = [
    "ShapeFinding", "MethodShapeReport", "ShapeCheckReport",
    "check_method_shapes", "shape_check", "format_text", "format_json",
    "S_CODES",
]

#: trace-event kind → (finding code, severity)
_KIND_CODES: Dict[str, tuple] = {
    "mismatch": ("S001", "error"),
    "stretch": ("S002", "error"),
    "dtype": ("S003", "warning"),
    "grad": ("S004", "error"),
    "spec": ("S005", "error"),
    "probe": ("S006", "error"),
}

#: code → one-line description (the docs table, importable)
S_CODES: Dict[str, str] = {
    "S001": "shape-mismatch: op or output shape violates the contract",
    "S002": "silent-broadcast: size-1 axis silently stretched to batch",
    "S003": "dtype-deviation: float result deviates from the engine dtype",
    "S004": "grad-drop: loss lost requires_grad; backward is a no-op",
    "S005": "spec-violation: @shape_spec template mismatch at a module call",
    "S006": "probe-error: the probe crashed before checks completed",
}


@dataclass(frozen=True)
class ShapeFinding:
    """One shape-check finding for one method."""

    code: str
    severity: str
    method: str
    message: str

    def format(self) -> str:
        return f"{self.method}: {self.code} [{self.severity}] {self.message}"


@dataclass
class MethodShapeReport:
    """All findings from abstractly executing one method's probe."""

    method: str
    findings: List[ShapeFinding] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings


@dataclass
class ShapeCheckReport:
    """Aggregate over methods, as produced by :func:`shape_check`."""

    reports: List[MethodShapeReport] = field(default_factory=list)

    @property
    def findings(self) -> List[ShapeFinding]:
        return [f for report in self.reports for f in report.findings]

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return out


def _wanted(code: str, select: Optional[Sequence[str]],
            ignore: Optional[Sequence[str]]) -> bool:
    if select and code.upper() not in {c.upper() for c in select}:
        return False
    if ignore and code.upper() in {c.upper() for c in ignore}:
        return False
    return True


def check_method_shapes(method: str,
                        select: Optional[Sequence[str]] = None,
                        ignore: Optional[Sequence[str]] = None,
                        ) -> MethodShapeReport:
    """Abstractly execute one registered method; return its findings."""
    from .probes import PROBES, ProbeContext

    report = MethodShapeReport(method=method)
    probe_fn = PROBES.get(method)
    start = time.perf_counter()
    if probe_fn is None:
        report.findings.append(ShapeFinding(
            code="S006", severity="error", method=method,
            message=f"no shape probe registered for method {method!r}",
        ))
        report.seconds = time.perf_counter() - start
        return report

    ctx = ProbeContext()
    trace = SymbolicTrace(ctx.env)
    try:
        with trace, verify_module_calls(trace):
            probe_fn(ctx)
    except AbstractShapeError as exc:
        trace.record("mismatch", "probe", str(exc))
    except Exception as exc:  # probe crashed — that IS the finding
        trace.record("probe", "probe",
                     f"{type(exc).__name__}: {exc}")
    report.seconds = time.perf_counter() - start

    for event in trace.events:
        code, severity = _KIND_CODES.get(event.kind, ("S006", "error"))
        if not _wanted(code, select, ignore):
            continue
        report.findings.append(ShapeFinding(
            code=code, severity=severity, method=method,
            message=event.message,
        ))
    return report


def shape_check(methods: Optional[Sequence[str]] = None,
                select: Optional[Sequence[str]] = None,
                ignore: Optional[Sequence[str]] = None) -> ShapeCheckReport:
    """Shape-check registered methods (all of them by default)."""
    if methods is None:
        from ...experiments import available_methods
        methods = available_methods()
    report = ShapeCheckReport()
    for method in methods:
        report.reports.append(
            check_method_shapes(method, select=select, ignore=ignore))
    return report


# ---------------------------------------------------------------------- #
# Reporters
# ---------------------------------------------------------------------- #
def format_text(report: ShapeCheckReport) -> str:
    """Human-readable report: per-method status lines plus a summary."""
    lines: List[str] = []
    for method_report in report.reports:
        status = "ok" if method_report.ok else \
            f"{len(method_report.findings)} finding(s)"
        lines.append(f"== {method_report.method} == {status} "
                     f"({method_report.seconds * 1000:.0f} ms)")
        for finding in method_report.findings:
            lines.append(f"  {finding.code} [{finding.severity}] "
                         f"{finding.message}")
    counts = report.counts()
    if counts:
        summary = ", ".join(f"{code}×{n}" for code, n in sorted(counts.items()))
        lines.append(f"{len(report.findings)} finding(s) across "
                     f"{len(report.reports)} method(s): {summary}")
    else:
        lines.append(f"0 findings across {len(report.reports)} method(s)")
    return "\n".join(lines)


def format_json(report: ShapeCheckReport) -> str:
    """Machine-readable report (stable key order)."""
    payload = {
        "methods_checked": len(report.reports),
        "counts": report.counts(),
        "methods": [
            {
                "method": r.method,
                "ok": r.ok,
                "seconds": round(r.seconds, 6),
                "findings": [
                    {"code": f.code, "severity": f.severity,
                     "method": f.method, "message": f.message}
                    for f in r.findings
                ],
            }
            for r in report.reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
