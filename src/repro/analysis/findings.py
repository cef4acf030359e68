"""Shared finding/report plumbing for the dynamic analysis tools.

``repro ir`` reports typed findings through :class:`Finding` (as
:mod:`repro.analysis.lint` does through its own file-anchored
records):

* a finding carries a catalogue ``code`` (``G001``–``G014``) and a
  ``where`` location (module path / node labels), rendering as
  ``[severity] G004 fusion-opportunity: ... (at Module/Path)``;
* a finding outside the catalogue (``capture-overflow``) has no code
  and renders as ``[severity] kind: message`` — both forms are
  golden-pinned by the tests.

Severities: ``error`` and ``warning`` gate (nonzero exit, counted by
:func:`gate_findings`); ``info`` records optimisation opportunities
that must not fail a build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "Finding", "GATING_SEVERITIES", "gate_findings", "count_findings",
    "filter_findings", "format_findings_text",
]

#: Severities that fail a gate; ``info`` findings are advisory.
GATING_SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One typed finding from a dynamic analysis tool."""

    kind: str           # machine tag: "dead-op", "unreachable-parameter"
    severity: str       # "error" | "warning" | "info"
    message: str
    code: str = ""      # catalogue code ("G002"); empty outside it
    where: str = ""     # location: module path, node labels, ...

    def format(self) -> str:
        prefix = f"{self.code} " if self.code else ""
        text = f"[{self.severity}] {prefix}{self.kind}: {self.message}"
        if self.where:
            text += f" (at {self.where})"
        return text

    def to_dict(self) -> Dict[str, str]:
        out = {"kind": self.kind, "severity": self.severity,
               "message": self.message}
        if self.code:
            out["code"] = self.code
        if self.where:
            out["where"] = self.where
        return out


def gate_findings(findings: Iterable[Finding]) -> List[Finding]:
    """The subset of findings that should fail a gate (error/warning)."""
    return [f for f in findings if f.severity in GATING_SEVERITIES]


def count_findings(findings: Iterable[Finding]) -> Dict[str, int]:
    """``{code-or-kind: count}`` summary of a finding list."""
    out: Dict[str, int] = {}
    for finding in findings:
        key = finding.code or finding.kind
        out[key] = out.get(key, 0) + 1
    return out


def filter_findings(findings: Sequence[Finding],
                    select: Optional[Sequence[str]] = None,
                    ignore: Optional[Sequence[str]] = None) -> List[Finding]:
    """Apply ``--select`` / ``--ignore`` code filters (codes or kinds)."""
    wanted = {c.upper() for c in select} if select else None
    skipped = {c.upper() for c in ignore} if ignore else set()

    def keys(finding: Finding) -> set:
        return {finding.code.upper(), finding.kind.upper()} - {""}

    out = []
    for finding in findings:
        k = keys(finding)
        if wanted is not None and not (k & wanted):
            continue
        if k & skipped:
            continue
        out.append(finding)
    return out


def format_findings_text(findings: Sequence[Finding],
                         indent: str = "") -> str:
    """One line per finding plus a count summary (shared text reporter)."""
    lines = [indent + finding.format() for finding in findings]
    counts = count_findings(findings)
    if counts:
        summary = ", ".join(f"{key}×{n}" for key, n in sorted(counts.items()))
        lines.append(f"{indent}{len(findings)} finding(s): {summary}")
    else:
        lines.append(f"{indent}0 findings")
    return "\n".join(lines)
