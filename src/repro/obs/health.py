"""Declarative health rules evaluated online against the telemetry stream.

A rule is a one-line expression naming a *metric*, a *check*, and
optional parameters::

    loss.nonfinite                       # NaN/Inf loss         -> fail
    grad_norm.spike(factor=10)           # 10x the running median -> warn
    hits@1.drop(vs=baseline, abs=0.02)   # 2pt drop vs last run  -> fail
    epoch_seconds.trend(slope>0.05)      # epochs getting slower -> warn
    loss.above(value=5.0)                # hard bound            -> warn

Rules come from the session (``obs.session(health_rules=[...])``), which
``repro run`` fills from a TOML file (``--health-rules rules.toml``, see
:func:`load_rules_toml`) or, under ``--health-gate`` alone, with the
engine defaults (:data:`DEFAULT_RULES`).  Any rule accepts a trailing
``severity=warn|fail`` override.

The :class:`HealthEngine` consumes the flat event dicts the stream
emits (:mod:`repro.obs.telemetry`), keeps per-(metric, phase) history,
and fires :class:`Alert` objects.  Alerts are themselves observable:
they are appended to the stream as ``alert`` events and counted in the
``health.alerts`` metric (labeled by severity and rule), and each alert
carries an :class:`~repro.analysis.anomaly.OpProvenance`-compatible
provenance string (``phase/epoch`` context, or the originating op's
creation stack when converted from an
:class:`~repro.analysis.anomaly.AnomalyError`).  Under
``repro run --health-gate`` any ``fail`` alert makes the process exit
nonzero.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import metrics as metrics_mod

__all__ = [
    "CHECKS", "DEFAULT_RULES", "RuleError",
    "HealthRule", "Alert", "HealthEngine",
    "parse_rule", "parse_rules", "load_rules_toml", "format_rule_table",
]

#: Severity levels, mirroring the event-log vocabulary.
WARN, FAIL = "warn", "fail"

#: Default severity per check kind (overridable per rule).
_DEFAULT_SEVERITY = {
    "nonfinite": FAIL,
    "drop": FAIL,
    "spike": WARN,
    "trend": WARN,
    "above": WARN,
    "below": WARN,
}

CHECKS = tuple(sorted(_DEFAULT_SEVERITY))

#: Rules installed by ``--health-gate`` when nothing else is configured.
DEFAULT_RULES: Tuple[str, ...] = (
    "loss.nonfinite",
    "grad_norm.nonfinite",
    "grad_norm.spike(factor=10)",
)

#: Where each rule metric is read from: ``metric -> ((event, field), ...)``.
#: Metrics not listed fall back to "any event carrying a field of the
#: same name" so rules can target ad-hoc emitted fields.
METRIC_SOURCES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "loss": (("epoch", "loss"),),
    "grad_norm": (("epoch", "grad_norm"),),
    "epoch_seconds": (("epoch", "seconds"),),
    "lr": (("epoch", "lr"),),
    "hits@1": (("validation", "hits1"), ("eval", "hits_at_1"),
               ("run_end", "hits_at_1")),
    "hits@10": (("eval", "hits_at_10"), ("run_end", "hits_at_10")),
    "mrr": (("eval", "mrr"), ("run_end", "mrr")),
}


class RuleError(ValueError):
    """A health rule that does not parse or references an unknown check."""


_RULE_RE = re.compile(
    r"^\s*(?P<metric>[A-Za-z0-9_.@]+?)\.(?P<check>[a-z_]+)"
    r"(?:\((?P<args>[^)]*)\))?\s*$"
)

_ARG_RE = re.compile(
    r"^\s*(?P<key>[A-Za-z_][A-Za-z0-9_]*)\s*(?P<op>[=<>])\s*(?P<value>.+?)\s*$"
)


@dataclass(frozen=True)
class HealthRule:
    """One parsed rule: metric + check + params + severity."""

    metric: str
    check: str
    params: Tuple[Tuple[str, object], ...] = ()
    severity: str = WARN
    text: str = ""

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


def _coerce(value: str) -> object:
    text = value.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip("'\"")


def parse_rule(text: str) -> HealthRule:
    """Parse one rule expression; raises :class:`RuleError` on bad input.

    The argument mini-grammar accepts ``key=value`` pairs plus the
    comparison sugar ``slope>0.05`` / ``slope<0`` (stored as the value
    with the direction recorded in ``<key>_op``).
    """
    match = _RULE_RE.match(text)
    if not match:
        raise RuleError(
            f"cannot parse health rule {text!r} "
            "(expected metric.check or metric.check(key=value, ...))"
        )
    metric = match.group("metric")
    check = match.group("check")
    if check not in _DEFAULT_SEVERITY:
        raise RuleError(
            f"unknown health check {check!r} in rule {text!r}; "
            f"choose from {', '.join(CHECKS)}"
        )
    params: List[Tuple[str, object]] = []
    severity = _DEFAULT_SEVERITY[check]
    args = match.group("args")
    if args and args.strip():
        for part in args.split(","):
            arg = _ARG_RE.match(part)
            if not arg:
                raise RuleError(
                    f"cannot parse argument {part.strip()!r} "
                    f"in rule {text!r}"
                )
            key, op, value = (arg.group("key"), arg.group("op"),
                              arg.group("value"))
            if key == "severity":
                severity = str(_coerce(value))
                if severity not in (WARN, FAIL):
                    raise RuleError(
                        f"severity must be 'warn' or 'fail' in {text!r}"
                    )
                continue
            params.append((key, _coerce(value)))
            if op in "<>":
                params.append((key + "_op", op))
    return HealthRule(metric=metric, check=check, params=tuple(params),
                      severity=severity, text=text.strip())


def parse_rules(texts: Sequence[str]) -> List[HealthRule]:
    """Parse several rule expressions, de-duplicating identical texts."""
    seen = set()
    out: List[HealthRule] = []
    for text in texts:
        rule = parse_rule(text)
        if rule.text not in seen:
            seen.add(rule.text)
            out.append(rule)
    return out


def load_rules_toml(path) -> List[HealthRule]:
    """Load rules from a TOML file with a top-level ``rules`` array::

        rules = [
          "loss.nonfinite",
          "hits@1.drop(vs=baseline, abs=0.02, severity=fail)",
        ]
    """
    import tomllib

    data = tomllib.loads(Path(path).read_text(encoding="utf-8"))
    texts = data.get("rules", [])
    if not isinstance(texts, list) or not all(
            isinstance(t, str) for t in texts):
        raise RuleError(f"{path}: expected a top-level 'rules' string array")
    return parse_rules(texts)


def format_rule_table() -> str:
    """The check vocabulary as a text table (``repro obs rules`` / docs)."""
    rows = [
        ("nonfinite", "value is NaN or +/-Inf", "-", FAIL),
        ("spike", "value > factor x running median (needs history >= 3)",
         "factor=10", WARN),
        ("drop", "baseline - value > abs (or rel fraction of baseline)",
         "vs=baseline|best, abs=0.02, rel=0.1", FAIL),
        ("trend", "least-squares slope of history crosses the bound",
         "slope>0.05, window=8", WARN),
        ("above", "value > bound", "value=...", WARN),
        ("below", "value < bound", "value=...", WARN),
    ]
    lines = [f"{'check':<10} {'fires when':<52} {'params':<36} default",
             "-" * 110]
    for check, fires, params, severity in rows:
        lines.append(f"{check:<10} {fires:<52} {params:<36} {severity}")
    return "\n".join(lines)


@dataclass
class Alert:
    """One fired health alert, ready for streaming and gating."""

    rule: str
    severity: str
    metric: str
    value: Optional[float]
    message: str
    provenance: str = ""
    phase: Optional[str] = None
    epoch: Optional[int] = None

    def to_fields(self) -> Dict[str, object]:
        fields: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity,
            "metric": self.metric,
            "message": self.message,
        }
        if self.value is not None:
            fields["value"] = self.value
        if self.provenance:
            fields["provenance"] = self.provenance
        if self.phase is not None:
            fields["phase"] = self.phase
        if self.epoch is not None:
            fields["epoch"] = self.epoch
        return fields

    def format(self) -> str:
        where = self.provenance or "?"
        return (f"[{self.severity.upper()}] {self.rule}: {self.message} "
                f"(at {where})")


class HealthEngine:
    """Evaluates parsed rules against the live event stream.

    Parameters
    ----------
    rules:
        Parsed :class:`HealthRule` objects (see :func:`parse_rules`).
    baseline:
        ``metric -> value`` map for ``drop(vs=baseline)`` rules —
        typically the headline results of the latest prior run record
        for the same method/dataset (see
        :func:`repro.obs.compare.baseline_metrics`).
    registry:
        Metrics registry receiving the ``health.alerts`` counter; the
        process-global one by default, so alerts land in the run record
        of the run they police.
    """

    def __init__(self, rules: Sequence[HealthRule],
                 baseline: Optional[Dict[str, float]] = None,
                 registry: Optional[metrics_mod.Registry] = None):
        self.rules = list(rules)
        self.baseline = dict(baseline or {})
        self._registry = registry
        self.alerts: List[Alert] = []
        # (metric, phase) -> value history, in arrival order.
        self._history: Dict[Tuple[str, str], List[float]] = {}
        # (rule text, metric, phase) -> already fired (one alert per
        # site, so a NaN loss does not fire once per remaining epoch).
        self._fired: Dict[Tuple[str, str, str], bool] = {}
        self._best: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------ #
    # Event intake
    # ------------------------------------------------------------------ #
    def observe(self, event: Dict[str, object]) -> List[Alert]:
        """Feed one stream event; returns any newly fired alerts."""
        fired: List[Alert] = []
        kind = event.get("event")
        phase = str(event.get("phase", ""))
        for rule in self.rules:
            value = _extract(rule.metric, kind, event)
            if value is None:
                continue
            key = (rule.metric, phase)
            history = self._history.setdefault(key, [])
            alert = self._evaluate(rule, value, history, phase, event)
            history.append(value)
            if math.isfinite(value):
                best = self._best.get(key)
                if best is None or value > best:
                    self._best[key] = value
            if alert is not None:
                site = (rule.text, rule.metric, phase)
                if not self._fired.get(site):
                    self._fired[site] = True
                    self.alerts.append(alert)
                    fired.append(alert)
                    self._count(alert)
        return fired

    def note_anomaly(self, exc) -> Alert:
        """Convert an :class:`~repro.analysis.anomaly.AnomalyError` into a
        ``fail`` alert carrying the originating op's provenance."""
        provenance = ""
        if getattr(exc, "provenance", None) is not None:
            provenance = exc.provenance.format()
        alert = Alert(
            rule="anomaly.nonfinite",
            severity=FAIL,
            metric="anomaly",
            value=None,
            message=str(exc),
            provenance=provenance or f"{getattr(exc, 'phase', '?')} pass",
        )
        self.alerts.append(alert)
        self._count(alert)
        return alert

    def _count(self, alert: Alert) -> None:
        registry = self._registry
        if registry is None:
            registry = metrics_mod.get_registry()
        registry.counter("health.alerts").inc(
            severity=alert.severity, rule=alert.rule
        )

    # ------------------------------------------------------------------ #
    # Checks
    # ------------------------------------------------------------------ #
    def _evaluate(self, rule: HealthRule, value: float,
                  history: List[float], phase: str,
                  event: Dict[str, object]) -> Optional[Alert]:
        check = rule.check
        message: Optional[str] = None

        if check == "nonfinite":
            if not math.isfinite(value):
                message = f"{rule.metric} = {value} is not finite"
        elif check == "spike":
            factor = float(rule.param("factor", 10.0))
            finite = [v for v in history if math.isfinite(v)]
            if len(finite) >= 3 and math.isfinite(value):
                median = statistics.median(finite)
                if median > 0 and value > factor * median:
                    message = (f"{rule.metric} = {value:.4g} is "
                               f"{value / median:.1f}x the running median "
                               f"{median:.4g} (limit {factor:g}x)")
        elif check == "drop":
            reference = self._drop_reference(rule, phase)
            if reference is not None and math.isfinite(value):
                abs_drop = rule.param("abs")
                rel_drop = rule.param("rel")
                drop = reference - value
                if abs_drop is not None and drop > float(abs_drop):
                    message = (f"{rule.metric} = {value:.4g} dropped "
                               f"{drop:.4g} below "
                               f"{rule.param('vs', 'baseline')} "
                               f"{reference:.4g} (limit {float(abs_drop):g})")
                elif (rel_drop is not None and reference != 0
                        and drop / abs(reference) > float(rel_drop)):
                    message = (f"{rule.metric} = {value:.4g} dropped "
                               f"{drop / abs(reference):.1%} below "
                               f"{rule.param('vs', 'baseline')} "
                               f"{reference:.4g} "
                               f"(limit {float(rel_drop):.0%})")
        elif check == "trend":
            window = int(rule.param("window", 8))
            bound = rule.param("slope")
            direction = rule.param("slope_op", ">")
            finite = [v for v in history if math.isfinite(v)]
            if bound is not None and len(finite) + 1 >= max(window, 3):
                series = (finite + [value])[-window:]
                slope = _ols_slope(series)
                crossed = (slope > float(bound) if direction == ">"
                           else slope < float(bound))
                if crossed:
                    message = (f"{rule.metric} slope {slope:.4g}/epoch "
                               f"crossed {direction}{float(bound):g} "
                               f"over the last {len(series)} epochs")
        elif check == "above":
            bound = rule.param("value")
            if bound is not None and value > float(bound):
                message = (f"{rule.metric} = {value:.4g} above "
                           f"{float(bound):g}")
        elif check == "below":
            bound = rule.param("value")
            if bound is not None and value < float(bound):
                message = (f"{rule.metric} = {value:.4g} below "
                           f"{float(bound):g}")

        if message is None:
            return None
        epoch = event.get("epoch")
        provenance = _provenance(event, rule.metric)
        return Alert(
            rule=rule.text, severity=rule.severity, metric=rule.metric,
            value=value if math.isfinite(value) else None, message=message,
            provenance=provenance, phase=phase or None,
            epoch=epoch if isinstance(epoch, int) else None,
        )

    def _drop_reference(self, rule: HealthRule, phase: str
                        ) -> Optional[float]:
        source = str(rule.param("vs", "baseline"))
        if source == "best":
            return self._best.get((rule.metric, phase))
        value = self.baseline.get(rule.metric)
        return float(value) if value is not None else None

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def failed(self) -> bool:
        return any(a.severity == FAIL for a in self.alerts)

    def alert_counts(self) -> Dict[str, int]:
        return {
            "alerts_warn": sum(1 for a in self.alerts if a.severity == WARN),
            "alerts_fail": sum(1 for a in self.alerts if a.severity == FAIL),
        }

    def summary(self) -> Dict[str, object]:
        """The JSON-able health digest stored in the run record."""
        return {
            "rules": [rule.text for rule in self.rules],
            **self.alert_counts(),
            "alerts": [alert.to_fields() for alert in self.alerts],
        }


def _ols_slope(series: Sequence[float]) -> float:
    """Least-squares slope of ``series`` against its index."""
    n = len(series)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(series) / n
    num = sum((i - mean_x) * (y - mean_y) for i, y in enumerate(series))
    den = sum((i - mean_x) ** 2 for i in range(n))
    return num / den if den else 0.0


def _extract(metric: str, kind: object, event: Dict[str, object]
             ) -> Optional[float]:
    """The rule metric's value in this event, or None when absent."""
    sources = METRIC_SOURCES.get(metric)
    if sources is not None:
        for event_name, field_name in sources:
            if kind == event_name and field_name in event:
                return _as_float(event[field_name])
        return None
    if metric in event and kind != "alert":
        return _as_float(event[metric])
    return None


def _as_float(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _provenance(event: Dict[str, object], metric: str) -> str:
    """``phase/epoch`` context string for an alert (anomaly-style)."""
    parts: List[str] = []
    phase = event.get("phase")
    if phase:
        parts.append(f"phase={phase}")
    epoch = event.get("epoch")
    if epoch is not None:
        parts.append(f"epoch={epoch}")
    kind = event.get("event")
    if kind:
        parts.append(f"event={kind}")
    parts.append(f"metric={metric}")
    return " ".join(parts)
