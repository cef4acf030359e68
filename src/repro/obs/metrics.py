"""Metrics registry: counters, gauges and fixed-bucket histograms.

Dependency-free (stdlib only).  Three instrument kinds:

* :class:`Counter` — monotonically increasing totals (batches seen,
  optimiser steps, candidate generations).
* :class:`Gauge` — last-written values (current learning rate, latest
  gradient norm, validation Hits@1).
* :class:`Histogram` — fixed-bucket distributions with percentile
  *estimates* (batch latency, ranking latency, candidate-set sizes).

Every instrument supports labels, passed as keyword arguments at update
time; each distinct label combination is an independent series::

    registry.counter("optim.steps").inc(optimizer="adam")
    registry.histogram("trainer.batch_seconds").observe(dt, phase="attr")

There is a process-global default registry (swap it with
:func:`set_registry` or temporarily with :func:`use_registry`), which is a
:class:`NullRegistry` until observability is activated — the null path is
allocation-free so instrumented code costs near nothing by default.
Tests inject their own :class:`Registry` instances instead of touching the
global one.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram",
    "Registry", "NullRegistry",
    "DEFAULT_BUCKETS",
    "get_registry", "set_registry", "use_registry",
    "counter", "gauge", "histogram",
]

# Latency-flavoured default buckets (seconds): 1ms ... ~2min, roughly
# geometric.  Also serviceable for small counts/sizes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

LabelKey = Tuple[Tuple[str, str], ...]

_EMPTY_KEY: LabelKey = ()


def _label_key(labels: Dict[str, object]) -> LabelKey:
    if not labels:
        return _EMPTY_KEY
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_dict(key: LabelKey) -> Dict[str, str]:
    return dict(key)


class _Instrument:
    """Shared naming/label bookkeeping for all instrument kinds.

    Every update takes the per-instrument lock: ``inc``/``observe`` are
    read-modify-write sequences, so two threads updating the same series
    would otherwise lose increments.
    An uncontended ``threading.Lock`` costs ~100 ns, invisible at
    per-batch/per-step update granularity.
    """

    kind = "instrument"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._update_lock = threading.Lock()

    def series_labels(self) -> List[Dict[str, str]]:
        """The distinct label combinations observed so far."""
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing total, optionally labeled."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        key = _label_key(labels)
        with self._update_lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def series_labels(self) -> List[Dict[str, str]]:
        return [_label_dict(k) for k in self._values]

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "series": [
                {"labels": _label_dict(k), "value": v}
                for k, v in sorted(self._values.items())
            ],
        }


class Gauge(_Instrument):
    """The last value written (plus simple min/max tracking)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}
        self._minmax: Dict[LabelKey, Tuple[float, float]] = {}

    def set(self, value: float, **labels) -> None:
        key = _label_key(labels)
        value = float(value)
        with self._update_lock:
            self._values[key] = value
            lo, hi = self._minmax.get(key, (value, value))
            self._minmax[key] = (min(lo, value), max(hi, value))

    def value(self, **labels) -> Optional[float]:
        return self._values.get(_label_key(labels))

    def series_labels(self) -> List[Dict[str, str]]:
        return [_label_dict(k) for k in self._values]

    def snapshot(self) -> Dict[str, object]:
        out = []
        for key, value in sorted(self._values.items()):
            lo, hi = self._minmax[key]
            out.append({"labels": _label_dict(key), "value": value,
                        "min": lo, "max": hi})
        return {"kind": self.kind, "series": out}


class _HistogramSeries:
    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class Histogram(_Instrument):
    """Fixed-bucket histogram with percentile estimates.

    ``buckets`` are the inclusive upper bounds of each bucket, in strictly
    increasing order; values above the last bound land in an overflow
    bucket.  Percentiles are estimated as the upper bound of the bucket
    containing the requested rank (the overflow bucket reports the exact
    observed maximum), so estimates are *conservative*: the true
    percentile is never above the estimate by more than one bucket width.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None):
        super().__init__(name, help)
        bounds = tuple(
            float(b) for b in (DEFAULT_BUCKETS if buckets is None else buckets)
        )
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = bounds
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def _get_series(self, labels: Dict[str, object]) -> _HistogramSeries:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series.setdefault(
                key, _HistogramSeries(len(self.buckets))
            )
        return series

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._update_lock:
            series = self._get_series(labels)
            series.counts[idx] += 1
            series.count += 1
            series.sum += value
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series else 0.0

    def mean(self, **labels) -> float:
        series = self._series.get(_label_key(labels))
        if not series or not series.count:
            return 0.0
        return series.sum / series.count

    def percentile(self, p: float, **labels) -> float:
        """Estimate the ``p``-th percentile (``0 <= p <= 100``)."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        series = self._series.get(_label_key(labels))
        if not series or not series.count:
            return 0.0
        rank = max(1, math.ceil(series.count * p / 100.0))
        running = 0
        for idx, bucket_count in enumerate(series.counts):
            running += bucket_count
            if running >= rank:
                if idx < len(self.buckets):
                    return self.buckets[idx]
                return series.max  # overflow bucket: exact max
        return series.max

    def series_labels(self) -> List[Dict[str, str]]:
        return [_label_dict(k) for k in self._series]

    def snapshot(self) -> Dict[str, object]:
        out = []
        for key, series in sorted(self._series.items()):
            out.append({
                "labels": _label_dict(key),
                "count": series.count,
                "sum": series.sum,
                "min": series.min if series.count else None,
                "max": series.max if series.count else None,
                "buckets": list(self.buckets),
                "counts": list(series.counts),
                "p50": self.percentile(50, **_label_dict(key)),
                "p95": self.percentile(95, **_label_dict(key)),
                "p99": self.percentile(99, **_label_dict(key)),
            })
        return {"kind": self.kind, "series": out}


class Registry:
    """A namespace of instruments; create-or-get by name.

    Instances are cheap — tests build their own and pass them around or
    install them with :func:`use_registry`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    @property
    def enabled(self) -> bool:
        return True

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        # Lock-free fast path for the overwhelmingly common repeat lookup.
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {cls.kind}"
                )
            return instrument
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help, **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, not {cls.kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()

    def snapshot(self) -> Dict[str, object]:
        """JSON-able dump of every instrument (run-record ``metrics``)."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def value(self, **labels) -> float:
        return 0.0


class _NullGauge:
    __slots__ = ()

    def set(self, value: float, **labels) -> None:
        pass

    def value(self, **labels) -> None:
        return None


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float, **labels) -> None:
        pass

    def count(self, **labels) -> int:
        return 0

    def sum(self, **labels) -> float:
        return 0.0

    def mean(self, **labels) -> float:
        return 0.0

    def percentile(self, p: float, **labels) -> float:
        return 0.0


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(Registry):
    """Allocation-free no-op registry — the default until obs is enabled."""

    def __init__(self):
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str, help: str = "") -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "") -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, object]:
        return {}


_NULL_REGISTRY = NullRegistry()
_default: Registry = _NULL_REGISTRY


def get_registry() -> Registry:
    """The process-global registry (a no-op :class:`NullRegistry` until
    observability is activated, e.g. by :func:`repro.obs.session`)."""
    return _default


def set_registry(registry: Optional[Registry]) -> Registry:
    """Install ``registry`` as the global default; ``None`` restores the
    no-op registry.  Returns the previously installed registry."""
    global _default
    previous = _default
    _default = registry if registry is not None else _NULL_REGISTRY
    return previous


class use_registry:
    """Context manager installing ``registry`` globally for the block."""

    def __init__(self, registry: Optional[Registry]):
        self.registry = registry
        self._previous: Optional[Registry] = None

    def __enter__(self) -> Registry:
        self._previous = set_registry(self.registry)
        return get_registry()

    def __exit__(self, *exc) -> None:
        set_registry(self._previous)


# Module-level conveniences used by instrumented code: always delegate to
# the *current* global registry so swapping it mid-process takes effect.
def counter(name: str, help: str = ""):
    return _default.counter(name, help)


def gauge(name: str, help: str = ""):
    return _default.gauge(name, help)


def histogram(name: str, help: str = "",
              buckets: Optional[Sequence[float]] = None):
    return _default.histogram(name, help, buckets=buckets)
