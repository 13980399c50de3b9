"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Instrumented modules register named metrics once (registration is
idempotent) and update them with label sets::

    _INJECTIONS = metrics.counter("injections_total")
    _INJECTIONS.inc(model="bitflip", target="ff")

    _RECONFIG = metrics.histogram("reconfig_seconds",
                                  buckets=RECONFIG_BUCKETS)
    _RECONFIG.observe(0.26, mechanism="ff-lsr")

Histogram buckets are cumulative upper bounds with Prometheus ``le``
(less-or-equal) semantics; a ``+Inf`` bucket is always appended.  Two
exporters are provided: :meth:`MetricsRegistry.render_text` (the
Prometheus text exposition format, the CLI's ``--metrics out.prom``)
and :meth:`MetricsRegistry.to_dict` (JSON).

Multiprocessing: each worker process owns a private copy of the
registry (it is plain module state).  The campaign scheduler ships
:meth:`~MetricsRegistry.to_state` snapshots back with every shard and
the parent :meth:`~MetricsRegistry.merge_state`\\ s them, so campaign
metrics aggregate across any worker count.  :meth:`~MetricsRegistry.reset`
zeroes values *in place* — metric handles held by instrumented modules
stay valid.
"""

from __future__ import annotations

import bisect
import json
import threading
from typing import Any, Dict, List, Optional, Tuple, Type, TypeVar

from ..errors import ObservabilityError

LabelKey = Tuple[Tuple[str, str], ...]

_MetricT = TypeVar("_MetricT", bound="_Metric")

#: Default histogram bounds (seconds): spans four orders of magnitude
#: around the board model's per-transaction latency.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((name, str(value))
                        for name, value in labels.items()))


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Shared registration identity of the three metric kinds."""

    kind = "metric"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()


class Counter(_Metric):
    """Monotonically increasing per-label-set totals."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(self._values.values())

    def series(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def _reset(self) -> None:
        with self._lock:
            self._values.clear()

    def _merge(self, series: Dict[LabelKey, float]) -> None:
        with self._lock:
            for key, value in series.items():
                self._values[key] = self._values.get(key, 0.0) + value


class Gauge(_Metric):
    """Last-written per-label-set values."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def _reset(self) -> None:
        with self._lock:
            self._values.clear()

    def _merge(self, series: Dict[LabelKey, float]) -> None:
        with self._lock:
            self._values.update(series)


class Histogram(_Metric):
    """Fixed-bucket distribution with ``le`` (≤ bound) semantics."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ObservabilityError(
                f"histogram {self.name} needs at least one bucket")
        self.bounds = bounds  # +Inf overflow bucket is implicit
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.bounds) + 1)
            counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value

    # -- per-series views ---------------------------------------------
    def count(self, **labels: Any) -> int:
        return sum(self._counts.get(_label_key(labels), ()))

    def sum(self, **labels: Any) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def bucket_counts(self, **labels: Any) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is ``+Inf``."""
        key = _label_key(labels)
        return list(self._counts.get(key, [0] * (len(self.bounds) + 1)))

    def cumulative_counts(self, **labels: Any) -> List[int]:
        """Cumulative ``le`` counts as the text exposition reports them."""
        total = 0
        cumulative: List[int] = []
        for count in self.bucket_counts(**labels):
            total += count
            cumulative.append(total)
        return cumulative

    def series(self) -> Dict[LabelKey, Dict[str, Any]]:
        with self._lock:
            return {key: {"counts": list(counts),
                          "sum": self._sums.get(key, 0.0)}
                    for key, counts in self._counts.items()}

    def _reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._sums.clear()

    def _merge(self, series: Dict[LabelKey, Dict[str, Any]]) -> None:
        with self._lock:
            for key, data in series.items():
                counts = self._counts.get(key)
                if counts is None:
                    counts = self._counts[key] = [0] * (len(self.bounds)
                                                        + 1)
                for index, count in enumerate(data["counts"]):
                    counts[index] += count
                self._sums[key] = self._sums.get(key, 0.0) + data["sum"]


class MetricsRegistry:
    """Names → metrics; the single aggregation point of a process."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- registration (idempotent) -------------------------------------
    def _register(self, name: str, kind: Type[_MetricT],
                  **kwargs: Any) -> _MetricT:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ObservabilityError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind.kind}")
                return existing
            metric = self._metrics[name] = kind(name, **kwargs)
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(name, Counter, help_text=help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(name, Gauge, help_text=help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._register(name, Histogram, help_text=help_text,
                              buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    # -- lifecycle -----------------------------------------------------
    def reset(self) -> None:
        """Zero every metric in place (handles stay registered)."""
        for metric in list(self._metrics.values()):
            metric._reset()

    # -- cross-process aggregation -------------------------------------
    def to_state(self) -> Dict[str, Dict[str, Any]]:
        """Picklable snapshot for shipping across process boundaries."""
        state: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for name, metric in list(self._metrics.items()):
            if isinstance(metric, Counter):
                state["counters"][name] = metric.series()
            elif isinstance(metric, Gauge):
                state["gauges"][name] = metric.series()
            elif isinstance(metric, Histogram):
                state["histograms"][name] = {
                    "buckets": metric.bounds,
                    "series": metric.series(),
                }
        return state

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another process's snapshot into this registry."""
        for name, series in state.get("counters", {}).items():
            self.counter(name)._merge(series)
        for name, series in state.get("gauges", {}).items():
            self.gauge(name)._merge(series)
        for name, data in state.get("histograms", {}).items():
            self.histogram(name, buckets=tuple(data["buckets"])) \
                ._merge(data["series"])

    # -- exporters -----------------------------------------------------
    def render_text(self) -> str:
        """Prometheus text exposition format (``--metrics out.prom``)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                series = metric.series()
                for key in sorted(series):
                    lines.append(
                        f"{name}{_render_labels(key)} {series[key]:g}")
            elif isinstance(metric, Histogram):
                hseries = metric.series()
                bounds = [f"{bound:g}" for bound in metric.bounds]
                bounds.append("+Inf")
                for key in sorted(hseries):
                    total = 0
                    for bound_text, count in zip(
                            bounds, hseries[key]["counts"]):
                        total += count
                        le = f'le="{bound_text}"'
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels(key, le)} {total}")
                    lines.append(f"{name}_sum{_render_labels(key)} "
                                 f"{hseries[key]['sum']:g}")
                    lines.append(f"{name}_count{_render_labels(key)} "
                                 f"{total}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible export of every metric and series."""
        out: Dict[str, Any] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, (Counter, Gauge)):
                out[name] = {
                    "kind": metric.kind,
                    "series": [{"labels": dict(key), "value": value}
                               for key, value
                               in sorted(metric.series().items())],
                }
            elif isinstance(metric, Histogram):
                out[name] = {
                    "kind": metric.kind,
                    "buckets": list(metric.bounds),
                    "series": [{"labels": dict(key),
                                "counts": data["counts"],
                                "sum": data["sum"]}
                               for key, data
                               in sorted(metric.series().items())],
                }
        return out

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


#: The process-wide registry every instrumented module records into.
REGISTRY = MetricsRegistry()


def counter(name: str, help_text: str = "") -> Counter:
    return REGISTRY.counter(name, help_text)


def gauge(name: str, help_text: str = "") -> Gauge:
    return REGISTRY.gauge(name, help_text)


def histogram(name: str, help_text: str = "",
              buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
    return REGISTRY.histogram(name, help_text, buckets)
