"""Unified, namespaced metrics registry.

Before this module, the repo's metrics lived in three disjoint worlds:
:class:`~repro.sim.TimeSeries` gauges inside :class:`MetricsCollector`,
:class:`~repro.sim.CounterMonitor` byte counters on links/GPUs/storage,
and ad-hoc derived quantities (utilization fractions, port rates) computed
inline by each experiment.  The :class:`MetricsRegistry` puts all three
behind one slash-namespaced query/export API::

    registry.series("gpu/host0/gpu0/util", unit="%")
    registry.attach("fabric/falcon0/H1/ingress", link_counter)
    registry.gauge("gpu/host0/gpu0/busy_frac", gpu.busy_fraction)

    registry.names("gpu/")                  # enumerate a namespace
    registry.summary("gpu/host0/gpu0/util") # SummaryStats dict
    registry.export(t0, t1)                 # every metric, JSON-able

Derived *gauges* are callables ``fn(t0, t1) -> float`` evaluated lazily at
query time, which is how busy-fraction metrics must be read (post-hoc over
a window; see ``MetricsCollector.stop``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from ..sim import CounterMonitor, TimeSeries

__all__ = ["MetricsRegistry", "MetricError"]

Metric = Union[TimeSeries, CounterMonitor, Callable[[float, float], float]]


class MetricError(KeyError):
    """Unknown metric name or conflicting registration."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class MetricsRegistry:
    """Namespaced directory of time series, counters, and derived gauges."""

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    # -- registration -----------------------------------------------------
    def attach(self, name: str, metric: Metric) -> Metric:
        """Register an existing metric object under ``name``.

        Re-attaching the *same* object under the same name is a no-op so
        idempotent wiring (e.g. re-watching a device) stays cheap;
        attaching a different object under a taken name is an error.
        """
        if not name:
            raise MetricError("metric name must be non-empty")
        existing = self._metrics.get(name)
        if existing is not None:
            if existing is metric:
                return metric
            raise MetricError(f"metric {name!r} is already registered")
        self._metrics[name] = metric
        return metric

    def series(self, name: str, unit: str = "") -> TimeSeries:
        """Create (or return the existing) named :class:`TimeSeries`."""
        existing = self._metrics.get(name)
        if isinstance(existing, TimeSeries):
            return existing
        return self.attach(name, TimeSeries(name, unit))

    def counter(self, name: str, unit: str = "bytes") -> CounterMonitor:
        """Create (or return the existing) named :class:`CounterMonitor`."""
        existing = self._metrics.get(name)
        if isinstance(existing, CounterMonitor):
            return existing
        return self.attach(name, CounterMonitor(name, unit))

    def gauge(self, name: str,
              fn: Callable[[float, float], float]) -> None:
        """Register a derived gauge ``fn(t0, t1) -> value``."""
        self.attach(name, fn)

    # -- lookup -----------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricError(f"unknown metric {name!r}") from None

    def names(self, prefix: Optional[str] = None) -> list[str]:
        """All registered names (optionally under a namespace prefix)."""
        if prefix is None:
            return sorted(self._metrics)
        return sorted(n for n in self._metrics if n.startswith(prefix))

    # -- querying ---------------------------------------------------------
    def value(self, name: str, t0: float, t1: float) -> float:
        """One scalar for any metric kind over ``[t0, t1]``.

        TimeSeries -> time-weighted mean; CounterMonitor -> mean rate;
        gauge -> ``fn(t0, t1)``.
        """
        metric = self.get(name)
        if isinstance(metric, TimeSeries):
            return metric.summary(t0, t1).time_weighted_mean
        if isinstance(metric, CounterMonitor):
            return metric.mean_rate(t0, t1)
        return metric(t0, t1)

    def summary(self, name: str, t0: Optional[float] = None,
                t1: Optional[float] = None) -> dict:
        """JSON-able summary of one metric over an optional window."""
        metric = self.get(name)
        if isinstance(metric, TimeSeries):
            out = metric.summary(t0, t1).as_dict()
            out["kind"] = "series"
            out["unit"] = metric.unit
            return out
        if isinstance(metric, CounterMonitor):
            lo = 0.0 if t0 is None else t0
            times, totals = metric.breakpoints(t1)
            hi = times[-1] if t1 is None else t1
            return {
                "kind": "counter",
                "unit": metric.unit,
                "total": float(totals[-1]),
                "window_total": metric.total_between(lo, hi)
                if hi >= lo else float("nan"),
                "rate": metric.mean_rate(lo, hi),
            }
        if t0 is None or t1 is None:
            raise MetricError(
                f"gauge {name!r} needs an explicit (t0, t1) window")
        return {"kind": "gauge", "value": metric(t0, t1)}

    def export(self, t0: Optional[float] = None,
               t1: Optional[float] = None,
               prefix: Optional[str] = None) -> dict[str, dict]:
        """Summaries for every metric (gauges only when a window given).

        Gauges whose evaluation fails or returns NaN without a window are
        skipped rather than poisoning the export.
        """
        out: dict[str, dict] = {}
        for name in self.names(prefix):
            metric = self._metrics[name]
            if not isinstance(metric, (TimeSeries, CounterMonitor)):
                if t0 is None or t1 is None:
                    continue
                try:
                    value = metric(t0, t1)
                except Exception:
                    continue
                if isinstance(value, float) and math.isnan(value):
                    continue
                out[name] = {"kind": "gauge", "value": value}
            else:
                out[name] = self.summary(name, t0, t1)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MetricsRegistry {len(self._metrics)} metrics>"
