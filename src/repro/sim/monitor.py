"""Time-series instrumentation for simulation models.

Two collector styles are provided:

- :class:`TimeSeries` — explicit ``record(t, value)`` samples, with
  time-weighted and plain statistics, resampling onto a regular grid,
  and windowed aggregation.  Used for utilization traces (Figs 9/10/13/14).
- :class:`CounterMonitor` — monotonically increasing, piecewise-linear
  counters (bytes on a port), from which rates over arbitrary windows
  can be derived (Fig 12's ingress/egress GB/s).

Both are plain-Python with NumPy-backed summarization so that recording
during a simulation stays cheap (append to a list) and analysis is
vectorized afterwards — per the hpc-parallel guidance, we avoid per-sample
NumPy work in the hot path and batch it at summary time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = ["TimeSeries", "CounterMonitor", "SummaryStats"]


@dataclass(frozen=True)
class SummaryStats:
    """Summary statistics of a time series."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    time_weighted_mean: float

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "time_weighted_mean": self.time_weighted_mean,
        }


_EMPTY = SummaryStats(0, float("nan"), float("nan"), float("nan"),
                      float("nan"), float("nan"), float("nan"), float("nan"))


class TimeSeries:
    """Append-only (time, value) samples with vectorized analysis.

    Values are assumed piecewise-constant between samples (sample-and-hold),
    which matches how utilization gauges behave.
    """

    def __init__(self, name: str = "", unit: str = ""):
        self.name = name
        self.unit = unit
        self._times: list[float] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time: float, value: float) -> None:
        """Append one sample.  Times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"non-monotonic sample time {time} < {self._times[-1]}")
        self._times.append(time)
        self._values.append(value)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def last(self) -> Optional[float]:
        return self._values[-1] if self._values else None

    def summary(self, t_start: Optional[float] = None,
                t_end: Optional[float] = None) -> SummaryStats:
        """Statistics over ``[t_start, t_end]`` (defaults: whole series)."""
        if not self._times:
            return _EMPTY
        t = self.times
        v = self.values
        if t_start is not None or t_end is not None:
            lo = t_start if t_start is not None else t[0]
            hi = t_end if t_end is not None else t[-1]
            mask = (t >= lo) & (t <= hi)
            t, v = t[mask], v[mask]
            if t.size == 0:
                return _EMPTY
        tw = self._time_weighted_mean(t, v)
        return SummaryStats(
            count=int(v.size),
            mean=float(v.mean()),
            std=float(v.std()),
            minimum=float(v.min()),
            maximum=float(v.max()),
            p50=float(np.percentile(v, 50)),
            p95=float(np.percentile(v, 95)),
            time_weighted_mean=tw,
        )

    @staticmethod
    def _time_weighted_mean(t: np.ndarray, v: np.ndarray) -> float:
        if t.size < 2:
            return float(v[-1]) if v.size else float("nan")
        dt = np.diff(t)
        total = dt.sum()
        if total <= 0:
            return float(v.mean())
        # sample-and-hold: value v[i] applies over [t[i], t[i+1])
        return float(np.dot(v[:-1], dt) / total)

    def resample(self, t_grid: Sequence[float]) -> np.ndarray:
        """Sample-and-hold values on an arbitrary time grid."""
        grid = np.asarray(t_grid, dtype=float)
        if not self._times:
            return np.full(grid.shape, np.nan)
        t = self.times
        v = self.values
        idx = np.searchsorted(t, grid, side="right") - 1
        out = np.where(idx >= 0, v[np.clip(idx, 0, v.size - 1)], np.nan)
        return out

    def windows(self, width: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean value per fixed-width window; returns (window_starts, means)."""
        if width <= 0:
            raise ValueError("window width must be positive")
        if not self._times:
            return np.array([]), np.array([])
        t = self.times
        v = self.values
        start = t[0]
        bins = np.floor((t - start) / width).astype(int)
        n = bins[-1] + 1
        sums = np.zeros(n)
        counts = np.zeros(n)
        np.add.at(sums, bins, v)
        np.add.at(counts, bins, 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = sums / counts
        return start + width * np.arange(n), means


class CounterMonitor:
    """A monotonically increasing counter (e.g. bytes through a port).

    The counter is piecewise-linear: ``(time, total)`` breakpoints plus
    one live rate, the slope after the last breakpoint.  :meth:`add`
    lumps an amount in at one instant; :meth:`set_rate` changes the
    slope and appends a breakpoint only when the slope really changes,
    so a steady stream costs nothing between its rate changes.  Every
    reader goes through :meth:`breakpoints`, which extrapolates along
    the live rate, so a reading at the current time is exact mid-run.
    """

    def __init__(self, name: str = "", unit: str = "bytes"):
        self.name = name
        self.unit = unit
        self._times: list[float] = [0.0]
        self._totals: list[float] = [0.0]
        #: Growth per second after the last breakpoint.
        self.rate = 0.0

    @property
    def total(self) -> float:
        """The value at the last breakpoint: the final total once the
        rate is back to 0.0 (mid-run, read ``breakpoints(now)``)."""
        return self._totals[-1]

    def _settle(self, time: float) -> None:
        """Move the last breakpoint up to ``time`` along the live rate."""
        last = self._times[-1]
        if time < last:
            raise ValueError(f"non-monotonic counter time {time} < {last}")
        if time > last:
            self._totals.append(self._totals[-1] + self.rate * (time - last))
            self._times.append(time)

    def add(self, time: float, amount: float) -> None:
        """Add ``amount`` at ``time``.  Amounts must be non-negative."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._settle(time)
        self._totals[-1] += amount

    def set_rate(self, time: float, rate: float) -> None:
        """Grow at ``rate`` per second from ``time`` on."""
        if rate != self.rate:
            self._settle(time)
            self.rate = rate

    def breakpoints(self, until: Optional[float] = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """``(times, totals)`` of the curve, linear between points.

        With ``until`` past the last breakpoint, one more point is
        extrapolated along the live rate, so the curve covers
        ``[0, until]``.
        """
        times, totals = self._times, self._totals
        last = times[-1]
        if until is not None and until > last:
            times = times + [until]
            totals = totals + [totals[-1] + self.rate * (until - last)]
        return np.asarray(times), np.asarray(totals)

    def total_between(self, t0: float, t1: float) -> float:
        """Counter growth over [t0, t1], linearly interpolated."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        t, c = self.breakpoints(t1)
        v0, v1 = np.interp([t0, t1], t, c)
        return float(v1 - v0)

    def mean_rate(self, t0: float, t1: float) -> float:
        """Average rate (unit/second) over [t0, t1].

        A zero-length window has no defined rate — NaN, not 0.0 (which
        would silently drag down averages) and not ZeroDivisionError.
        """
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t1 == t0:
            return float("nan")
        return self.total_between(t0, t1) / (t1 - t0)

    def rate_series(self, width: float,
                    t_end: Optional[float] = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-window average rates; returns (window_starts, rates).

        ``t_end`` defaults to the last breakpoint.
        """
        if width <= 0:
            raise ValueError("window width must be positive")
        t, c = self.breakpoints(t_end)
        hi = t_end if t_end is not None else t[-1]
        if hi <= 0:
            return np.array([]), np.array([])
        edges = np.arange(0.0, hi + width, width)
        at_edges = np.interp(edges, t, c)
        rates = np.diff(at_edges) / width
        return edges[:-1], rates
