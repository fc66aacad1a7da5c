"""Unit and property tests for repro.sim.monitor."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import CounterMonitor, TimeSeries


class TestTimeSeries:
    def test_empty_summary_is_nan(self):
        ts = TimeSeries("empty")
        s = ts.summary()
        assert s.count == 0
        assert np.isnan(s.mean)

    def test_basic_stats(self):
        ts = TimeSeries("util", "%")
        for t, v in [(0, 10.0), (1, 20.0), (2, 30.0)]:
            ts.record(t, v)
        s = ts.summary()
        assert s.count == 3
        assert s.mean == pytest.approx(20.0)
        assert s.minimum == 10.0
        assert s.maximum == 30.0
        assert s.p50 == pytest.approx(20.0)

    def test_time_weighted_mean_unequal_spacing(self):
        ts = TimeSeries()
        # value 0 over [0, 9), value 100 over [9, 10)
        ts.record(0.0, 0.0)
        ts.record(9.0, 100.0)
        ts.record(10.0, 100.0)
        s = ts.summary()
        assert s.time_weighted_mean == pytest.approx(10.0)

    def test_non_monotonic_rejected(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

    def test_windowed_summary(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(float(t), float(t))
        s = ts.summary(t_start=5.0, t_end=7.0)
        assert s.count == 3
        assert s.mean == pytest.approx(6.0)

    def test_resample_sample_and_hold(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        ts.record(2.0, 5.0)
        out = ts.resample([0.0, 0.5, 1.9, 2.0, 3.0])
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 5.0, 5.0])

    def test_resample_before_first_sample_is_nan(self):
        ts = TimeSeries()
        ts.record(1.0, 7.0)
        out = ts.resample([0.0, 1.0])
        assert np.isnan(out[0]) and out[1] == 7.0

    def test_windows_means(self):
        ts = TimeSeries()
        for t in range(6):
            ts.record(float(t), float(t))
        starts, means = ts.windows(2.0)
        np.testing.assert_allclose(starts, [0.0, 2.0, 4.0])
        np.testing.assert_allclose(means, [0.5, 2.5, 4.5])

    def test_windows_bad_width(self):
        ts = TimeSeries()
        with pytest.raises(ValueError):
            ts.windows(0.0)

    def test_last(self):
        ts = TimeSeries()
        assert ts.last() is None
        ts.record(0.0, 3.0)
        assert ts.last() == 3.0

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=50))
    def test_tw_mean_bounded_by_min_max(self, values):
        ts = TimeSeries()
        for i, v in enumerate(values):
            ts.record(float(i), v)
        s = ts.summary()
        assert s.minimum - 1e-9 <= s.time_weighted_mean <= s.maximum + 1e-9


class TestCounterMonitor:
    def test_total_accumulates(self):
        c = CounterMonitor("bytes")
        c.add(1.0, 100.0)
        c.add(2.0, 50.0)
        assert c.total == 150.0

    def test_negative_increment_rejected(self):
        c = CounterMonitor()
        with pytest.raises(ValueError):
            c.add(1.0, -5.0)

    def test_non_monotonic_time_rejected(self):
        c = CounterMonitor()
        c.add(2.0, 1.0)
        with pytest.raises(ValueError):
            c.add(1.0, 1.0)

    def test_same_time_accumulates(self):
        c = CounterMonitor()
        c.add(1.0, 10.0)
        c.add(1.0, 15.0)
        assert c.total == 25.0

    def test_mean_rate(self):
        c = CounterMonitor()
        c.add(0.0, 0.0)
        c.add(10.0, 1000.0)
        assert c.mean_rate(0.0, 10.0) == pytest.approx(100.0)

    def test_mean_rate_zero_window_is_nan(self):
        # A rate over a zero-length window is undefined, not zero (and
        # must not raise ZeroDivisionError).
        c = CounterMonitor()
        c.add(1.0, 100.0)
        assert math.isnan(c.mean_rate(1.0, 1.0))

    def test_mean_rate_reversed_window_raises(self):
        c = CounterMonitor()
        with pytest.raises(ValueError):
            c.mean_rate(2.0, 1.0)

    def test_total_between_interpolates(self):
        c = CounterMonitor()
        c.add(10.0, 100.0)
        assert c.total_between(0.0, 5.0) == pytest.approx(50.0)

    def test_rate_series(self):
        c = CounterMonitor()
        c.add(1.0, 100.0)
        c.add(2.0, 100.0)
        c.add(3.0, 100.0)
        starts, rates = c.rate_series(1.0, t_end=3.0)
        assert len(starts) == 3
        np.testing.assert_allclose(rates, [100.0, 100.0, 100.0])

    @given(st.lists(
        st.tuples(st.floats(min_value=0.001, max_value=1.0),
                  st.floats(min_value=0.0, max_value=1e6)),
        min_size=1, max_size=40))
    def test_total_between_sums_to_total(self, increments):
        c = CounterMonitor()
        t = 0.0
        for dt, amount in increments:
            t += dt
            c.add(t, amount)
        assert c.total_between(0.0, t) == pytest.approx(c.total, rel=1e-9)


class TestCounterSlope:
    """The live rate of a piecewise-linear counter."""

    def test_only_a_real_rate_change_appends_a_breakpoint(self):
        c = CounterMonitor()
        c.set_rate(0.0, 10.0)
        c.set_rate(1.0, 10.0)
        c.set_rate(2.0, 4.0)
        c.set_rate(3.0, 0.0)
        times, totals = c.breakpoints()
        assert times.tolist() == [0.0, 2.0, 3.0]
        assert totals.tolist() == [0.0, 20.0, 24.0]
        assert c.total == 24.0

    def test_readers_extrapolate_along_the_live_rate(self):
        c = CounterMonitor()
        c.set_rate(1.0, 5.0)
        times, totals = c.breakpoints(3.0)
        assert times.tolist() == [0.0, 1.0, 3.0]
        assert totals.tolist() == [0.0, 0.0, 10.0]
        assert c.total_between(0.0, 3.0) == 10.0
        assert c.mean_rate(2.0, 3.0) == 5.0
        _starts, rates = c.rate_series(1.0, t_end=3.0)
        np.testing.assert_allclose(rates, [0.0, 5.0, 5.0])
        # The stored curve ends at the last breakpoint.
        assert c.breakpoints()[0].tolist() == [0.0, 1.0]

    def test_a_lump_lands_on_the_sloped_total(self):
        c = CounterMonitor()
        c.set_rate(0.0, 2.0)
        c.add(3.0, 1.0)
        assert c.breakpoints()[1].tolist() == [0.0, 7.0]
        with pytest.raises(ValueError):
            c.set_rate(2.0, 1.0)


class TestWindowedEdgeCases:
    """Windowed statistics on degenerate windows (observability PR)."""

    def test_summary_window_with_no_samples_inside(self):
        ts = TimeSeries("util")
        ts.record(10.0, 50.0)
        s = ts.summary(2.0, 5.0)
        assert s.count == 0
        assert np.isnan(s.mean)
        assert np.isnan(s.time_weighted_mean)

    def test_summary_window_entirely_before_first_sample(self):
        ts = TimeSeries("util")
        ts.record(100.0, 1.0)
        ts.record(200.0, 2.0)
        s = ts.summary(0.0, 50.0)
        assert s.count == 0
        assert np.isnan(s.time_weighted_mean)

    def test_summary_point_window_t0_equals_t1(self):
        ts = TimeSeries("util")
        ts.record(0.0, 10.0)
        ts.record(1.0, 30.0)
        ts.record(2.0, 50.0)
        s = ts.summary(1.0, 1.0)
        # exactly one sample falls on the instant; stats degrade gracefully
        assert s.count == 1
        assert s.mean == 30.0
        assert s.time_weighted_mean == 30.0

    def test_summary_point_window_off_sample_is_empty(self):
        ts = TimeSeries("util")
        ts.record(0.0, 10.0)
        ts.record(2.0, 50.0)
        s = ts.summary(1.0, 1.0)
        assert s.count == 0
        assert np.isnan(s.mean)

    def test_resample_before_first_sample_is_nan(self):
        ts = TimeSeries("util")
        ts.record(5.0, 42.0)
        out = ts.resample([0.0, 4.9, 5.0, 6.0])
        assert np.isnan(out[0]) and np.isnan(out[1])
        assert out[2] == 42.0 and out[3] == 42.0

    def test_counter_window_before_first_increment(self):
        c = CounterMonitor()
        c.add(10.0, 100.0)
        assert c.total_between(0.0, 5.0) == pytest.approx(50.0)
        # rate over a real window is finite even with no increment event
        # inside it (growth is linearly interpolated)
        c2 = CounterMonitor()
        c2.add(100.0, 1000.0)
        assert c2.mean_rate(0.0, 10.0) == pytest.approx(10.0)

    def test_counter_zero_length_window_total_is_zero(self):
        c = CounterMonitor()
        c.add(1.0, 100.0)
        assert c.total_between(1.0, 1.0) == 0.0
        assert math.isnan(c.mean_rate(1.0, 1.0))

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_mean_rate_never_raises_zero_division(self, t):
        c = CounterMonitor()
        c.add(t, 10.0)
        value = c.mean_rate(t, t)
        assert math.isnan(value)
