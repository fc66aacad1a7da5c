"""Tests for the unified MetricsRegistry (repro.telemetry.registry)."""

import math

import pytest

from repro.fabric import GB, PCIE_GEN4_X16, Topology
from repro.sim import CounterMonitor, Environment, TimeSeries
from repro.telemetry import MetricError, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestRegistration:
    def test_series_creates_then_returns_same(self, registry):
        a = registry.series("gpu/host0/gpu0/util", unit="%")
        b = registry.series("gpu/host0/gpu0/util")
        assert a is b
        assert isinstance(a, TimeSeries)

    def test_counter_creates_then_returns_same(self, registry):
        a = registry.counter("fabric/H1/ingress")
        assert registry.counter("fabric/H1/ingress") is a
        assert isinstance(a, CounterMonitor)

    def test_attach_same_object_is_idempotent(self, registry):
        c = CounterMonitor("bytes")
        registry.attach("link/a->b", c)
        registry.attach("link/a->b", c)
        assert len(registry) == 1

    def test_attach_conflicting_object_raises(self, registry):
        registry.attach("x", CounterMonitor())
        with pytest.raises(MetricError):
            registry.attach("x", CounterMonitor())

    def test_series_name_taken_by_counter_raises(self, registry):
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.series("x")

    def test_empty_name_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.attach("", TimeSeries())

    def test_unknown_name_raises_with_readable_message(self, registry):
        with pytest.raises(MetricError, match="unknown metric"):
            registry.get("nope")


class TestNamespaces:
    def test_names_filters_by_prefix(self, registry):
        registry.series("gpu/g0/util")
        registry.series("gpu/g1/util")
        registry.counter("fabric/H1/ingress")
        assert registry.names("gpu/") == ["gpu/g0/util", "gpu/g1/util"]
        assert len(registry.names()) == 3
        assert "gpu/g0/util" in registry


class TestQuerying:
    def test_value_series_is_time_weighted_mean(self, registry):
        ts = registry.series("util")
        ts.record(0.0, 0.0)
        ts.record(9.0, 100.0)
        ts.record(10.0, 100.0)
        assert registry.value("util", 0.0, 10.0) == pytest.approx(10.0)

    def test_value_counter_is_mean_rate(self, registry):
        c = registry.counter("bytes")
        c.add(0.0, 0.0)
        c.add(10.0, 500.0)
        assert registry.value("bytes", 0.0, 10.0) == pytest.approx(50.0)

    def test_value_gauge_calls_through(self, registry):
        registry.gauge("busy", lambda t0, t1: t1 - t0)
        assert registry.value("busy", 2.0, 5.0) == 3.0

    def test_summary_kinds(self, registry):
        registry.series("s").record(0.0, 1.0)
        registry.counter("c").add(1.0, 10.0)
        registry.gauge("g", lambda t0, t1: 42.0)
        assert registry.summary("s")["kind"] == "series"
        assert registry.summary("c")["kind"] == "counter"
        assert registry.summary("g", 0.0, 1.0) == {"kind": "gauge",
                                                   "value": 42.0}

    def test_gauge_summary_without_window_raises(self, registry):
        registry.gauge("g", lambda t0, t1: 1.0)
        with pytest.raises(MetricError):
            registry.summary("g")


class TestExport:
    def test_export_covers_all_kinds(self, registry):
        registry.series("s").record(0.0, 5.0)
        registry.counter("c").add(1.0, 10.0)
        registry.gauge("g", lambda t0, t1: 7.0)
        out = registry.export(0.0, 1.0)
        assert set(out) == {"s", "c", "g"}
        assert out["g"]["value"] == 7.0

    def test_export_without_window_skips_gauges(self, registry):
        registry.series("s").record(0.0, 5.0)
        registry.gauge("g", lambda t0, t1: 7.0)
        assert set(registry.export()) == {"s"}

    def test_export_skips_failing_and_nan_gauges(self, registry):
        def boom(t0, t1):
            raise RuntimeError("no data")

        registry.gauge("boom", boom)
        registry.gauge("nan", lambda t0, t1: float("nan"))
        registry.gauge("ok", lambda t0, t1: 1.0)
        assert set(registry.export(0.0, 1.0)) == {"ok"}

    def test_export_respects_prefix(self, registry):
        registry.series("gpu/u").record(0.0, 1.0)
        registry.series("cpu/u").record(0.0, 1.0)
        assert set(registry.export(prefix="gpu/")) == {"gpu/u"}


class TestCollectorIntegration:
    def test_collector_publishes_into_registry(self):
        from repro.core import ComposableSystem
        from repro.telemetry import MetricsCollector

        system = ComposableSystem()
        registry = MetricsRegistry()
        collector = MetricsCollector(system.env, registry=registry)
        collector.watch_gpu(system.host.gpus[0])
        collector.watch_host(system.host)
        names = registry.names()
        gpu = system.host.gpus[0].name
        assert f"gpu/{gpu}/util" in names
        assert f"gpu/{gpu}/mem" in names
        assert "host/host0/mem" in names

    def test_falcon_register_metrics(self):
        from repro.core import ComposableSystem

        system = ComposableSystem()
        registry = MetricsRegistry()
        system.falcon.register_metrics(registry)
        names = registry.names("fabric/falcon0/")
        assert any("/H1/" in n for n in names)
        assert any("ingress" in n for n in names)
        # gauges evaluate cleanly over an arbitrary window
        for name in names:
            value = registry.value(name, 0.0, 1.0)
            assert value == value or math.isnan(value)


class TestMidRunReadings:
    def test_a_reading_at_now_counts_the_bytes_delivered_so_far(self):
        # No event falls between the flow's start and the probe, so the
        # counters hold no breakpoint for the bytes streamed meanwhile:
        # every reader must extrapolate along the live rate.
        env = Environment()
        topo = Topology(env)
        topo.add_node("sw", kind="sw", transit=True)
        for n in ("a", "b"):
            topo.add_node(n, kind="gpu")
            topo.add_link(PCIE_GEN4_X16, "sw", n)
        registry = MetricsRegistry()
        (link,) = topo.links_of("a")
        link.register_metrics(registry, "fabric/a")
        readings = {}

        def probe():
            yield env.timeout(0.3)
            now = env.now
            (flow,) = topo.scheduler.active_flows
            summary = registry.summary("fabric/a/a->sw", 0.0, now)
            readings.update(
                delivered=flow.nbytes - flow.remaining_at(now),
                counter=link.counters[("a", "sw")].total_between(0.0, now),
                total=summary["total"], window=summary["window_total"])

        def transfer():
            yield topo.transfer("a", "b", 10 * GB)

        env.process(probe())
        env.process(transfer())
        env.run()
        delivered = readings.pop("delivered")
        assert 0 < delivered < 10 * GB
        for reader, value in readings.items():
            assert value == pytest.approx(delivered, rel=1e-12), reader
