"""Tests for traffic aggregation helpers (repro.fabric.traffic)."""

import numpy as np
import pytest

from repro.fabric import (
    GB,
    PCIE_GEN4_X16,
    Topology,
    node_rate_series,
    node_traffic,
)
from repro.fabric.traffic import total_bytes_moved
from repro.sim import Environment
from repro.telemetry.registry import MetricsRegistry


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def topo(env):
    t = Topology(env)
    t.add_node("sw", kind="sw", transit=True)
    for n in ("a", "b", "c"):
        t.add_node(n, kind="gpu")
        t.add_link(PCIE_GEN4_X16, "sw", n)
    return t


def run_transfer(env, topo, src, dst, nbytes):
    def go():
        yield topo.transfer(src, dst, nbytes)

    env.process(go())
    env.run()


class TestNodeTraffic:
    def test_ingress_egress_split(self, env, topo):
        run_transfer(env, topo, "a", "b", 10 * GB)
        t1 = env.now
        stats_a = node_traffic(topo, "a", 0.0, t1)
        stats_b = node_traffic(topo, "b", 0.0, t1)
        assert stats_a.egress_bytes == pytest.approx(10 * GB, rel=1e-6)
        assert stats_a.ingress_bytes == 0.0
        assert stats_b.ingress_bytes == pytest.approx(10 * GB, rel=1e-6)
        assert stats_b.egress_bytes == 0.0

    def test_switch_sees_both_directions(self, env, topo):
        run_transfer(env, topo, "a", "b", 4 * GB)
        t1 = env.now
        sw = node_traffic(topo, "sw", 0.0, t1)
        assert sw.ingress_bytes == pytest.approx(4 * GB, rel=1e-6)
        assert sw.egress_bytes == pytest.approx(4 * GB, rel=1e-6)

    def test_combined_rate_gbps(self, env, topo):
        run_transfer(env, topo, "a", "b", 12.3 * GB)  # ~1 s at line rate
        t1 = env.now
        stats = node_traffic(topo, "a", 0.0, t1)
        assert stats.combined_rate_gbps == pytest.approx(12.3, rel=0.01)

    def test_zero_window(self, env, topo):
        stats = node_traffic(topo, "a", 0.0, 0.0)
        assert stats.ingress_rate == 0.0
        assert stats.egress_rate == 0.0

    def test_uninvolved_node_zero(self, env, topo):
        run_transfer(env, topo, "a", "b", 1 * GB)
        stats = node_traffic(topo, "c", 0.0, env.now)
        assert stats.ingress_bytes == 0.0
        assert stats.egress_bytes == 0.0


class TestRateSeries:
    def test_series_sums_to_total(self, env, topo):
        run_transfer(env, topo, "a", "b", 12.3 * GB)
        t1 = env.now
        starts, ingress, egress = node_rate_series(topo, "b", width=0.1,
                                                   t_end=t1)
        assert starts.size > 5
        total = float(np.sum(ingress) * 0.1)
        assert total == pytest.approx(12.3 * GB, rel=0.02)
        assert float(np.sum(egress)) == 0.0

    def test_empty_before_time_zero(self, env, topo):
        starts, ingress, egress = node_rate_series(topo, "a", width=1.0,
                                                   t_end=0.0)
        assert starts.size == 0


class TestTotals:
    def test_total_bytes_moved(self, env, topo):
        run_transfer(env, topo, "a", "b", 2 * GB)
        # a->sw and sw->b both carry the 2 GB.
        assert total_bytes_moved(topo.links()) == pytest.approx(
            4 * GB, rel=1e-6)


class TestMidRunReadings:
    def test_a_reading_at_now_counts_the_bytes_delivered_so_far(
            self, env, topo):
        # No event falls between the flow's start and the probe, so the
        # counters hold no breakpoint for the bytes streamed meanwhile:
        # every reader must extrapolate along the live rate.
        registry = MetricsRegistry()
        (link,) = topo.links_of("a")
        link.register_metrics(registry, "fabric/a")
        readings = {}

        def probe():
            yield env.timeout(0.3)
            now = env.now
            (flow,) = topo.scheduler.active_flows
            width = now / 4
            _starts, _ingress, egress = node_rate_series(topo, "a", width,
                                                         t_end=now)
            summary = registry.summary("fabric/a/a->sw", 0.0, now)
            readings.update(
                delivered=flow.nbytes - flow.remaining_at(now),
                counter=link.counters[("a", "sw")].total_between(0.0, now),
                series=float(np.sum(egress) * width),
                total=summary["total"], window=summary["window_total"])

        env.process(probe())
        run_transfer(env, topo, "a", "b", 10 * GB)
        delivered = readings.pop("delivered")
        assert 0 < delivered < 10 * GB
        for reader, value in readings.items():
            assert value == pytest.approx(delivered, rel=1e-12), reader
