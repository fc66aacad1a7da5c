"""Unit tests for repro.fabric.topology routing and transfers."""

import pytest

from repro.fabric import (
    GB,
    NVLINK2_X1,
    NoRouteError,
    PCIE_GEN4_X16,
    Topology,
)
from repro.sim import Environment


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def topo(env):
    return Topology(env)


def test_add_nodes_and_links(topo):
    topo.add_node("rc", kind="rc", transit=True)
    topo.add_node("gpu0", kind="gpu")
    link = topo.add_link(PCIE_GEN4_X16, "rc", "gpu0")
    assert topo.has_node("rc")
    assert topo.neighbors("gpu0") == ["rc"]
    assert link in topo.links_of("rc")


def test_duplicate_node_rejected(topo):
    topo.add_node("x")
    with pytest.raises(ValueError):
        topo.add_node("x")


def test_link_to_unknown_node_rejected(topo):
    topo.add_node("a")
    with pytest.raises(KeyError):
        topo.add_link(PCIE_GEN4_X16, "a", "missing")


def test_route_direct(topo):
    topo.add_node("a", kind="gpu")
    topo.add_node("b", kind="gpu")
    topo.add_link(NVLINK2_X1, "a", "b")
    route = topo.route("a", "b")
    assert route.hops == 1
    assert route.nodes == ("a", "b")
    assert route.bandwidth == NVLINK2_X1.bandwidth


def test_route_through_transit_only(topo):
    # a - gpu_mid - b (gpu_mid not transit) vs a - sw - b (transit)
    topo.add_node("a", kind="gpu")
    topo.add_node("b", kind="gpu")
    topo.add_node("gpu_mid", kind="gpu")        # not transit
    topo.add_node("sw", kind="pcie-switch", transit=True)
    topo.add_link(NVLINK2_X1, "a", "gpu_mid")
    topo.add_link(NVLINK2_X1, "gpu_mid", "b")
    topo.add_link(PCIE_GEN4_X16, "a", "sw")
    topo.add_link(PCIE_GEN4_X16, "sw", "b")
    route = topo.route("a", "b")
    assert "gpu_mid" not in route.nodes
    assert "sw" in route.nodes


def test_route_self_is_empty(topo):
    topo.add_node("a")
    route = topo.route("a", "a")
    assert route.hops == 0
    assert route.latency == 0.0
    assert route.bandwidth == float("inf")


def test_no_route_raises(topo):
    topo.add_node("a")
    topo.add_node("b")
    with pytest.raises(NoRouteError):
        topo.route("a", "b")


def test_route_prefers_lower_latency(topo):
    topo.add_node("a", kind="gpu")
    topo.add_node("b", kind="gpu")
    topo.add_node("sw", kind="sw", transit=True)
    # Direct NVLink (0.55us) vs 2x PCIe hops (2x0.39us) through switch.
    topo.add_link(NVLINK2_X1, "a", "b")
    topo.add_link(PCIE_GEN4_X16, "a", "sw")
    topo.add_link(PCIE_GEN4_X16, "sw", "b")
    route = topo.route("a", "b")
    assert route.hops == 1
    assert route.segments[0].link.spec is NVLINK2_X1


def test_route_cache_invalidated_on_change(topo):
    topo.add_node("a", kind="gpu")
    topo.add_node("b", kind="gpu")
    nv = topo.add_link(NVLINK2_X1, "a", "b")
    topo.add_node("sw", kind="sw", transit=True)
    topo.add_link(PCIE_GEN4_X16, "a", "sw")
    topo.add_link(PCIE_GEN4_X16, "sw", "b")
    assert topo.route("a", "b").hops == 1
    topo.remove_link(nv)
    assert topo.route("a", "b").hops == 2


def test_remove_foreign_link_rejected(topo):
    topo.add_node("a")
    topo.add_node("b")
    link = topo.add_link(PCIE_GEN4_X16, "a", "b")
    topo.remove_link(link)
    with pytest.raises(ValueError):
        topo.remove_link(link)


def test_transfer_time_includes_latency_and_streaming(env, topo):
    topo.add_node("a", kind="gpu")
    topo.add_node("b", kind="gpu")
    topo.add_link(NVLINK2_X1, "a", "b")
    done = {}

    def go():
        yield topo.transfer("a", "b", 24.1 * GB)
        done["t"] = env.now

    env.process(go())
    env.run()
    expected = topo.transfer_overhead + NVLINK2_X1.latency + 1.0
    assert done["t"] == pytest.approx(expected, rel=1e-6)


def test_transfer_accounts_traffic(env, topo):
    topo.add_node("a", kind="gpu")
    topo.add_node("b", kind="gpu")
    link = topo.add_link(NVLINK2_X1, "a", "b")

    def go():
        yield topo.transfer("a", "b", 5 * GB)

    env.process(go())
    env.run()
    assert link.bytes_moved("a", "b") == pytest.approx(5 * GB, rel=1e-6)


def test_concurrent_transfers_share_bandwidth(env, topo):
    topo.add_node("a", kind="gpu")
    topo.add_node("b", kind="gpu")
    topo.add_link(NVLINK2_X1, "a", "b")
    finished = []

    def go():
        yield topo.transfer("a", "b", 24.1 * GB)
        finished.append(env.now)

    env.process(go())
    env.process(go())
    env.run()
    # Two equal flows share the link: ~2s streaming.
    assert finished[0] == pytest.approx(2.0, rel=1e-3)


def test_path_latency_and_bandwidth(topo):
    topo.add_node("a", kind="gpu")
    topo.add_node("sw", kind="sw", transit=True)
    topo.add_node("b", kind="gpu")
    topo.add_link(PCIE_GEN4_X16, "a", "sw")
    topo.add_link(PCIE_GEN4_X16, "sw", "b")
    lat = topo.path_latency("a", "b")
    assert lat == pytest.approx(
        topo.transfer_overhead + 2 * PCIE_GEN4_X16.latency)
    assert topo.path_bandwidth("a", "b") == PCIE_GEN4_X16.bandwidth
