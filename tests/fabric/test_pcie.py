"""Unit tests for repro.fabric.pcie."""

import pytest

from repro.fabric import PCIE_GEN4_X16, PCIeSwitch, RootComplex, Topology
from repro.sim import Environment


@pytest.fixture()
def topo():
    return Topology(Environment())


class TestRootComplex:
    def test_attach_detach(self, topo):
        rc = RootComplex(topo, "rc")
        topo.add_node("dev")
        rc.attach("dev")
        assert topo.neighbors("dev") == ["rc"]
        rc.detach("dev")
        assert topo.neighbors("dev") == []

    def test_double_attach_rejected(self, topo):
        rc = RootComplex(topo, "rc")
        topo.add_node("dev")
        rc.attach("dev")
        with pytest.raises(ValueError):
            rc.attach("dev")

    def test_detach_unknown_rejected(self, topo):
        rc = RootComplex(topo, "rc")
        with pytest.raises(ValueError):
            rc.detach("ghost")

    def test_is_transit_node(self, topo):
        RootComplex(topo, "rc")
        assert topo.node("rc").transit


class TestPCIeSwitch:
    def test_port_accounting(self, topo):
        sw = PCIeSwitch(topo, "sw", ports=2)
        topo.add_node("d0")
        topo.add_node("d1")
        sw.attach("d0")
        assert sw.free_ports == 1
        sw.attach("d1")
        assert sw.free_ports == 0
        topo.add_node("d2")
        with pytest.raises(ValueError):
            sw.attach("d2")

    def test_detach_frees_port(self, topo):
        sw = PCIeSwitch(topo, "sw", ports=1)
        topo.add_node("d0")
        sw.attach("d0")
        sw.detach("d0")
        assert sw.free_ports == 1

    def test_upstream_not_counted_as_port(self, topo):
        sw = PCIeSwitch(topo, "sw", ports=1)
        rc = RootComplex(topo, "rc")
        sw.connect_upstream("rc", PCIE_GEN4_X16)
        assert sw.free_ports == 1
        assert sw.upstream == ["rc"]

    def test_disconnect_upstream(self, topo):
        sw = PCIeSwitch(topo, "sw")
        RootComplex(topo, "rc")
        sw.connect_upstream("rc", PCIE_GEN4_X16)
        sw.disconnect_upstream("rc")
        assert sw.upstream == []

    def test_routing_through_switch(self, topo):
        sw = PCIeSwitch(topo, "sw")
        topo.add_node("d0")
        topo.add_node("d1")
        sw.attach("d0")
        sw.attach("d1")
        route = topo.route("d0", "d1")
        assert route.nodes == ("d0", "sw", "d1")

    def test_zero_ports_rejected(self, topo):
        with pytest.raises(ValueError):
            PCIeSwitch(topo, "sw", ports=0)
