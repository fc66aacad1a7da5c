"""Unit and integration tests for the HostServer model."""

import pytest

from repro.devices import (
    HostServer,
    HostSpec,
    SSDPEDKX040T7,
    SUPERMICRO_4029GP_TVRT,
)
from repro.fabric import GB, GIB, Topology
from repro.sim import Environment


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def topo(env):
    return Topology(env)


@pytest.fixture()
def host(env, topo):
    return HostServer(env, topo, "host0")


class TestConstruction:
    def test_default_bill_of_materials(self, host):
        assert len(host.gpus) == 8
        assert len(host.nics) == 2
        assert len(host.plx_switches) == 4
        assert host.spec.memory_bytes == 756 * GIB
        assert host.cpu.spec.cores == 40

    def test_nodes_registered(self, host, topo):
        assert topo.has_node("host0/rc")
        assert topo.has_node("host0/dram")
        assert topo.has_node("host0/gpu0")
        assert topo.has_node("host0/scratch")

    def test_gpu_names(self, host):
        assert [g.name for g in host.gpus] == [
            f"host0/gpu{i}" for i in range(8)]
        assert host.gpus[3].name == "host0/gpu3"


class TestRouting:
    def test_nvlink_between_adjacent_gpus(self, host, topo):
        # GPUs 0 and 1 are NVLink-adjacent in the cube mesh.
        route = topo.route("host0/gpu0", "host0/gpu1")
        assert route.hops == 1
        assert route.segments[0].link.spec.protocol.name == "NVLINK2"

    def test_pcie_fallback_for_non_adjacent_gpus(self, host, topo):
        # GPUs 0 and 7 are not NVLink-adjacent: route goes via PCIe tree.
        route = topo.route("host0/gpu0", "host0/gpu7")
        assert route.hops > 1
        assert all(seg.link.spec.protocol.name != "NVLINK2"
                   for seg in route.segments)

    def test_h2d_path_via_dram(self, host, topo):
        route = topo.route("host0/dram", "host0/gpu0")
        assert route.nodes[0] == "host0/dram"
        assert "host0/rc" in route.nodes
        assert "host0/plx0" in route.nodes

    def test_gpus_share_plx_uplink(self, host, topo):
        # GPUs 0 and 1 hang off plx0; 2 and 3 off plx1.
        r01 = topo.route("host0/gpu0", "host0/gpu1")
        r_h2d_0 = topo.route("host0/dram", "host0/gpu0")
        r_h2d_2 = topo.route("host0/dram", "host0/gpu2")
        assert "host0/plx0" in r_h2d_0.nodes
        assert "host0/plx1" in r_h2d_2.nodes


class TestMemory:
    def test_alloc_and_utilization(self, env, host):
        def work():
            yield host.alloc_memory(378 * GIB)

        env.run(until=env.process(work()))
        assert host.memory_utilization == pytest.approx(0.5)

    def test_scratch_read_reaches_dram(self, env, host):
        done = {}

        def go():
            yield host.scratch.read_to(host.dram_node, 0.52 * GB)
            done["t"] = env.now

        env.process(go())
        env.run()
        # SATA scratch at 0.52 GB/s media rate.
        assert done["t"] == pytest.approx(1.0, rel=0.05)


class TestNVMe:
    def test_attach_and_read(self, env, host):
        drive = host.attach_nvme(SSDPEDKX040T7)
        assert host.nvme is drive

        def go():
            yield drive.read_to(host.dram_node, 3.29 * GB)

        env.process(go())
        env.run()
        assert env.now == pytest.approx(1.0, rel=0.02)

    def test_double_attach_rejected(self, host):
        host.attach_nvme()
        with pytest.raises(ValueError):
            host.attach_nvme()

    def test_nvme_faster_than_scratch(self, env, host):
        drive = host.attach_nvme()
        times = {}

        def nvme_read():
            yield drive.read_to(host.dram_node, 1 * GB)
            times["nvme"] = env.now

        env.process(nvme_read())
        env.run()
        start = env.now

        def scratch_read():
            yield host.scratch.read_to(host.dram_node, 1 * GB)
            times["scratch"] = env.now - start

        env.process(scratch_read())
        env.run()
        assert times["nvme"] < times["scratch"]


def test_custom_spec_fewer_gpus(env, topo):
    spec = HostSpec(name="small", local_gpus=4, nics=1)
    host = HostServer(env, topo, "small", spec)
    assert len(host.gpus) == 4
    assert len(host.plx_switches) == 2
    # No NVLink mesh with 4 GPUs: routes go over PCIe.
    route = topo.route("small/gpu0", "small/gpu1")
    assert all(s.link.spec.protocol.name != "NVLINK2"
               for s in route.segments)
