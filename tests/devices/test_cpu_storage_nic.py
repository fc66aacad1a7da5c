"""Unit tests for the CPU and StorageDevice models."""

import pytest

from repro.devices import (
    CPU,
    LOCAL_SCRATCH,
    SSDPEDKX040T7,
    StorageDevice,
    XEON_GOLD_6148_DUAL,
)
from repro.fabric import GB, PCIE_GEN4_X16, Topology
from repro.sim import Environment


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def topo(env):
    return Topology(env)


class TestCPU:
    def test_spec(self):
        assert XEON_GOLD_6148_DUAL.cores == 40

    def test_serial_work(self, env):
        cpu = CPU(env, "cpu")

        def work():
            yield cpu.run(10.0, parallelism=1)

        env.process(work())
        env.run()
        assert env.now == pytest.approx(10.0)
        assert cpu.busy.total == pytest.approx(10.0)

    def test_parallel_speedup(self, env):
        cpu = CPU(env, "cpu")

        def work():
            yield cpu.run(40.0, parallelism=8)

        env.process(work())
        env.run()
        assert env.now == pytest.approx(5.0)

    def test_parallelism_capped_at_cores(self, env):
        cpu = CPU(env, "cpu")

        def work():
            yield cpu.run(80.0, parallelism=1000)

        env.process(work())
        env.run()
        assert env.now == pytest.approx(80.0 / 40)

    def test_core_contention(self, env):
        cpu = CPU(env, "cpu")
        finish = []

        def work():
            yield cpu.run(40.0, parallelism=40)
            finish.append(env.now)

        env.process(work())
        env.process(work())
        env.run()
        # Each job takes 1s with all 40 cores; they serialize.
        assert finish == pytest.approx([1.0, 2.0])

    def test_utilization(self, env):
        cpu = CPU(env, "cpu")

        def work():
            yield cpu.run(40.0, parallelism=40)

        env.process(work())
        env.run(until=2.0)
        assert cpu.utilization(0.0, 2.0) == pytest.approx(0.5)
        assert cpu.utilization(1.0, 1.0) == 0.0

    def test_validation(self, env):
        cpu = CPU(env, "cpu")
        with pytest.raises(ValueError):
            cpu.run(-1.0)
        with pytest.raises(ValueError):
            cpu.run(1.0, parallelism=0)


class TestStorage:
    def make_host_side(self, topo):
        topo.add_node("rc", kind="rc", transit=True)
        topo.add_node("dram", kind="dram")
        topo.add_link(PCIE_GEN4_X16, "rc", "dram")
        return "rc", "dram"

    def test_specs(self):
        assert SSDPEDKX040T7.read_bandwidth == pytest.approx(3.29 * GB)
        assert LOCAL_SCRATCH.read_bandwidth < SSDPEDKX040T7.read_bandwidth

    def test_read_bottlenecked_by_media(self, env, topo):
        rc, dram = self.make_host_side(topo)
        drive = StorageDevice(env, topo, "nvme", SSDPEDKX040T7)
        topo.add_link(PCIE_GEN4_X16, rc, "nvme")

        def go():
            yield drive.read_to(dram, 3.29 * GB)

        env.process(go())
        env.run()
        # Media at 3.29 GB/s is the bottleneck -> ~1 s.
        assert env.now == pytest.approx(1.0, rel=0.01)
        assert drive.bytes_read.total == pytest.approx(3.29 * GB)

    def test_write_slower_than_read(self, env, topo):
        rc, dram = self.make_host_side(topo)
        drive = StorageDevice(env, topo, "nvme", SSDPEDKX040T7)
        topo.add_link(PCIE_GEN4_X16, rc, "nvme")
        times = {}

        def read():
            yield drive.read_to(dram, 1 * GB)
            times["read"] = env.now

        env.process(read())
        env.run()
        t_read = times["read"]

        def write():
            yield drive.write_from(dram, 1 * GB)
            times["write"] = env.now - t_read

        env.process(write())
        env.run()
        assert times["write"] > t_read
        assert drive.bytes_written.total == pytest.approx(1 * GB)

    def test_negative_read_rejected(self, env, topo):
        drive = StorageDevice(env, topo, "nvme")
        with pytest.raises(ValueError):
            drive.read_to("anywhere", -1.0)

    def test_queue_depth_limits_concurrency(self, env, topo):
        rc, dram = self.make_host_side(topo)
        spec = LOCAL_SCRATCH
        drive = StorageDevice(env, topo, "disk", spec)
        topo.add_link(PCIE_GEN4_X16, rc, "disk")
        finish = []

        def go():
            yield drive.read_to(dram, 0.52 * GB)  # 1 s at media rate
            finish.append(env.now)

        # 2x queue depth jobs: fair sharing among queued commands, but
        # total time is work-conserving: 16 jobs x 1 s = 16 s.
        for _ in range(16):
            env.process(go())
        env.run()
        assert max(finish) == pytest.approx(16.0, rel=0.05)
