"""Unit tests for the GPU device model."""

import pytest

from repro.devices import GPU, Precision, V100_SXM2_16GB, V100_PCIE_16GB
from repro.fabric import GIB, Topology
from repro.sim import Environment

TFLOPS = 1e12


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def topo(env):
    return Topology(env)


@pytest.fixture()
def gpu(env, topo):
    return GPU(env, topo, "gpu0", V100_SXM2_16GB)


class TestSpec:
    def test_v100_characteristics(self):
        assert V100_SXM2_16GB.memory_bytes == 16 * GIB
        assert V100_SXM2_16GB.fp16_flops == pytest.approx(125 * TFLOPS)
        assert V100_SXM2_16GB.nvlink_ports == 6
        assert V100_PCIE_16GB.nvlink_ports == 0

    def test_peak_flops_by_precision(self):
        assert V100_SXM2_16GB.peak_flops(Precision.FP16) > \
            V100_SXM2_16GB.peak_flops(Precision.FP32)


class TestKernelTime:
    def test_compute_bound(self, gpu):
        # 15.7 TFLOP at 100% efficiency of 15.7 TFLOP/s -> 1 s.
        t = gpu.kernel_time(15.7 * TFLOPS, 0.0, Precision.FP32,
                            efficiency=1.0)
        assert t == pytest.approx(1.0)

    def test_memory_bound(self, gpu):
        # 900 GB touched at 900 GB/s -> 1 s regardless of tiny FLOPs.
        t = gpu.kernel_time(1.0, 900e9, Precision.FP32, efficiency=1.0)
        assert t == pytest.approx(1.0)

    def test_fp16_faster(self, gpu):
        t32 = gpu.kernel_time(1 * TFLOPS, 0, Precision.FP32)
        t16 = gpu.kernel_time(1 * TFLOPS, 0, Precision.FP16)
        assert t16 < t32

    def test_efficiency_scales(self, gpu):
        t_full = gpu.kernel_time(1 * TFLOPS, 0, efficiency=1.0)
        t_half = gpu.kernel_time(1 * TFLOPS, 0, efficiency=0.5)
        assert t_half == pytest.approx(2 * t_full)

    def test_validation(self, gpu):
        with pytest.raises(ValueError):
            gpu.kernel_time(-1.0)
        with pytest.raises(ValueError):
            gpu.kernel_time(1.0, efficiency=0.0)
        with pytest.raises(ValueError):
            gpu.kernel_time(1.0, efficiency=1.5)


class TestCompute:
    def test_busy_accounting(self, env, gpu):
        def work():
            yield gpu.compute(15.7 * TFLOPS, 0, Precision.FP32,
                              efficiency=1.0)

        env.process(work())
        env.run()
        assert env.now == pytest.approx(1.0)
        assert gpu.busy.total == pytest.approx(1.0)
        assert gpu.kernels_launched == 1
        assert gpu.busy_fraction(0.0, 1.0) == pytest.approx(1.0)

    def test_kernels_serialize_on_stream(self, env, gpu):
        def work():
            yield gpu.compute(15.7 * TFLOPS, 0, efficiency=1.0)

        env.process(work())
        env.process(work())
        env.run()
        assert env.now == pytest.approx(2.0)

    def test_mem_access_fraction(self, env, gpu):
        def work():
            # Perfectly balanced: compute time == memory time.
            yield gpu.compute(15.7 * TFLOPS, 900e9, efficiency=1.0)

        env.process(work())
        env.run()
        assert gpu.mem_access_fraction(0.0, env.now) == pytest.approx(1.0)

    def test_idle_gpu_zero_utilization(self, env, gpu):
        env.run(until=10.0)
        assert gpu.busy_fraction(0.0, 10.0) == 0.0
        assert gpu.busy_fraction(5.0, 5.0) == 0.0


class TestMemory:
    def test_alloc_free(self, env, gpu):
        def work():
            yield gpu.alloc(4 * GIB)
            assert gpu.memory.level == 4 * GIB
            assert gpu.memory_utilization == pytest.approx(0.25)
            yield gpu.free(4 * GIB)

        env.run(until=env.process(work()))
        assert gpu.memory.level == 0.0

    def test_oversize_allocation_raises(self, gpu):
        with pytest.raises(MemoryError):
            gpu.alloc(17 * GIB)

    def test_alloc_blocks_until_freed(self, env, gpu):
        order = []

        def hog():
            yield gpu.alloc(12 * GIB)
            yield env.timeout(5.0)
            yield gpu.free(12 * GIB)

        def late():
            yield env.timeout(1.0)
            yield gpu.alloc(8 * GIB)
            order.append(env.now)

        env.process(hog())
        env.process(late())
        env.run()
        assert order == [5.0]


def test_gpu_registers_topology_node(env, topo):
    gpu = GPU(env, topo, "gpuX")
    assert topo.has_node("gpuX")
    assert topo.node("gpuX").kind == "gpu"
    assert not topo.node("gpuX").transit
