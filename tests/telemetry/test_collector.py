"""Unit tests for the metrics collector."""

import numpy as np
import pytest

from repro.devices import CPU, GPU
from repro.fabric import GIB, Topology
from repro.sim import Environment
from repro.telemetry import MetricsCollector

TFLOPS = 1e12


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def topo(env):
    return Topology(env)


def test_invalid_interval(env):
    with pytest.raises(ValueError):
        MetricsCollector(env, sample_interval=0.0)


def test_gpu_utilization_sampling(env, topo):
    gpu = GPU(env, topo, "g0")
    collector = MetricsCollector(env, sample_interval=0.5)
    collector.watch_gpu(gpu)
    collector.start()

    def work():
        # Busy for 5s out of 10.
        yield gpu.compute(15.7 * TFLOPS * 5, 0, efficiency=1.0)
        yield env.timeout(5.0)
        collector.stop()

    env.process(work())
    env.run(until=10.0)
    collector.stop()
    util = collector.mean_gpu_utilization(0.0, 10.0)
    assert util == pytest.approx(50.0, abs=8.0)


def test_utilization_consistent_with_long_kernels(env, topo):
    """A kernel much longer than the sampling interval must not be
    under-counted (the in-flight-kernel estimator bug)."""
    gpu = GPU(env, topo, "g0")
    collector = MetricsCollector(env, sample_interval=0.1)
    collector.watch_gpu(gpu)
    collector.start()

    def work():
        for _ in range(4):
            yield gpu.compute(15.7 * TFLOPS, 0, efficiency=1.0)  # 1 s each
        collector.stop()

    done = env.process(work())
    env.run(until=done)
    util = collector.mean_gpu_utilization(0.0, 4.0)
    assert util == pytest.approx(100.0, abs=2.0)


def test_gpu_memory_sampling(env, topo):
    gpu = GPU(env, topo, "g0")
    collector = MetricsCollector(env, sample_interval=0.5)
    collector.watch_gpu(gpu)
    collector.start()

    def work():
        yield gpu.alloc(8 * GIB)
        yield env.timeout(5.0)
        collector.stop()

    env.process(work())
    env.run()
    mem = collector.mean_gpu_memory(0.0, 5.0)
    assert mem == pytest.approx(50.0, abs=5.0)


def test_cpu_utilization_sampling(env, topo):
    cpu = CPU(env, "c0")
    collector = MetricsCollector(env, sample_interval=0.5)
    collector.watch_cpu(cpu)
    collector.start()

    def work():
        yield cpu.run(40.0, parallelism=40)  # all cores for 1 s
        yield env.timeout(1.0)
        collector.stop()

    env.process(work())
    env.run()
    util = collector.mean_cpu_utilization(0.0, 2.0)
    assert util == pytest.approx(50.0, abs=8.0)


def test_watch_idempotent(env, topo):
    gpu = GPU(env, topo, "g0")
    collector = MetricsCollector(env)
    collector.watch_gpu(gpu)
    collector.watch_gpu(gpu)
    assert len(collector.gpu_util) == 1


def test_start_idempotent(env, topo):
    collector = MetricsCollector(env, sample_interval=1.0)
    gpu = GPU(env, topo, "g0")
    collector.watch_gpu(gpu)
    collector.start()
    collector.start()
    env.run(until=3.5)
    collector.stop()
    # One sampler, not two: 3 samples for gauges.
    assert len(collector.gpu_mem["g0"]) == 3


def test_empty_collector_means_are_nan(env):
    import math
    collector = MetricsCollector(env)
    assert math.isnan(collector.mean_gpu_utilization())
    assert math.isnan(collector.mean_host_memory())


class TestLifecycle:
    """stop/start idempotence and the stopped-collector contract."""

    def test_stop_is_idempotent(self, env, topo):
        c = MetricsCollector(env)
        c.start()
        env.run(until=1.0)
        c.stop()
        c.stop()  # second stop must be a no-op, not a crash

    def test_stop_without_start_is_safe(self, env):
        c = MetricsCollector(env)
        c.stop()  # _start_time is None; _finalize must not blow up
        assert np.isnan(c.mean_gpu_utilization())

    def test_restart_after_stop_raises_clear_error(self, env):
        c = MetricsCollector(env)
        c.start()
        c.stop()
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            c.start()

    def test_start_while_running_is_idempotent(self, env):
        c = MetricsCollector(env)
        c.start()
        c.start()  # re-entrant start while running: no second loop
        env.run(until=0.5)
        c.stop()


def test_finalize_records_the_devices_own_fractions():
    """Every busy-derived sample is the device's own window reading at
    ``==``, windows past a counter's last breakpoint included."""
    from repro.core import ComposableSystem

    system = ComposableSystem()
    collector = MetricsCollector(system.env, sample_interval=0.05)
    system.train("resnet50", "falconGPUs", "ddp", sim_steps=4,
                 collector=collector)
    readers = []
    for gpu in collector._gpus:
        readers.append((collector.gpu_util[gpu.name], gpu.busy_fraction,
                        gpu.busy))
        readers.append((collector.gpu_mem_access[gpu.name],
                        gpu.mem_access_fraction, gpu.mem_busy))
    for cpu in collector._cpus:
        readers.append((collector.cpu_util[cpu.name], cpu.utilization,
                        cpu.busy))
    windows = past = 0
    for series, fraction, counter in readers:
        times, values = series._times, series._values
        last_breakpoint = counter.breakpoints()[0][-1]
        # The final sample is the closing point, not a window.
        for i in range(len(times) - 1):
            t0, t1 = times[i], times[i + 1]
            assert values[i] == 100.0 * fraction(t0, t1), (series.name, i)
            windows += 1
            past += t0 >= last_breakpoint
    assert windows > 500 and past > 0
