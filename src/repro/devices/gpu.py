"""GPU device model.

An analytic V100-class GPU: kernels take
``max(flops / sustained_flops, bytes_touched / memory_bandwidth)`` seconds
(the roofline model), the kernel stream is serialized per GPU as in a
single CUDA stream, and busy time / memory-access time / memory occupancy
are accounted so the telemetry layer can reproduce the paper's GPU
utilization, GPU memory utilization, and "% time accessing GPU memory"
metrics (Figs. 9 and 10).

Specs for the paper's devices (Tesla V100 SXM2/PCIe 16 GB, Tesla P100) are
provided as constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from ..sim import Container, CounterMonitor, Environment, Resource
from ..fabric.link import GB, GIB
from ..fabric.topology import Topology

__all__ = ["GPU", "GPUSpec", "Precision", "V100_SXM2_16GB", "V100_PCIE_16GB",
           "P100_PCIE_16GB"]

#: One teraFLOP/s.
TFLOPS = 1e12


class Precision(str, Enum):
    """Numeric precision of a kernel or training run."""

    FP32 = "fp32"
    FP16 = "fp16"      # tensor-core mixed precision

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GPUSpec:
    """Static characteristics of a GPU model.

    ``fp32_flops``/``fp16_flops`` are *peak* rates; sustained throughput is
    peak times the per-kernel ``efficiency`` passed to :meth:`GPU.compute`
    (conv nets and transformers achieve different fractions of peak).
    """

    name: str
    architecture: str
    memory_bytes: float
    memory_bandwidth: float       # bytes/s (HBM2)
    fp32_flops: float             # peak FLOP/s
    fp16_flops: float             # peak FLOP/s on tensor cores
    sm_count: int
    nvlink_ports: int             # 0 for PCIe-only cards
    max_power_w: float = 300.0

    def peak_flops(self, precision: Precision) -> float:
        if precision is Precision.FP16:
            return self.fp16_flops
        return self.fp32_flops


V100_SXM2_16GB = GPUSpec(
    name="Tesla V100-SXM2-16GB",
    architecture="Volta",
    memory_bytes=16 * GIB,
    memory_bandwidth=900 * GB,
    fp32_flops=15.7 * TFLOPS,
    fp16_flops=125.0 * TFLOPS,
    sm_count=80,
    nvlink_ports=6,
    max_power_w=300.0,
)

#: The Falcon-installed V100 PCIe cards.  Nominally the PCIe bin clocks
#: ~10% below SXM2, but the paper's vision results (<5% total overhead on
#: compute-bound ResNet) imply GPU-compute parity between the local and
#: Falcon pools — the study isolates the *interconnect*, so we model the
#: cards at SXM2-equivalent sustained rates and attribute all
#: configuration differences to the fabric.
V100_PCIE_16GB = GPUSpec(
    name="Tesla V100-PCIE-16GB",
    architecture="Volta",
    memory_bytes=16 * GIB,
    memory_bandwidth=900 * GB,
    fp32_flops=15.7 * TFLOPS,
    fp16_flops=125.0 * TFLOPS,
    sm_count=80,
    nvlink_ports=0,
    max_power_w=250.0,
)

P100_PCIE_16GB = GPUSpec(
    name="Tesla P100-PCIE-16GB",
    architecture="Pascal",
    memory_bytes=16 * GIB,
    memory_bandwidth=732 * GB,
    fp32_flops=9.3 * TFLOPS,
    fp16_flops=18.7 * TFLOPS,  # no tensor cores: 2x fp32 packed math
    sm_count=56,
    nvlink_ports=0,
    max_power_w=250.0,
)


_gpu_uids = itertools.count()


class GPU:
    """A simulated GPU registered as a topology node.

    Parameters
    ----------
    env, topology:
        Simulation environment and the fabric the GPU lives on.
    name:
        Unique node name, e.g. ``"host0/gpu3"`` or ``"falcon0/gpu1"``.
    spec:
        Hardware characteristics.
    """

    def __init__(self, env: Environment, topology: Topology, name: str,
                 spec: GPUSpec = V100_SXM2_16GB):
        self.env = env
        self.topology = topology
        self.name = name
        self.spec = spec
        self.uid = next(_gpu_uids)
        topology.add_node(name, kind="gpu", transit=False)
        #: Free-memory accounting (bytes allocated via alloc/free).
        self.memory = Container(env, capacity=spec.memory_bytes)
        #: Serialized kernel stream.
        self.stream = Resource(env, capacity=1)
        #: Accumulated busy seconds (kernel execution time).
        self.busy = CounterMonitor(f"{name}:busy", unit="s")
        #: Accumulated seconds spent limited by HBM2 bandwidth.
        self.mem_busy = CounterMonitor(f"{name}:mem_busy", unit="s")
        #: Completed kernel count.
        self.kernels_launched = 0

    # -- memory ------------------------------------------------------------

    @property
    def memory_utilization(self) -> float:
        """Fraction of device memory currently allocated."""
        return self.memory.level / self.spec.memory_bytes

    def alloc(self, nbytes: float):
        """Reserve device memory (blocks if exhausted); yields an event."""
        if nbytes > self.spec.memory_bytes:
            raise MemoryError(
                f"{self.name}: allocation of {nbytes / GIB:.2f} GiB exceeds "
                f"device capacity {self.spec.memory_bytes / GIB:.2f} GiB")
        return self.memory.put(nbytes)

    def free(self, nbytes: float):
        """Release device memory; yields an event."""
        return self.memory.get(nbytes)

    # -- compute -------------------------------------------------------------
    def kernel_time(self, flops: float, bytes_touched: float = 0.0,
                    precision: Precision = Precision.FP32,
                    efficiency: float = 0.5) -> float:
        """Roofline execution time of one kernel, seconds."""
        if flops < 0 or bytes_touched < 0:
            raise ValueError("flops and bytes_touched must be >= 0")
        if not 0 < efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        compute_time = flops / (self.spec.peak_flops(precision) * efficiency)
        memory_time = bytes_touched / self.spec.memory_bandwidth
        return max(compute_time, memory_time)

    def compute(self, flops: float, bytes_touched: float = 0.0,
                precision: Precision = Precision.FP32,
                efficiency: float = 0.5):
        """Run one kernel on the GPU's stream; returns a process event.

        Busy time and memory-access time are accounted at completion,
        which is accurate for the seconds-scale sampling windows used by
        the telemetry layer (kernels are sub-millisecond to millisecond).
        """
        duration = self.kernel_time(flops, bytes_touched, precision,
                                    efficiency)
        memory_time = min(duration,
                          bytes_touched / self.spec.memory_bandwidth)
        return self.env.process(self._run_kernel(duration, memory_time))

    def _run_kernel(self, duration: float, memory_time: float):
        with self.stream.request() as req:
            yield req
            # Anchor a zero increment at kernel start so windowed queries
            # see the busy time spread linearly across the kernel's span
            # (a telemetry sample mid-kernel reads partial occupancy, as a
            # real sampling profiler would).
            self.busy.add(self.env.now, 0.0)
            self.mem_busy.add(self.env.now, 0.0)
            yield self.env.timeout(duration)
            now = self.env.now
            self.busy.add(now, duration)
            self.mem_busy.add(now, memory_time)
            self.kernels_launched += 1
        return duration

    def busy_fraction(self, t0: float, t1: float) -> float:
        """Mean utilization (busy seconds per second) over [t0, t1]."""
        if t1 <= t0:
            return 0.0
        return min(1.0, self.busy.total_between(t0, t1) / (t1 - t0))

    def mem_access_fraction(self, t0: float, t1: float) -> float:
        """Mean fraction of time spent memory-bound over [t0, t1]."""
        if t1 <= t0:
            return 0.0
        return min(1.0, self.mem_busy.total_between(t0, t1) / (t1 - t0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GPU {self.name} ({self.spec.name})>"
