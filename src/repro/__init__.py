"""repro — Performance analysis of DL workloads on a composable system.

A full-system simulation reproduction of El Maghraoui et al. (IPPS 2021):
a Falcon 4016 PCIe-composable chassis, NVLink-meshed V100 hosts, and a
data-parallel DL training engine, with the paper's five benchmarks and
experiment harness.

Quickstart::

    from repro import ComposableSystem

    system = ComposableSystem()
    result = system.train("resnet50", configuration="falconGPUs")
    print(result.summary())

    # The same cell as an un-run job: compiled plans, nothing simulated.
    job = ComposableSystem().job("resnet50", "falconGPUs", "ddp")
    print(len(job.step_plan), "ops")
"""

from .core import (
    ActiveConfiguration,
    COMM_REQUIREMENTS,
    CONFIGURATION_DESCRIPTIONS,
    CONFIGURATION_ORDER,
    ComposableCluster,
    ComposableSystem,
    JobSpec,
    SOFTWARE_STACK,
)
from .training import (
    AMP_POLICY,
    DataParallel,
    DistributedDataParallel,
    FP32_POLICY,
    ShardedDataParallel,
    TrainingConfig,
    TrainingResult,
)
from .workloads import BENCHMARKS, benchmark_names, get_benchmark

__version__ = "1.0.0"

__all__ = [
    "ComposableSystem",
    "ComposableCluster",
    "JobSpec",
    "ActiveConfiguration",
    "SOFTWARE_STACK",
    "CONFIGURATION_DESCRIPTIONS",
    "CONFIGURATION_ORDER",
    "COMM_REQUIREMENTS",
    "TrainingConfig",
    "TrainingResult",
    "DataParallel",
    "DistributedDataParallel",
    "ShardedDataParallel",
    "AMP_POLICY",
    "FP32_POLICY",
    "BENCHMARKS",
    "get_benchmark",
    "benchmark_names",
    "__version__",
]
