"""The composable system facade (paper Fig. 6's experimental topology).

:class:`ComposableSystem` assembles the full test bed in one call:

- one Supermicro host with 8 local NVLink-meshed V100s, dual NICs, a
  SATA-class scratch volume, and (on demand) a local NVMe drive;
- one Falcon 4016 with 8 PCIe V100s (four per drawer) and a 4 TB NVMe
  drive in drawer 1, both drawers cabled to the host (ports H1/H2);
- a management plane wired to the chassis event stream.

The five Table III host configurations are exposed via
:meth:`configure`, which returns the GPU set (in NCCL-friendly ring
order) and the storage device a training job should use;
:meth:`job` builds a benchmark's un-run training job on a configuration
and :meth:`train` runs it end to end.

Systems are cheap to construct; experiments build a fresh one per run so
traffic counters and telemetry start clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..devices import (
    GPU,
    HostServer,
    SSDPEDKX040T7,
    StorageDevice,
    SUPERMICRO_4029GP_TVRT,
    V100_PCIE_16GB,
)
from ..fabric import Falcon4016, FalconMode, RING_ORDER, Topology
from ..fabric.link import PCIE_GEN4_X4
from ..management import Inventory, ManagementCenterServer
from ..sim import Environment
from ..telemetry import MetricsCollector
from ..training import (
    STRATEGY_REGISTRY,
    ParallelStrategy,
    PrecisionPolicy,
    TrainingConfig,
    TrainingJob,
    TrainingResult,
)
from ..workloads import Benchmark, get_benchmark
from .presets import CONFIGURATION_DESCRIPTIONS, CONFIGURATION_ORDER

__all__ = ["ComposableSystem", "ActiveConfiguration"]

#: NVLink-connected 4-cycle inside the hybrid cube mesh, used as the
#: local half of the hybridGPUs ring (0-4, 4-6, 6-2, 2-0 are all edges).
_LOCAL_QUAD = (0, 4, 6, 2)


@dataclass(frozen=True)
class ActiveConfiguration:
    """A resolved Table III configuration: devices a job should use."""

    name: str
    description: str
    gpus: tuple[GPU, ...]
    storage: StorageDevice

    @property
    def gpu_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.gpus)


class ComposableSystem:
    """Host + Falcon 4016 test bed with Table III configurations."""

    def __init__(self, env: Optional[Environment] = None,
                 falcon_mode: FalconMode = FalconMode.STANDARD):
        self.env = env or Environment()
        self.topology = Topology(self.env)
        self.mcs = ManagementCenterServer(self.env)
        self.host = HostServer(self.env, self.topology, "host0",
                               SUPERMICRO_4029GP_TVRT)
        self.falcon = Falcon4016(self.topology, "falcon0", mode=falcon_mode,
                                 on_event=self.mcs.record_event)
        self.mcs.register_falcon(self.falcon)
        self.mcs.register_host("host0")

        # Cable both drawers to the host (paper Fig. 6).
        self.falcon.connect_host("H1", "host0", self.host.rc_node, drawer=0)
        self.falcon.connect_host("H2", "host0", self.host.rc_node, drawer=1)

        # Hot-plug inventory over the chassis (fault-recovery spares).
        self.inventory = Inventory(self.mcs, self.falcon)

        # Eight PCIe V100s, four per drawer, allocated to the host.
        self.falcon_gpus: list[GPU] = []
        for i in range(8):
            gpu = GPU(self.env, self.topology, f"falcon0/gpu{i}",
                      V100_PCIE_16GB)
            self.falcon.install_device(gpu.name, drawer=i // 4)
            self.falcon.allocate(gpu.name, "host0")
            self.inventory.register_gpu(gpu)
            self.falcon_gpus.append(gpu)
        self._next_falcon_gpu = 8

        # 4 TB NVMe in drawer 1 ("Drawer 2" in the paper's 1-based text).
        self.falcon_nvme = StorageDevice(self.env, self.topology,
                                         "falcon0/nvme", SSDPEDKX040T7)
        self.falcon.install_device(self.falcon_nvme.name, drawer=1,
                                   spec=PCIE_GEN4_X4)
        self.falcon.allocate(self.falcon_nvme.name, "host0")

        # Local NVMe for the localNVMe configuration.
        self.local_nvme = self.host.attach_nvme(SSDPEDKX040T7)

    # -- spares --------------------------------------------------------------
    def install_spare_gpu(self, drawer: int = 0) -> GPU:
        """Seat an unallocated standby V100 in the chassis.

        The spare is installed and inventory-tracked but owned by no
        host; a fault-tolerant job hot-adds it through the management
        plane when a ring GPU dies.
        """
        gpu = GPU(self.env, self.topology,
                  f"falcon0/gpu{self._next_falcon_gpu}", V100_PCIE_16GB)
        self._next_falcon_gpu += 1
        self.falcon.install_device(gpu.name, drawer=drawer)
        self.inventory.register_gpu(gpu)
        return gpu

    # -- configurations -----------------------------------------------------

    def configure(self, name: str) -> ActiveConfiguration:
        """Resolve a Table III configuration to concrete devices."""
        if name not in CONFIGURATION_DESCRIPTIONS:
            raise KeyError(
                f"unknown configuration {name!r}; available: "
                f"{', '.join(CONFIGURATION_ORDER)}")
        local_ring = [self.host.gpus[i] for i in RING_ORDER]
        if name == "localGPUs":
            gpus, storage = local_ring, self.host.scratch
        elif name == "hybridGPUs":
            local_quad = [self.host.gpus[i] for i in _LOCAL_QUAD]
            gpus = local_quad + self.falcon_gpus[:4]
            storage = self.host.scratch
        elif name == "falconGPUs":
            gpus, storage = list(self.falcon_gpus), self.host.scratch
        elif name == "localNVMe":
            gpus, storage = local_ring, self.local_nvme
        else:  # falconNVMe
            gpus, storage = local_ring, self.falcon_nvme
        return ActiveConfiguration(
            name=name,
            description=CONFIGURATION_DESCRIPTIONS[name],
            gpus=tuple(gpus),
            storage=storage,
        )

    # -- training ------------------------------------------------------------
    def job(self, benchmark: Union[str, Benchmark],
            configuration: str = "localGPUs",
            strategy: Union[str, ParallelStrategy, None] = None,
            policy: Optional[PrecisionPolicy] = None, *,
            collector: Optional[MetricsCollector] = None,
            tracer=None, **config) -> TrainingJob:
        """One benchmark on one configuration, as an un-run job.

        ``benchmark`` is a registry key or a :class:`Benchmark`;
        ``strategy`` is a :data:`STRATEGY_REGISTRY` key or an instance.
        ``config`` entries are :class:`TrainingConfig` fields
        (``sim_steps``, ``global_batch``, ``plan_passes``, ...); the
        strategy, the policy and any field left ``None`` keep the
        TrainingConfig default.  Constructing the job compiles its plans
        without advancing the simulation, so plan and profiling callers
        need never run it.  Passing a :class:`~repro.telemetry.Tracer`
        instruments the job with spans and points the fabric/storage
        layers at it too.
        """
        if isinstance(strategy, str):
            try:
                strategy = STRATEGY_REGISTRY[strategy]()
            except KeyError:
                raise ValueError(
                    f"unknown strategy {strategy!r}; "
                    f"one of {tuple(STRATEGY_REGISTRY)}") from None
        if isinstance(benchmark, str):
            benchmark = get_benchmark(benchmark)
        config.update(strategy=strategy, policy=policy)
        active = self.configure(configuration)
        training = TrainingConfig(
            benchmark=benchmark,
            **{k: v for k, v in config.items() if v is not None})
        if tracer is not None:
            self.topology.tracer = tracer
        return TrainingJob(self.env, self.topology, self.host,
                           list(active.gpus), active.storage, training,
                           collector=collector, tracer=tracer)

    def train(self, benchmark: Union[str, Benchmark],
              configuration: str = "localGPUs",
              strategy: Union[str, ParallelStrategy, None] = None,
              policy: Optional[PrecisionPolicy] = None, *,
              collector: Optional[MetricsCollector] = None,
              tracer=None, **config) -> TrainingResult:
        """Run one benchmark on one configuration; returns the result.

        Takes the arguments of :meth:`job`.
        """
        return self.job(benchmark, configuration, strategy, policy,
                        collector=collector, tracer=tracer,
                        **config).run()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ComposableSystem host0 + falcon0 "
                f"({self.falcon.mode.value} mode)>")
