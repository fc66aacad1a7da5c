"""Multi-host composable cluster (paper §III and the future-work agenda).

The single-host :class:`~repro.core.ComposableSystem` reproduces the
evaluation testbed (Fig. 6); this module builds the *general* architecture
of §III — several host servers sharing one or more Falcon 4016 chassis —
and implements the paper's future-work experiments:

- **advanced mode**: up to three hosts cabled to one drawer, its eight
  devices split among them, with on-the-fly reallocation;
- **concurrent tenancy**: independent training jobs from different hosts
  running simultaneously over the shared fabric, so cross-tenant
  interference (shared host ports, drawer switches) is measurable;
- **dynamic reconfiguration**: move GPUs between hosts mid-campaign and
  quantify the reconfiguration cost against the throughput gained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..devices import (
    GPU,
    HostServer,
    HostSpec,
    SSDPEDKX040T7,
    StorageDevice,
    SUPERMICRO_4029GP_TVRT,
    V100_PCIE_16GB,
)
from ..fabric import Falcon4016, FalconMode, Topology
from ..fabric.link import PCIE_GEN4_X4
from ..management import ManagementCenterServer
from ..sim import Environment
from ..training import (
    AMP_POLICY,
    DistributedDataParallel,
    ParallelStrategy,
    PrecisionPolicy,
    TrainingConfig,
    TrainingJob,
    TrainingResult,
)
from ..workloads import get_benchmark

__all__ = ["ComposableCluster", "JobSpec", "HOTPLUG_SECONDS"]

#: Simulated PCIe hot-plug latency for a device attach/detach: surprise
#: link-down, re-enumeration, and driver bring-up on the new host.
HOTPLUG_SECONDS = 4.0


@dataclass(frozen=True)
class JobSpec:
    """One tenant's training job in a concurrent-sharing experiment."""

    host_index: int
    benchmark: str
    gpus: tuple[str, ...]
    strategy: Optional[ParallelStrategy] = None
    policy: PrecisionPolicy = AMP_POLICY
    global_batch: Optional[int] = None
    sim_steps: int = 8


class ComposableCluster:
    """Several hosts sharing Falcon chassis, with tenancy helpers."""

    def __init__(self, env: Optional[Environment] = None, hosts: int = 3,
                 mode: FalconMode = FalconMode.ADVANCED,
                 host_spec: HostSpec = SUPERMICRO_4029GP_TVRT):
        if not 1 <= hosts <= 4:
            raise ValueError("a Falcon 4016 has four host ports")
        self.env = env or Environment()
        self.topology = Topology(self.env)
        self.mcs = ManagementCenterServer(self.env)
        self.hosts: list[HostServer] = []
        for i in range(hosts):
            host = HostServer(self.env, self.topology, f"host{i}",
                              host_spec)
            self.hosts.append(host)
            self.mcs.register_host(host.name)

        self.falcon = Falcon4016(self.topology, "falcon0", mode=mode,
                                 on_event=self.mcs.record_event)
        self.mcs.register_falcon(self.falcon)

        # Cabling: hosts 0..min(3,N)-1 share drawer 0 (advanced mode);
        # the last port serves drawer 1 from host 0.
        ports = iter(Falcon4016.HOST_PORTS)
        for host in self.hosts[:3]:
            self.falcon.connect_host(next(ports), host.name,
                                     host.rc_node, drawer=0)
        self.falcon.connect_host(next(ports), self.hosts[0].name,
                                 self.hosts[0].rc_node, drawer=1)

        # Populate: eight PCIe V100s (4 per drawer) + NVMe in drawer 1.
        self.falcon_gpus: list[GPU] = []
        for i in range(8):
            gpu = GPU(self.env, self.topology, f"falcon0/gpu{i}",
                      V100_PCIE_16GB)
            self.falcon.install_device(gpu.name, drawer=i // 4)
            self.falcon_gpus.append(gpu)
        self.falcon_nvme = StorageDevice(self.env, self.topology,
                                         "falcon0/nvme", SSDPEDKX040T7)
        self.falcon.install_device(self.falcon_nvme.name, drawer=1,
                                   spec=PCIE_GEN4_X4)

    # -- device management --------------------------------------------------

    def gpu_by_name(self, name: str) -> GPU:
        for gpu in self.falcon_gpus:
            if gpu.name == name:
                return gpu
        for host in self.hosts:
            for gpu in host.gpus:
                if gpu.name == name:
                    return gpu
        raise KeyError(f"unknown GPU {name!r}")

    def allocate(self, gpu_name: str, host_index: int):
        """Hot-add a falcon GPU to a host; returns a process event that
        fires after the hot-plug latency."""
        host = self.hosts[host_index]
        return self.env.process(self._hotplug(gpu_name, host.name))

    def _hotplug(self, gpu_name: str, host_id: str):
        yield self.env.timeout(HOTPLUG_SECONDS)
        if self.falcon.owner_of(gpu_name) is not None:
            self.falcon.deallocate(gpu_name)
        self.falcon.allocate(gpu_name, host_id)
        return gpu_name

    def reconfigure(self, assignments: dict[str, int]):
        """Apply a bulk {gpu_name: host_index} reallocation (sequential
        hot-plugs, as the management plane performs them)."""
        return self.env.process(self._reconfigure(assignments))

    def _reconfigure(self, assignments: dict[str, int]):
        for gpu_name, host_index in assignments.items():
            yield self.env.process(
                self._hotplug(gpu_name, self.hosts[host_index].name))
        return len(assignments)

    # -- concurrent training ---------------------------------------------------
    def run_jobs(self, jobs: Sequence[JobSpec]) -> list[TrainingResult]:
        """Run tenant jobs concurrently over the shared fabric."""
        if not jobs:
            return []
        started: list[TrainingJob] = []
        for spec in jobs:
            host = self.hosts[spec.host_index]
            gpus = [self.gpu_by_name(name) for name in spec.gpus]
            self._check_ownership(spec, host, gpus)
            config = TrainingConfig(
                benchmark=get_benchmark(spec.benchmark),
                strategy=spec.strategy or DistributedDataParallel(),
                policy=spec.policy,
                global_batch=spec.global_batch,
                sim_steps=spec.sim_steps,
            )
            job = TrainingJob(self.env, self.topology, host, gpus,
                              host.scratch, config)
            started.append(job)
        done = self.env.all_of([job.start() for job in started])
        self.env.run(until=done)
        return [job.collect() for job in started]

    def _check_ownership(self, spec: JobSpec, host: HostServer,
                         gpus: list[GPU]) -> None:
        for gpu in gpus:
            if gpu.name.startswith("falcon0"):
                owner = self.falcon.owner_of(gpu.name)
                if owner != host.name:
                    raise PermissionError(
                        f"{gpu.name} is allocated to {owner!r}, not "
                        f"{host.name!r}; allocate it first")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ComposableCluster hosts={len(self.hosts)} "
                f"mode={self.falcon.mode.value}>")
