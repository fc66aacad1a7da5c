"""Host server model (Supermicro SYS-4029GP-TVRT preset).

A host contributes to the fabric:

- a PCIe root complex node (``{name}/rc``) — the point the Falcon's CDFP
  host adapters cable into,
- a DRAM node (``{name}/dram``) behind an aggregate DDR4 link, so every
  host-device DMA shares the memory subsystem's bandwidth,
- four PLX PCIe switches fronting pairs of local V100 SXM2 GPUs (the
  SYS-4029GP-TVRT's PCIe tree), with the GPUs additionally wired into the
  NVLink hybrid cube mesh (paper Fig. 7),
- dual 10 GbE NICs and a SATA-class scratch volume,
- optionally, a locally attached NVMe drive (the ``localNVMe``
  configuration).

System-memory occupancy is tracked via a container so the telemetry layer
can reproduce the paper's Fig. 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Container, Environment
from ..fabric.link import (
    DDR4_CHANNEL,
    GB,
    GIB,
    LinkSpec,
    PCIE_GEN3_X16,
    Protocol,
    SATA3,
    US,
)
from ..fabric.nvlink import build_hybrid_cube_mesh
from ..fabric.pcie import PCIeSwitch, RootComplex
from ..fabric.topology import Topology
from .cpu import CPU, CPUSpec, XEON_GOLD_6148_DUAL
from .gpu import GPU, GPUSpec, V100_SXM2_16GB
from .nic import NIC, NICSpec, X540_AT2
from .storage import LOCAL_SCRATCH, SSDPEDKX040T7, StorageDevice, StorageSpec

__all__ = ["HostServer", "HostSpec", "SUPERMICRO_4029GP_TVRT",
           "PCIE_GEN3_X4_NVME"]

#: NVMe U.2/HHHL attachment: PCIe 3.0 x4 tuned for long sequential DMA
#: (streamed reads see less protocol overhead than the generic x16 figure).
PCIE_GEN3_X4_NVME = LinkSpec(
    name="PCIe 3.0 x4 (NVMe)",
    protocol=Protocol.PCIE3,
    lanes=4,
    bandwidth=3.4 * GB,
    latency=0.9 * US,
)

#: Aggregate DDR4 memory link (per-socket channels combined).
DDR4_AGGREGATE = DDR4_CHANNEL.scaled(8)


@dataclass(frozen=True)
class HostSpec:
    """Bill of materials for a host server."""

    name: str
    cpu: CPUSpec = XEON_GOLD_6148_DUAL
    memory_bytes: float = 756 * GIB
    local_gpus: int = 8
    gpu_spec: GPUSpec = V100_SXM2_16GB
    nic_spec: NICSpec = X540_AT2
    nics: int = 2
    scratch_spec: StorageSpec = LOCAL_SCRATCH
    #: GPUs per PLX switch in the PCIe tree.
    gpus_per_switch: int = 2


SUPERMICRO_4029GP_TVRT = HostSpec(name="SuperServer SYS-4029GP-TVRT")


class HostServer:
    """A composable-system host: CPU, DRAM, local GPUs, NICs, storage."""

    def __init__(self, env: Environment, topology: Topology, name: str,
                 spec: HostSpec = SUPERMICRO_4029GP_TVRT):
        self.env = env
        self.topology = topology
        self.name = name
        self.spec = spec

        self.rc = RootComplex(topology, f"{name}/rc")
        self.dram_node = f"{name}/dram"
        topology.add_node(self.dram_node, kind="dram", transit=False)
        self.dram_link = topology.add_link(DDR4_AGGREGATE, self.rc.name,
                                           self.dram_node)

        self.cpu = CPU(env, f"{name}/cpu", spec.cpu)
        #: System-memory occupancy (bytes allocated).
        self.memory = Container(env, capacity=spec.memory_bytes)

        # Local GPU tree: PLX switches in pairs, plus the NVLink mesh.
        self.plx_switches: list[PCIeSwitch] = []
        self.gpus: list[GPU] = []
        n_switches = (spec.local_gpus + spec.gpus_per_switch - 1) \
            // spec.gpus_per_switch if spec.local_gpus else 0
        for s in range(n_switches):
            switch = PCIeSwitch(topology, f"{name}/plx{s}",
                                ports=spec.gpus_per_switch,
                                port_spec=PCIE_GEN3_X16)
            switch.connect_upstream(self.rc.name, PCIE_GEN3_X16)
            self.plx_switches.append(switch)
        for i in range(spec.local_gpus):
            gpu = GPU(env, topology, f"{name}/gpu{i}", spec.gpu_spec)
            self.plx_switches[i // spec.gpus_per_switch].attach(gpu.name)
            self.gpus.append(gpu)
        if spec.local_gpus == 8 and spec.gpu_spec.nvlink_ports >= 6:
            build_hybrid_cube_mesh(topology, [g.name for g in self.gpus])

        # NICs.
        self.nics: list[NIC] = []
        for i in range(spec.nics):
            nic = NIC(env, topology, f"{name}/nic{i}", spec.nic_spec)
            self.rc.attach(nic.name, spec.nic_spec.link_spec)
            self.nics.append(nic)

        # Baseline scratch volume ("local storage" in Table III).
        self.scratch = StorageDevice(env, topology, f"{name}/scratch",
                                     spec.scratch_spec)
        self.rc.attach(self.scratch.name, SATA3)

        #: Optional locally attached NVMe (installed via attach_nvme).
        self.nvme: Optional[StorageDevice] = None

    # -- identity ------------------------------------------------------------
    @property
    def rc_node(self) -> str:
        return self.rc.name

    # -- memory ---------------------------------------------------------------

    @property
    def memory_utilization(self) -> float:
        return self.memory.level / self.spec.memory_bytes

    def alloc_memory(self, nbytes: float):
        """Reserve host DRAM; yields an event (blocks when exhausted)."""
        return self.memory.put(nbytes)

    def free_memory(self, nbytes: float):
        return self.memory.get(nbytes)

    # -- storage ---------------------------------------------------------------
    def attach_nvme(self, spec: StorageSpec = SSDPEDKX040T7,
                    name: Optional[str] = None) -> StorageDevice:
        """Install a local NVMe drive below the root complex."""
        if self.nvme is not None:
            raise ValueError(f"{self.name} already has a local NVMe")
        drive = StorageDevice(self.env, self.topology,
                              name or f"{self.name}/nvme", spec)
        self.rc.attach(drive.name, PCIE_GEN3_X4_NVME)
        self.nvme = drive
        return drive

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<HostServer {self.name} gpus={len(self.gpus)} "
                f"mem={self.spec.memory_bytes / GIB:.0f}GiB>")
