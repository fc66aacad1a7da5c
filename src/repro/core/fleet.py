"""Multi-chassis composable fleet behind a spine switch.

:class:`ComposableFleet` scales the paper's §III architecture out to a
row of racks: N Falcon 4016 chassis and M composable host servers all
cabled into one spine switch, so any host can reach any chassis GPU —
the full promise of composability, at the price of fabric hops.

Topology (one chassis column shown)::

    host0/rc ──(CDFP / oversubscription)── spine0
                                             │ (CDFP trunk per drawer)
                  falcon0/drawer0/switch ────┤
                  falcon0/drawer1/switch ────┘
                       │ ... 8 slots ...
                     falcon0/gpu0..gpu7

- Hosts are GPU-less (``local_gpus=0``): every GPU they train on is
  composed from a chassis, which is what makes placement interesting.
- Each drawer has **one** physical trunk to the spine; every host
  admitted to the drawer shares it (leaf/spine semantics, implemented by
  :meth:`~repro.fabric.falcon.Falcon4016.connect_fabric_host`).
- Each host has **one** spine uplink at ``CDFP/oversubscription``
  bandwidth; concurrent jobs on the same host contend on it, which is
  the cross-job fabric contention the fleet experiments measure.

Admission (which hosts may allocate from which drawer) is dynamic and
port-bounded: a chassis has four host ports, two consumed at build time
by its home host, leaving two for visiting hosts.  :meth:`admit` /
:meth:`release` refcount those cables so the scheduler can compose
cross-chassis jobs and give the ports back afterwards.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..devices import (
    GPU,
    HostServer,
    SUPERMICRO_4029GP_TVRT,
    V100_PCIE_16GB,
)
from ..fabric import Falcon4016, FalconError, FalconMode, Link, Topology
from ..fabric.link import CDFP_400G
from ..management import Inventory, ManagementCenterServer
from ..sim import Environment
from .presets import FLEET_TWO_CHASSIS, FleetSpec

__all__ = ["ComposableFleet", "FleetError"]


class FleetError(Exception):
    """No feasible cabling/placement for a fleet operation."""


class ComposableFleet:
    """N chassis + M composable hosts meshed through a spine switch."""

    def __init__(self, spec: FleetSpec = FLEET_TWO_CHASSIS,
                 env: Optional[Environment] = None):
        self.spec = spec
        self.env = env or Environment()
        self.topology = Topology(self.env)
        self.mcs = ManagementCenterServer(self.env)

        # The spine: a pure transit switch every uplink/trunk lands on.
        self.spine = spec.spine
        self.topology.add_node(self.spine, kind="switch", transit=True)
        if spec.oversubscription == 1.0:
            self.uplink_spec = CDFP_400G
        else:
            self.uplink_spec = replace(
                CDFP_400G,
                name=f"{CDFP_400G.name} "
                     f"(1:{spec.oversubscription:g} oversubscribed)",
                bandwidth=CDFP_400G.bandwidth / spec.oversubscription)

        # Composable hosts: no local GPUs — everything is fabric-attached.
        host_spec = replace(SUPERMICRO_4029GP_TVRT, local_gpus=0)
        self.hosts: list[HostServer] = []
        #: host name -> its spine uplink (the per-host shared resource).
        self.host_uplinks: dict[str, Link] = {}
        for i in range(spec.hosts):
            host = HostServer(self.env, self.topology, f"host{i}",
                              host_spec)
            self.host_uplinks[host.name] = self.topology.add_link(
                self.uplink_spec, host.rc_node, self.spine)
            self.mcs.register_host(host.name)
            self.hosts.append(host)

        # Chassis: advanced mode (3 hosts/drawer), drawers trunked to the
        # spine under their home host's admission.
        self.falcons: list[Falcon4016] = []
        self.inventories: list[Inventory] = []
        self.gpus: dict[str, GPU] = {}
        #: gpu name -> chassis index (placement bookkeeping).
        self.chassis_of: dict[str, int] = {}
        #: (falcon name, drawer, host name) -> admission refcount.
        self._admission_refs: dict[tuple[str, int, str], int] = {}
        #: build-time admissions that are never uncabled.
        self._pinned: set[tuple[str, int, str]] = set()
        for c in range(spec.chassis):
            falcon = Falcon4016(self.topology, f"falcon{c}",
                                mode=FalconMode.ADVANCED)
            self.mcs.register_falcon(falcon)
            home = self.hosts[c % len(self.hosts)]
            for drawer, port in ((0, "H1"), (1, "H2")):
                falcon.connect_fabric_host(port, home.name, self.spine,
                                           drawer=drawer)
                key = (falcon.name, drawer, home.name)
                self._admission_refs[key] = 1
                self._pinned.add(key)
            inventory = Inventory(self.mcs, falcon)
            for g in range(spec.gpus_per_chassis):
                gpu = GPU(self.env, self.topology, f"falcon{c}/gpu{g}",
                          V100_PCIE_16GB)
                # Split evenly across the two drawers.
                falcon.install_device(
                    gpu.name, drawer=g * 2 // spec.gpus_per_chassis
                    if spec.gpus_per_chassis > 1 else 0)
                inventory.register_gpu(gpu)
                self.gpus[gpu.name] = gpu
                self.chassis_of[gpu.name] = c
            self.falcons.append(falcon)
            self.inventories.append(inventory)
        #: chassis index -> its GPU names, sorted; ``None`` -> all of them.
        self._names: dict[Optional[int], list[str]] = {None: sorted(self.gpus)}
        for name in self._names[None]:
            self._names.setdefault(self.chassis_of[name], []).append(name)

    # -- lookups -----------------------------------------------------------

    def gpu(self, name: str) -> GPU:
        try:
            return self.gpus[name]
        except KeyError:
            raise KeyError(f"unknown fleet GPU {name!r}") from None

    def inventory_of(self, gpu_name: str) -> Inventory:
        return self.inventories[self.chassis_of[gpu_name]]

    def free_gpus(self, chassis: Optional[int] = None) -> list[str]:
        """Unallocated chassis GPUs, in deterministic name order."""
        falcons, chassis_of = self.falcons, self.chassis_of
        return [name for name in self._names.get(chassis, ())
                if falcons[chassis_of[name]].owner_of(name) is None]

    # -- dynamic admission (visiting hosts) --------------------------------
    def admit(self, host_name: str, chassis: int, drawer: int) -> None:
        """Ensure ``host_name`` may allocate from the drawer (refcounted).

        A visiting host consumes one of the chassis' free ports; the
        drawer's existing spine trunk is shared, no new cable is run.
        Raises :class:`FleetError` when the chassis has no free port or
        the drawer is at its mode's connection limit.
        """
        falcon = self.falcons[chassis]
        key = (falcon.name, drawer, host_name)
        if key in self._admission_refs:
            self._admission_refs[key] += 1
            return
        port = next((p for p in falcon.HOST_PORTS
                     if p not in falcon.port_map), None)
        if port is None:
            raise FleetError(
                f"{falcon.name} has no free host port for {host_name!r}")
        try:
            falcon.connect_fabric_host(port, host_name, self.spine,
                                       drawer=drawer)
        except FalconError as exc:
            raise FleetError(str(exc)) from exc
        self._admission_refs[key] = 1

    def release(self, host_name: str, chassis: int, drawer: int) -> None:
        """Drop one admission reference; uncable on the last (unless the
        admission is the drawer's build-time home cabling)."""
        falcon = self.falcons[chassis]
        key = (falcon.name, drawer, host_name)
        refs = self._admission_refs.get(key)
        if refs is None:
            return
        if refs > 1:
            self._admission_refs[key] = refs - 1
            return
        if key in self._pinned:
            return  # home cabling stays; keep the floor refcount
        del self._admission_refs[key]
        port = next(p for p, (h, d) in falcon.port_map.items()
                    if h == host_name and d == drawer)
        falcon.disconnect_host(port)

    def is_admitted(self, host_name: str, chassis: int,
                    drawer: int) -> bool:
        return host_name in self.falcons[chassis].drawers[drawer].hosts

    # -- spine contention --------------------------------------------------
    def spine_links(self) -> dict[str, Link]:
        """Every link terminating at the spine, labelled for reporting:
        per-host uplinks plus per-drawer trunks."""
        links: dict[str, Link] = {}
        for host_name, link in self.host_uplinks.items():
            links[f"uplink/{host_name}"] = link
        for falcon in self.falcons:
            for drawer in falcon.drawers:
                switch = drawer.switch
                if self.spine in switch.upstream:
                    links[f"trunk/{drawer.name}"] = \
                        switch.uplink_to(self.spine)
        return links

    def spine_traffic(self, t0: float, t1: float) -> dict[str, dict]:
        """Mean (to-spine, from-spine) bytes/s per spine link over
        ``[t0, t1]`` — the cross-job contention view."""
        out: dict[str, dict] = {}
        for label, link in self.spine_links().items():
            edge = link.other(self.spine)
            out[label] = {
                "to_spine_gbs": link.mean_rate(edge, self.spine,
                                               t0, t1) / 1e9,
                "from_spine_gbs": link.mean_rate(self.spine, edge,
                                                 t0, t1) / 1e9,
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ComposableFleet {self.spec.name}: "
                f"{len(self.falcons)} chassis x "
                f"{self.spec.gpus_per_chassis} GPUs, "
                f"{len(self.hosts)} hosts, "
                f"oversub {self.spec.oversubscription:g}>")
