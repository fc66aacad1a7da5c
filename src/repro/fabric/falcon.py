"""The Falcon 4016 composable chassis (paper §II-III).

A 4U chassis with **two drawers of eight PCIe 4.0 slots** each (sixteen
devices total), four **host ports** (H1-H4) that connect drawers to host
servers over 400 Gb/s CDFP cables + low-profile PCIe 4.0 x16 host
adapters, and a PCIe switch chip per drawer.

Composability features modelled:

- dynamic install/remove of devices in slots (GPUs, NVMe, NICs — anything
  with a PCIe interface),
- connecting up to two (standard mode) or three (advanced mode) hosts per
  drawer,
- logical allocation of devices to connected hosts with per-mode
  validation (standard: one host takes the drawer, or two hosts take four
  slots each; advanced: arbitrary sharing across up to three hosts),
- per-port and per-slot ingress/egress traffic counters (paper Fig. 12),
- configuration export/import (paper §II-B "import or export resource
  allocation as a configuration file").

State-changing operations emit structured events through an optional
callback, which the management plane (:mod:`repro.management`) records in
its event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

from .link import CDFP_400G, Link, LinkSpec, PCIE_GEN4_X16
from .pcie import PCIeSwitch
from .topology import Topology

__all__ = ["Falcon4016", "FalconMode", "Drawer", "Slot", "FalconError"]


class FalconError(Exception):
    """Invalid chassis operation (bad slot, mode violation, ...)."""


class FalconMode(str, Enum):
    """Chassis operating mode (paper §III-B)."""

    #: One or two hosts per drawer; a host takes eight or four devices.
    STANDARD = "standard"
    #: Up to three hosts per drawer with arbitrary dynamic allocation.
    ADVANCED = "advanced"


@dataclass
class Slot:
    """One of the eight device slots in a drawer."""

    drawer_index: int
    index: int
    device: Optional[str] = None        # node name of installed device
    link: Optional[Link] = None
    owner: Optional[str] = None         # host id the device is allocated to

    @property
    def occupied(self) -> bool:
        return self.device is not None

    @property
    def label(self) -> str:
        return f"drawer{self.drawer_index}/slot{self.index}"


class Drawer:
    """A drawer: PCIe switching fronting eight slots.

    A drawer normally presents one switch chip; in the paper's
    dual-connection standard-mode layout (§III-B: "one host can have two
    connections to the same drawer") it is *partitioned* into two
    4-slot halves, each with its own upstream port — host-device
    bandwidth doubles, but the halves can only reach each other through
    the host's root complex.
    """

    SLOTS = 8

    def __init__(self, topology: Topology, falcon_name: str, index: int,
                 partitions: int = 1):
        if partitions not in (1, 2):
            raise FalconError("a drawer has one or two switch partitions")
        self.index = index
        self.partitions = partitions
        self.name = f"{falcon_name}/drawer{index}"
        ports_per = self.SLOTS // partitions
        if partitions == 1:
            self.switches = [PCIeSwitch(topology, f"{self.name}/switch",
                                        ports=ports_per)]
        else:
            self.switches = [
                PCIeSwitch(topology, f"{self.name}/switch{p}",
                           ports=ports_per)
                for p in range(partitions)
            ]
        self.slots = [Slot(index, i) for i in range(self.SLOTS)]
        #: host id -> [(port name, link, partition), ...] — a host may
        #: hold two connections to a partitioned drawer.
        self.hosts: dict[str, list[tuple[str, Link, int]]] = {}

    @property
    def switch(self) -> PCIeSwitch:
        """The (first) switch — unambiguous for unpartitioned drawers."""
        return self.switches[0]

    def partition_of_slot(self, slot_index: int) -> int:
        return slot_index * self.partitions // self.SLOTS

    def switch_for_slot(self, slot_index: int) -> PCIeSwitch:
        return self.switches[self.partition_of_slot(slot_index)]

    @property
    def connection_count(self) -> int:
        return sum(len(entries) for entries in self.hosts.values())

    def free_slot(self, partition: Optional[int] = None) -> Optional[Slot]:
        for slot in self.slots:
            if slot.occupied:
                continue
            if partition is not None \
                    and self.partition_of_slot(slot.index) != partition:
                continue
            return slot
        return None

    def devices(self) -> list[str]:
        return [s.device for s in self.slots if s.device is not None]

    def allocated_to(self, host_id: str) -> list[str]:
        return [s.device for s in self.slots
                if s.device is not None and s.owner == host_id]


class Falcon4016:
    """The composable chassis: drawers, host ports, allocation logic."""

    HOST_PORTS = ("H1", "H2", "H3", "H4")
    DRAWERS = 2

    def __init__(self, topology: Topology, name: str = "falcon0",
                 mode: FalconMode = FalconMode.STANDARD,
                 on_event: Optional[Callable[[str, dict], None]] = None,
                 partitioned_drawers: frozenset[int] = frozenset()):
        self.topology = topology
        self.name = name
        self.mode = mode
        self._on_event = on_event
        self.drawers = [
            Drawer(topology, name, i,
                   partitions=2 if i in partitioned_drawers else 1)
            for i in range(self.DRAWERS)
        ]
        #: port name -> (host id, drawer index)
        self.port_map: dict[str, tuple[str, int]] = {}
        #: installed device node -> its slot.
        self._slots: dict[str, Slot] = {}

    # -- events -----------------------------------------------------------
    def _emit(self, kind: str, **details: Any) -> None:
        if self._on_event is not None:
            self._on_event(kind, dict(details, falcon=self.name,
                                      time=self.topology.env.now))

    def set_event_sink(self, sink: Callable[[str, dict], None]) -> None:
        self._on_event = sink

    # -- mode ---------------------------------------------------------------
    def set_mode(self, mode: FalconMode) -> None:
        """Switch operating mode; current state must satisfy the new mode."""
        if mode == self.mode:
            return
        if mode == FalconMode.STANDARD:
            for drawer in self.drawers:
                if drawer.connection_count > 2:
                    raise FalconError(
                        f"{drawer.name} has {drawer.connection_count} "
                        "connections; standard mode allows at most 2 per "
                        "drawer")
        self.mode = mode
        self._emit("mode_changed", mode=mode.value)

    @property
    def max_hosts_per_drawer(self) -> int:
        return 2 if self.mode == FalconMode.STANDARD else 3

    # -- host connections -----------------------------------------------------
    def connect_host(self, port: str, host_id: str, host_rc_node: str,
                     drawer: int, spec: LinkSpec = CDFP_400G,
                     partition: int = 0) -> Link:
        """Cable a host's adapter into ``port``, serving ``drawer``.

        For a partitioned drawer, ``partition`` selects which 4-slot half
        this connection serves (the paper's dual-connection layout cables
        the *same* host to both partitions).
        """
        if port not in self.HOST_PORTS:
            raise FalconError(f"unknown host port {port!r}")
        if port in self.port_map:
            raise FalconError(f"port {port} is already in use")
        dr = self._drawer(drawer)
        if not 0 <= partition < dr.partitions:
            raise FalconError(
                f"{dr.name} has no partition {partition}")
        if dr.partitions > 1:
            # Each 4-slot partition exposes a single upstream port.
            for entries in dr.hosts.values():
                for _, _, used_partition in entries:
                    if used_partition == partition:
                        raise FalconError(
                            f"{dr.name} partition {partition} already has "
                            "an upstream connection")
        if host_id in dr.hosts and dr.partitions == 1:
            raise FalconError(
                f"host {host_id!r} is already connected to {dr.name}")
        if dr.connection_count >= self.max_hosts_per_drawer:
            raise FalconError(
                f"{dr.name} already has {dr.connection_count} connections "
                f"(mode {self.mode.value} allows "
                f"{self.max_hosts_per_drawer})")
        link = dr.switches[partition].connect_upstream(host_rc_node, spec)
        dr.hosts.setdefault(host_id, []).append((port, link, partition))
        self.port_map[port] = (host_id, drawer)
        self._emit("host_connected", port=port, host=host_id,
                   drawer=drawer, partition=partition)
        return link

    def connect_fabric_host(self, port: str, host_id: str,
                            fabric_node: str, drawer: int,
                            spec: LinkSpec = CDFP_400G) -> Link:
        """Admit a host to ``drawer`` over a shared fabric (spine) trunk.

        Leaf/spine cabling for multi-chassis fleets: the port's cable
        lands on a transit switch (``fabric_node``) rather than on the
        host's own adapter, and the host is reached *through* that
        fabric.  The first fabric connection of a drawer cables its
        switch to the spine — one physical trunk; every later host
        admitted over the same fabric shares the trunk instead of adding
        a cable, so all of the drawer's spine-bound traffic contends on
        it.  Port bookkeeping, per-mode connection limits, and
        allocation checks behave exactly as for :meth:`connect_host`.
        """
        if port not in self.HOST_PORTS:
            raise FalconError(f"unknown host port {port!r}")
        if port in self.port_map:
            raise FalconError(f"port {port} is already in use")
        dr = self._drawer(drawer)
        if dr.partitions > 1:
            raise FalconError(
                f"{dr.name} is partitioned; fabric trunks require an "
                "unpartitioned drawer")
        if host_id in dr.hosts:
            raise FalconError(
                f"host {host_id!r} is already connected to {dr.name}")
        if dr.connection_count >= self.max_hosts_per_drawer:
            raise FalconError(
                f"{dr.name} already has {dr.connection_count} connections "
                f"(mode {self.mode.value} allows "
                f"{self.max_hosts_per_drawer})")
        switch = dr.switches[0]
        if fabric_node in switch.upstream:
            link = switch.uplink_to(fabric_node)
        else:
            link = switch.connect_upstream(fabric_node, spec)
        dr.hosts.setdefault(host_id, []).append((port, link, 0))
        self.port_map[port] = (host_id, drawer)
        self._emit("host_connected", port=port, host=host_id,
                   drawer=drawer, partition=0, fabric=fabric_node)
        return link

    def disconnect_host(self, port: str) -> None:
        """Uncable a host port; the host's allocations in the drawer are
        released once its last connection goes."""
        if port not in self.port_map:
            raise FalconError(f"port {port} is not in use")
        host_id, drawer = self.port_map.pop(port)
        dr = self._drawer(drawer)
        entries = dr.hosts[host_id]
        index = next(i for i, (p, _, _) in enumerate(entries) if p == port)
        _, link, partition = entries.pop(index)
        if not entries:
            del dr.hosts[host_id]
            for slot in dr.slots:
                if slot.owner == host_id:
                    slot.owner = None
        # A fabric trunk is shared by every host admitted over it; only
        # physically uncable when the last sharer goes.
        still_shared = any(entry[1] is link
                           for remaining in dr.hosts.values()
                           for entry in remaining)
        if not still_shared:
            dr.switches[partition].disconnect_upstream(
                link.other(dr.switches[partition].name))
        self._emit("host_disconnected", port=port, host=host_id,
                   drawer=drawer)

    def hosts_of_drawer(self, drawer: int) -> list[str]:
        return list(self._drawer(drawer).hosts)

    # -- device install / remove ------------------------------------------------
    def install_device(self, device_node: str, drawer: int,
                       slot: Optional[int] = None,
                       spec: LinkSpec = PCIE_GEN4_X16) -> Slot:
        """Seat a device (an existing topology node) into a slot."""
        dr = self._drawer(drawer)
        if slot is None:
            target = dr.free_slot()
            if target is None:
                raise FalconError(f"{dr.name} has no free slots")
        else:
            if not 0 <= slot < Drawer.SLOTS:
                raise FalconError(f"slot index {slot} out of range")
            target = dr.slots[slot]
            if target.occupied:
                raise FalconError(f"{target.label} is occupied")
        installed = self._slots.get(device_node)
        if installed is not None:
            raise FalconError(
                f"{device_node!r} is already installed in "
                f"{self.drawers[installed.drawer_index].name}")
        target.device = device_node
        self._slots[device_node] = target
        target.link = dr.switch_for_slot(target.index).attach(device_node,
                                                              spec)
        self._emit("device_installed", device=device_node,
                   slot=target.label)
        return target

    def remove_device(self, device_node: str) -> None:
        """Unseat a device; it must not be allocated to a host."""
        slot = self._find_slot(device_node)
        if slot.owner is not None:
            raise FalconError(
                f"{device_node!r} is allocated to {slot.owner}; "
                "deallocate first")
        drawer = self.drawers[slot.drawer_index]
        drawer.switch_for_slot(slot.index).detach(device_node)
        slot.device = None
        slot.link = None
        del self._slots[device_node]
        self._emit("device_removed", device=device_node, slot=slot.label)

    # -- allocation -----------------------------------------------------------
    def allocate(self, device_node: str, host_id: str) -> None:
        """Logically hand a device to a connected host (hot-add)."""
        slot = self._find_slot(device_node)
        drawer = self.drawers[slot.drawer_index]
        if host_id not in drawer.hosts:
            raise FalconError(
                f"host {host_id!r} is not connected to {drawer.name}")
        if slot.owner is not None:
            raise FalconError(
                f"{device_node!r} is already allocated to {slot.owner}")
        if self.mode == FalconMode.STANDARD and len(drawer.hosts) == 2:
            # Two hosts split the drawer four/four.
            if len(drawer.allocated_to(host_id)) >= 4:
                raise FalconError(
                    f"standard mode with two hosts limits {host_id!r} to "
                    f"4 devices in {drawer.name}")
        slot.owner = host_id
        self._emit("device_allocated", device=device_node, host=host_id,
                   slot=slot.label)

    def deallocate(self, device_node: str) -> None:
        """Release a device from its host (hot-remove)."""
        slot = self._find_slot(device_node)
        if slot.owner is None:
            raise FalconError(f"{device_node!r} is not allocated")
        host = slot.owner
        slot.owner = None
        self._emit("device_deallocated", device=device_node, host=host,
                   slot=slot.label)

    def reallocate(self, device_node: str, host_id: str) -> None:
        """Move a device between hosts on the fly (advanced mode)."""
        if self.mode != FalconMode.ADVANCED:
            raise FalconError(
                "dynamic reallocation requires advanced mode")
        slot = self._find_slot(device_node)
        if slot.owner is not None:
            self.deallocate(device_node)
        self.allocate(device_node, host_id)

    def owner_of(self, device_node: str) -> Optional[str]:
        return self._find_slot(device_node).owner

    def slot_of(self, device_node: str) -> Optional[Slot]:
        """The slot seating ``device_node``, or None if not installed."""
        return self._slots.get(device_node)

    def devices_of(self, host_id: str) -> list[str]:
        out: list[str] = []
        for drawer in self.drawers:
            out.extend(drawer.allocated_to(host_id))
        return out

    def installed_devices(self) -> list[str]:
        out: list[str] = []
        for drawer in self.drawers:
            out.extend(drawer.devices())
        return out

    # -- traffic ------------------------------------------------------------
    def device_traffic(self, device_node: str, t0: float, t1: float
                       ) -> tuple[float, float]:
        """(ingress, egress) bytes/s at the device's slot over [t0, t1].

        Ingress is data flowing *into* the device, egress out of it —
        the paper's Fig. 12 metric for Falcon-attached GPUs.
        """
        slot = self._find_slot(device_node)
        link = slot.link
        assert link is not None
        drawer = self.drawers[slot.drawer_index]
        switch = drawer.switch_for_slot(slot.index).name
        ingress = link.mean_rate(switch, device_node, t0, t1)
        egress = link.mean_rate(device_node, switch, t0, t1)
        return ingress, egress

    def total_device_traffic(self, t0: float, t1: float,
                             devices: Optional[list[str]] = None
                             ) -> tuple[float, float]:
        """Summed (ingress, egress) bytes/s over installed devices."""
        targets = devices if devices is not None else self.installed_devices()
        totals = [self.device_traffic(d, t0, t1) for d in targets]
        if not totals:
            return 0.0, 0.0
        return (sum(t[0] for t in totals), sum(t[1] for t in totals))

    def port_traffic(self, port: str, t0: float, t1: float
                     ) -> tuple[float, float]:
        """(ingress, egress) bytes/s at a host port (toward the drawer)."""
        if port not in self.port_map:
            raise FalconError(f"port {port} is not in use")
        host_id, drawer = self.port_map[port]
        dr = self._drawer(drawer)
        port_name, link, partition = next(
            entry for entry in dr.hosts[host_id] if entry[0] == port)
        switch_name = dr.switches[partition].name
        host_node = link.other(switch_name)
        ingress = link.mean_rate(host_node, switch_name, t0, t1)
        egress = link.mean_rate(switch_name, host_node, t0, t1)
        return ingress, egress

    def register_metrics(self, registry) -> None:
        """Publish the chassis' port/slot telemetry into a MetricsRegistry.

        Per in-use host port and per occupied slot: both directional link
        byte counters, plus derived ingress/egress gauges (bytes/s over a
        window) — the registry view of the paper's Fig. 12 data.
        """
        for port, (host_id, drawer) in self.port_map.items():
            dr = self._drawer(drawer)
            link = next(entry[1] for entry in dr.hosts[host_id]
                        if entry[0] == port)
            prefix = f"fabric/{self.name}/{port}"
            link.register_metrics(registry, prefix)
            registry.gauge(
                f"{prefix}/ingress",
                lambda t0, t1, p=port: self.port_traffic(p, t0, t1)[0])
            registry.gauge(
                f"{prefix}/egress",
                lambda t0, t1, p=port: self.port_traffic(p, t0, t1)[1])
        for drawer in self.drawers:
            for slot in drawer.slots:
                if slot.device is None or slot.link is None:
                    continue
                prefix = f"fabric/{self.name}/{slot.label}"
                slot.link.register_metrics(registry, prefix)
                registry.gauge(
                    f"{prefix}/ingress",
                    lambda t0, t1, d=slot.device:
                    self.device_traffic(d, t0, t1)[0])
                registry.gauge(
                    f"{prefix}/egress",
                    lambda t0, t1, d=slot.device:
                    self.device_traffic(d, t0, t1)[1])

    # -- configuration import/export --------------------------------------------
    def export_config(self) -> dict:
        """Snapshot mode, cabling, slots, and allocations as plain data."""
        return {
            "name": self.name,
            "mode": self.mode.value,
            "ports": {port: {"host": host, "drawer": drawer}
                      for port, (host, drawer) in self.port_map.items()},
            "slots": [
                {
                    "drawer": slot.drawer_index,
                    "slot": slot.index,
                    "device": slot.device,
                    "owner": slot.owner,
                }
                for drawer in self.drawers for slot in drawer.slots
            ],
        }

    def apply_allocations(self, config: dict) -> None:
        """Re-apply the device->host allocations of an exported config.

        Cabling and slot population must already match; only ownership is
        changed.  This is the "import resource allocation" management
        operation.
        """
        if config.get("mode") != self.mode.value:
            raise FalconError(
                f"config mode {config.get('mode')!r} does not match "
                f"chassis mode {self.mode.value!r}")
        for entry in config.get("slots", []):
            dr = self._drawer(entry["drawer"])
            slot = dr.slots[entry["slot"]]
            if slot.device != entry["device"]:
                raise FalconError(
                    f"{slot.label}: installed device {slot.device!r} does "
                    f"not match config {entry['device']!r}")
        for drawer in self.drawers:
            for slot in drawer.slots:
                slot.owner = None
        for entry in config.get("slots", []):
            if entry["device"] is not None and entry["owner"] is not None:
                self.allocate(entry["device"], entry["owner"])
        self._emit("config_imported", slots=len(config.get("slots", [])))

    # -- helpers ----------------------------------------------------------
    def _drawer(self, index: int) -> Drawer:
        if not 0 <= index < len(self.drawers):
            raise FalconError(f"drawer index {index} out of range")
        return self.drawers[index]

    def _find_slot(self, device_node: str) -> Slot:
        slot = self._slots.get(device_node)
        if slot is None:
            raise FalconError(
                f"{device_node!r} is not installed in {self.name}")
        return slot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        used = sum(1 for d in self.drawers for s in d.slots if s.occupied)
        return (f"<Falcon4016 {self.name} mode={self.mode.value} "
                f"{used}/16 slots>")
