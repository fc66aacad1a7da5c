"""PCIe plumbing: root complexes and switches.

Thin object wrappers over topology nodes that keep track of which devices
hang off which upstream component, mirroring how a PCIe tree enumerates.
These are the building blocks from which hosts
(:mod:`repro.devices.host`) and the Falcon chassis
(:mod:`repro.fabric.falcon`) are assembled.
"""

from __future__ import annotations

from typing import Optional

from .link import Link, LinkSpec, PCIE_GEN4_X16
from .topology import Topology

__all__ = ["RootComplex", "PCIeSwitch"]


class RootComplex:
    """A host CPU's PCIe root complex (one per socket pair, simplified)."""

    def __init__(self, topology: Topology, name: str):
        self.topology = topology
        self.name = name
        topology.add_node(name, kind="rc", transit=True)
        self._children: dict[str, Link] = {}

    def attach(self, device_node: str,
               spec: LinkSpec = PCIE_GEN4_X16) -> Link:
        """Attach an existing node directly below this root complex."""
        if device_node in self._children:
            raise ValueError(f"{device_node!r} already attached to {self.name}")
        link = self.topology.add_link(spec, self.name, device_node)
        self._children[device_node] = link
        return link

    def detach(self, device_node: str) -> None:
        """Hot-remove a directly attached node."""
        link = self._children.pop(device_node, None)
        if link is None:
            raise ValueError(f"{device_node!r} is not attached to {self.name}")
        self.topology.remove_link(link)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RootComplex {self.name} children={len(self._children)}>"


class PCIeSwitch:
    """A PCIe switch chip with a bounded number of downstream ports."""

    def __init__(self, topology: Topology, name: str, ports: int = 8,
                 port_spec: LinkSpec = PCIE_GEN4_X16):
        if ports <= 0:
            raise ValueError("a switch needs at least one port")
        self.topology = topology
        self.name = name
        self.ports = ports
        self.port_spec = port_spec
        topology.add_node(name, kind="pcie-switch", transit=True)
        self._downstream: dict[str, Link] = {}
        self._upstream: dict[str, Link] = {}

    @property
    def free_ports(self) -> int:
        return self.ports - len(self._downstream)

    @property
    def upstream(self) -> list[str]:
        return list(self._upstream)

    def connect_upstream(self, node: str, spec: LinkSpec) -> Link:
        """Connect toward a host (upstream ports are not counted as slots)."""
        if node in self._upstream:
            raise ValueError(f"{node!r} is already upstream of {self.name}")
        link = self.topology.add_link(spec, self.name, node)
        self._upstream[node] = link
        return link

    def disconnect_upstream(self, node: str) -> None:
        link = self._upstream.pop(node, None)
        if link is None:
            raise ValueError(f"{node!r} is not upstream of {self.name}")
        self.topology.remove_link(link)

    def uplink_to(self, node: str) -> Link:
        """The upstream link toward ``node`` (KeyError if not cabled)."""
        return self._upstream[node]

    def attach(self, device_node: str,
               spec: Optional[LinkSpec] = None) -> Link:
        """Plug a device into a free downstream port."""
        if self.free_ports <= 0:
            raise ValueError(f"switch {self.name} has no free ports")
        if device_node in self._downstream:
            raise ValueError(f"{device_node!r} already on {self.name}")
        link = self.topology.add_link(spec or self.port_spec,
                                      self.name, device_node)
        self._downstream[device_node] = link
        return link

    def detach(self, device_node: str) -> None:
        """Hot-remove a downstream device."""
        link = self._downstream.pop(device_node, None)
        if link is None:
            raise ValueError(f"{device_node!r} is not on {self.name}")
        self.topology.remove_link(link)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PCIeSwitch {self.name} "
                f"{len(self._downstream)}/{self.ports} ports used>")
