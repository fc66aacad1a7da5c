"""Network interface card model.

The hosts carry dual Intel X540-AT2 10 GbE NICs (paper §II-A).  NICs play
no role in the single-host DL experiments but are part of the composable
inventory — they can be installed in Falcon slots and attached to hosts —
so the model keeps them first-class.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Environment
from ..fabric.link import ETH_10G, GB, LinkSpec
from ..fabric.topology import Topology

__all__ = ["NIC", "NICSpec", "X540_AT2"]


@dataclass(frozen=True)
class NICSpec:
    """Static NIC characteristics."""

    name: str
    ports: int
    port_bandwidth: float    # bytes/s per port
    link_spec: LinkSpec = ETH_10G


X540_AT2 = NICSpec(
    name="Intel X540-AT2 10GbE",
    ports=2,
    port_bandwidth=1.15 * GB,
)


class NIC:
    """A simulated NIC registered on the fabric."""

    def __init__(self, env: Environment, topology: Topology, name: str,
                 spec: NICSpec = X540_AT2):
        self.env = env
        self.topology = topology
        self.name = name
        self.spec = spec
        topology.add_node(name, kind="nic", transit=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<NIC {self.name} ({self.spec.name})>"
