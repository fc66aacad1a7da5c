"""Traffic aggregation helpers over link counters.

The fabric accounts every delivered byte on each link's directional
counters (:class:`~repro.sim.CounterMonitor`).  These helpers roll those
counters up into the quantities the paper reports: per-node ingress and
egress rates, and rate time-series suitable for plotting (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from .link import GB, Link
from .topology import Topology

if TYPE_CHECKING:
    import numpy as np

__all__ = ["NodeTraffic", "node_traffic", "node_rate_series",
           "total_bytes_moved"]


@dataclass(frozen=True)
class NodeTraffic:
    """Ingress/egress byte totals and mean rates for one node."""

    node: str
    ingress_bytes: float
    egress_bytes: float
    ingress_rate: float
    egress_rate: float

    @property
    def combined_rate(self) -> float:
        """Total data exchanged per second (ingress + egress)."""
        return self.ingress_rate + self.egress_rate

    @property
    def combined_rate_gbps(self) -> float:
        """Combined rate in GB/s, the unit of the paper's Fig. 12."""
        return self.combined_rate / GB


def node_traffic(topology: Topology, node: str, t0: float, t1: float
                 ) -> NodeTraffic:
    """Aggregate ingress/egress over every link touching ``node``."""
    ingress = 0.0
    egress = 0.0
    for link in topology.links_of(node):
        other = link.other(node)
        ingress += link.counters[(other, node)].total_between(t0, t1)
        egress += link.counters[(node, other)].total_between(t0, t1)
    span = max(t1 - t0, 0.0)
    return NodeTraffic(
        node=node,
        ingress_bytes=ingress,
        egress_bytes=egress,
        ingress_rate=ingress / span if span > 0 else 0.0,
        egress_rate=egress / span if span > 0 else 0.0,
    )


def node_rate_series(topology: Topology, node: str, width: float,
                     t_end: Optional[float] = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(window_starts, ingress_rates, egress_rates) for one node.

    Rates are averaged per fixed-width window, the same presentation the
    paper uses for per-second PCIe traffic.
    """
    import numpy as np
    links = topology.links_of(node)
    hi = t_end if t_end is not None else topology.env.now
    if hi <= 0 or not links:
        empty = np.array([])
        return empty, empty.copy(), empty.copy()
    edges = np.arange(0.0, hi + width, width)
    ingress = np.zeros(edges.size - 1)
    egress = np.zeros(edges.size - 1)
    for link in links:
        other = link.other(node)
        for direction, acc in (((other, node), ingress),
                               ((node, other), egress)):
            t, c = link.counters[direction].breakpoints(hi)
            acc += np.diff(np.interp(edges, t, c)) / width
    return edges[:-1], ingress, egress


def total_bytes_moved(links: Iterable[Link]) -> float:
    """Sum of all bytes moved in both directions over the given links."""
    return sum(counter.total
               for link in links for counter in link.counters.values())
