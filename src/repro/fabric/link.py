"""Interconnect link models.

A :class:`LinkSpec` describes the physical characteristics of one class of
link (protocol, lane count, per-direction bandwidth, latency).  A
:class:`Link` is one *instance* of a spec wired between two topology nodes,
carrying per-direction traffic counters so that fabric port statistics
(paper Fig. 12 — ingress/egress GB/s on Falcon ports) can be derived.

Bandwidth figures are *effective payload* bandwidths: raw signalling rate
times protocol efficiency (encoding, DLLP/TLP framing for PCIe; flit
overhead for NVLink).  The catalog constants are calibrated so that the
microbenchmarks in :mod:`repro.experiments.microbench` land on the paper's
Table IV (L-L 72.37 GB/s, F-L 19.64 GB/s, F-F 24.47 GB/s bidirectional).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from ..sim import CounterMonitor

__all__ = [
    "Protocol",
    "LinkSpec",
    "Link",
    "PCIE_GEN3_X16",
    "PCIE_GEN4_X4",
    "PCIE_GEN4_X8",
    "PCIE_GEN4_X16",
    "NVLINK2_X1",
    "NVLINK2_X2",
    "CDFP_400G",
    "ETH_10G",
    "SATA3",
    "DDR4_CHANNEL",
    "GB",
    "GIB",
    "US",
]

#: One gigabyte (decimal, as used by bandwidth figures).
GB = 1e9
#: One gibibyte.
GIB = 2.0 ** 30
#: One microsecond in seconds.
US = 1e-6


class Protocol(str, Enum):
    """Link-layer protocol families recognized by the fabric."""

    PCIE3 = "PCIe 3.0"
    PCIE4 = "PCIe 4.0"
    NVLINK2 = "NVLink"
    CDFP = "CDFP"
    ETHERNET = "Ethernet"
    SATA = "SATA"
    MEMORY = "DDR4"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class LinkSpec:
    """Physical characteristics of one class of link.

    Attributes
    ----------
    name:
        Human-readable spec name, e.g. ``"PCIe 4.0 x16"``.
    protocol:
        The :class:`Protocol` family.
    lanes:
        Lane (or sub-link) count.
    bandwidth:
        Effective payload bandwidth *per direction*, bytes/second.
    latency:
        One-way propagation + protocol latency, seconds.
    hop_penalty:
        Extra latency added per switch/retimer hop this link type implies
        (e.g. crossing a Falcon host adapter), seconds.
    """

    name: str
    protocol: Protocol
    lanes: int
    bandwidth: float
    latency: float
    hop_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.lanes <= 0:
            raise ValueError(f"lanes must be positive, got {self.lanes}")
        if self.bandwidth <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0 or self.hop_penalty < 0:
            raise ValueError("latencies must be non-negative")

    @property
    def bidirectional_bandwidth(self) -> float:
        """Aggregate payload bandwidth with both directions saturated."""
        return 2.0 * self.bandwidth

    def scaled(self, lanes: int) -> "LinkSpec":
        """A spec with a different lane count, bandwidth scaled linearly."""
        if lanes <= 0:
            raise ValueError("lanes must be positive")
        factor = lanes / self.lanes
        return replace(
            self,
            name=_relane(self.name, lanes),
            lanes=lanes,
            bandwidth=self.bandwidth * factor,
        )


def _relane(name: str, lanes: int) -> str:
    base = name.rsplit(" x", 1)[0]
    return f"{base} x{lanes}"


# ---------------------------------------------------------------------------
# Catalog.  Bandwidths are effective payload bytes/s per direction.
#
# PCIe 4.0 x16: 31.5 GB/s raw; ~78% sustained payload efficiency for large
# DMA reads/writes through one switch -> 12.3 GB/s/dir measured on the
# falcon path gives Table IV's F-F 24.47 GB/s bidirectional.
# Crossing the host adapter (F-L) pays an extra efficiency penalty, modelled
# as the CDFP host-port spec below.
# NVLink2: 25 GB/s/dir raw per link, ~92% payload -> a 2-link pair measures
# ~92 GB/s bidirectional and a 1-link pair ~46 GB/s; the hybrid-cube-mesh
# average over adjacent pairs is ~72 GB/s (Table IV L-L 72.37).
# ---------------------------------------------------------------------------

PCIE_GEN3_X16 = LinkSpec(
    name="PCIe 3.0 x16",
    protocol=Protocol.PCIE3,
    lanes=16,
    bandwidth=12.0 * GB,
    latency=0.30 * US,
)

PCIE_GEN4_X16 = LinkSpec(
    name="PCIe 4.0 x16",
    protocol=Protocol.PCIE4,
    lanes=16,
    bandwidth=12.3 * GB,
    latency=0.39 * US,
)

PCIE_GEN4_X8 = PCIE_GEN4_X16.scaled(8)
PCIE_GEN4_X4 = PCIE_GEN4_X16.scaled(4)

NVLINK2_X1 = LinkSpec(
    name="NVLink 2.0 x1",
    protocol=Protocol.NVLINK2,
    lanes=1,
    bandwidth=24.1 * GB,
    latency=0.55 * US,
)

NVLINK2_X2 = LinkSpec(
    name="NVLink 2.0 x2",
    protocol=Protocol.NVLINK2,
    lanes=2,
    bandwidth=48.2 * GB,
    latency=0.55 * US,
)

#: Falcon host port: 400 Gb/s CDFP cable + low-profile PCIe 4.0 x16 host
#: adapter.  The adapter crossing costs protocol conversion efficiency and
#: latency, which is why F-L bandwidth (19.64 GB/s) is below F-F (24.47).
CDFP_400G = LinkSpec(
    name="CDFP 400G host link",
    protocol=Protocol.CDFP,
    lanes=16,
    bandwidth=9.85 * GB,
    latency=0.22 * US,
    hop_penalty=0.15 * US,
)

ETH_10G = LinkSpec(
    name="10GbE",
    protocol=Protocol.ETHERNET,
    lanes=1,
    bandwidth=1.15 * GB,
    latency=8.0 * US,
)

SATA3 = LinkSpec(
    name="SATA 3",
    protocol=Protocol.SATA,
    lanes=1,
    bandwidth=0.55 * GB,
    latency=50.0 * US,
)

DDR4_CHANNEL = LinkSpec(
    name="DDR4-2666 channel",
    protocol=Protocol.MEMORY,
    lanes=1,
    bandwidth=21.3 * GB,
    latency=0.08 * US,
)


_link_ids = itertools.count()


class Link:
    """One physical link instance between two topology nodes.

    Links are full duplex: each direction has independent capacity and
    independent traffic counters.  Directions are identified by the
    endpoint names: traffic ``a -> b`` is egress at ``a`` and ingress at
    ``b``.
    """

    def __init__(self, spec: LinkSpec, a: str, b: str,
                 name: Optional[str] = None):
        if a == b:
            raise ValueError(f"link endpoints must differ, got {a!r} twice")
        self.spec = spec
        #: The spec the link was built with — what a full repair restores.
        self.original_spec = spec
        #: True while the link is hard-failed (cable pulled).
        self.failed = False
        self.a = a
        self.b = b
        self.id = next(_link_ids)
        self.name = name or f"{spec.name}[{a}<->{b}]"
        # Byte counters per direction, keyed by (src, dst).
        self.counters: dict[tuple[str, str], CounterMonitor] = {
            (a, b): CounterMonitor(f"{self.name}:{a}->{b}"),
            (b, a): CounterMonitor(f"{self.name}:{b}->{a}"),
        }

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)

    def other(self, node: str) -> str:
        """The endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of {self.name}")

    def direction(self, src: str, dst: str) -> tuple[str, str]:
        """Validate and normalize a (src, dst) direction key."""
        if (src, dst) not in self.counters:
            raise ValueError(
                f"({src!r}, {dst!r}) is not a direction of {self.name}")
        return (src, dst)

    def account(self, time: float, src: str, dst: str, nbytes: float) -> None:
        """Record ``nbytes`` transferred ``src -> dst`` at ``time``."""
        self.counters[self.direction(src, dst)].add(time, nbytes)

    def bytes_moved(self, src: str, dst: str) -> float:
        """Bytes moved in the given direction up to the counter's last
        breakpoint: the final total once no flow streams on it."""
        return self.counters[self.direction(src, dst)].total

    def mean_rate(self, src: str, dst: str, t0: float, t1: float) -> float:
        """Average bytes/s in the given direction over [t0, t1]."""
        return self.counters[self.direction(src, dst)].mean_rate(t0, t1)

    def register_metrics(self, registry, prefix: str) -> None:
        """Publish both directional byte counters into a registry.

        Names are ``{prefix}/{src}->{dst}`` — e.g.
        ``fabric/falcon0/H1/host0/rc->falcon0/drawer0/switch``.
        """
        for (src, dst), counter in self.counters.items():
            registry.attach(f"{prefix}/{src}->{dst}", counter)

    def retrain(self, spec: LinkSpec) -> None:
        """Replace the link's spec in place (lane degradation/recovery).

        PCIe links that accumulate correctable errors retrain at reduced
        width (x16 -> x8 -> x4); the fluid-flow scheduler picks the new
        capacity up at its next rate recomputation (see
        :meth:`~repro.fabric.flows.FlowScheduler.poke`).
        """
        self.spec = spec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Link {self.name}>"
