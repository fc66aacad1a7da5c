"""Storage device models (NVMe SSDs and legacy local storage).

A storage device occupies *two* topology nodes: the PCIe/SATA endpoint
(``name``) and an internal media node (``name/media``) joined by a link
whose bandwidth equals the drive's sustained sequential throughput.  Reads
therefore stream ``media -> endpoint -> ... -> host DRAM`` through the
fluid-flow fabric, so the drive's media rate, its bus link, and any
switch/host-port contention (Falcon-attached NVMe, paper §V-C.3) all
bottleneck the transfer naturally.

The ``SSDPEDKX040T7`` constant models the paper's Intel DC P4500 4 TB
NVMe drive; ``LOCAL_SCRATCH`` models the baseline "local storage" of the
``localGPUs`` configuration (SATA-class scratch disk).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import CounterMonitor, Environment, Process, Resource
from ..fabric.link import GB, LinkSpec, Protocol, US
from ..fabric.topology import Topology
from ..telemetry.trace import NULL_TRACER, Category

__all__ = ["StorageDevice", "StorageSpec", "SSDPEDKX040T7", "LOCAL_SCRATCH"]

#: One terabyte.
TB = 1e12


@dataclass(frozen=True)
class StorageSpec:
    """Static drive characteristics (sustained sequential figures)."""

    name: str
    capacity_bytes: float
    read_bandwidth: float       # bytes/s sustained sequential read
    write_bandwidth: float      # bytes/s sustained sequential write
    read_latency: float         # seconds per I/O
    write_latency: float        # seconds per I/O
    queue_depth: int = 32


#: Intel SSD DC P4500 4 TB (the paper's SSDPEDKX040T7).
SSDPEDKX040T7 = StorageSpec(
    name="Intel SSDPEDKX040T7 4TB NVMe",
    capacity_bytes=4 * TB,
    read_bandwidth=3.29 * GB,
    write_bandwidth=1.89 * GB,
    read_latency=85 * US,
    write_latency=20 * US,
)

#: Baseline "local storage" (SATA-class scratch volume).
LOCAL_SCRATCH = StorageSpec(
    name="Local SATA scratch",
    capacity_bytes=2 * TB,
    read_bandwidth=0.52 * GB,
    write_bandwidth=0.48 * GB,
    read_latency=180 * US,
    write_latency=60 * US,
    queue_depth=8,
)


class StorageDevice:
    """A simulated drive registered on the fabric.

    Use :meth:`read_to`/:meth:`write_from` for data that crosses the
    fabric (dataset batches, checkpoints); both return process events.
    """

    def __init__(self, env: Environment, topology: Topology, name: str,
                 spec: StorageSpec = SSDPEDKX040T7):
        self.env = env
        self.topology = topology
        self.name = name
        self.spec = spec
        self.media_node = f"{name}/media"
        # The endpoint must be transit-enabled so flows can pass from the
        # media node out to the fabric (and only there: the media node is
        # a leaf, so no foreign routes can cut through).
        topology.add_node(name, kind="storage", transit=True)
        topology.add_node(self.media_node, kind="storage-media")
        media_spec = LinkSpec(
            name=f"{spec.name} media channel",
            protocol=Protocol.MEMORY,
            lanes=1,
            # The media link carries reads and writes in opposite
            # directions; size each direction to its sustained rate.
            bandwidth=spec.read_bandwidth,
            latency=0.0,
        )
        self.media_link = topology.add_link(media_spec, self.media_node, name)
        #: Outstanding-command limit (queue depth).
        self.commands = Resource(env, capacity=spec.queue_depth)
        self.bytes_read = CounterMonitor(f"{name}:read")
        self.bytes_written = CounterMonitor(f"{name}:written")

    def read_to(self, destination: str, nbytes: float) -> Process:
        """Stream ``nbytes`` from the media to ``destination`` node."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.env.process(self._io(self.media_node, destination,
                                         nbytes, self.spec.read_latency,
                                         self.bytes_read, kind="read"))

    def write_from(self, source: str, nbytes: float) -> Process:
        """Stream ``nbytes`` from ``source`` node onto the media.

        Write bandwidth below read bandwidth is modelled by inflating the
        streamed bytes on the media link by the read/write ratio.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        inflation = self.spec.read_bandwidth / self.spec.write_bandwidth
        return self.env.process(self._io(source, self.media_node,
                                         nbytes * inflation,
                                         self.spec.write_latency,
                                         self.bytes_written,
                                         logical_bytes=nbytes,
                                         kind="write"))

    def _io(self, src: str, dst: str, nbytes: float, latency: float,
            counter: CounterMonitor, logical_bytes: float = -1.0,
            kind: str = "io"):
        tracer = self.topology.tracer
        if tracer is None:
            tracer = NULL_TRACER
        track = tracer.lane("storage", self.name)
        span = tracer.span(kind, Category.STORAGE, track, device=self.name,
                           bytes=logical_bytes if logical_bytes >= 0
                           else nbytes)
        try:
            with self.commands.request() as slot:
                queue_wait = tracer.span("queue-wait", Category.STALL,
                                         track)
                yield slot
                queue_wait.close()
                yield self.env.timeout(latency)
                yield self.topology.transfer(src, dst, nbytes)
                counter.add(self.env.now,
                            logical_bytes if logical_bytes >= 0 else nbytes)
        finally:
            span.close()
            tracer.release_lane(track)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StorageDevice {self.name} ({self.spec.name})>"
