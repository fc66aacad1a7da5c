"""Fabric topology: nodes, links, routing, and transfers.

A :class:`Topology` is an undirected multigraph of named nodes connected
by :class:`~repro.fabric.link.Link` instances.  Nodes carry a *kind* (GPU,
switch, root complex, ...) and a *transit* flag: data may only be routed
*through* transit nodes (switches, root complexes, host adapters), never
through endpoint devices — e.g. two NVLink-non-adjacent GPUs fall back to
the PCIe path through the root complex exactly as real GPUDirect P2P does.

Routing is latency-weighted Dijkstra with hop-count tie-breaking, cached
and invalidated whenever the topology changes (devices can be attached and
detached at runtime — the composability feature under study).

:meth:`Topology.transfer` (or :meth:`Topology.transfer_route`, for a
route already looked up) is the entry point for data movement: it pays
the path's fixed latency, then streams bytes through the
:class:`~repro.fabric.flows.FlowScheduler`, which accounts traffic on each
link's directional counters.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from ..sim import Environment, Event
from .flows import FlowScheduler, Segment
from .link import Link, LinkSpec, US

__all__ = ["Topology", "Node", "Route", "NoRouteError", "LinkFailure",
           "DeviceFailure"]

#: Fixed software/DMA initiation overhead per transfer, seconds.  Combined
#: with per-link latencies this reproduces Table IV's P2P write latencies.
DEFAULT_TRANSFER_OVERHEAD = 1.30 * US


class NoRouteError(KeyError):
    """No path exists between the requested endpoints.

    Subclasses :class:`KeyError` so callers that historically caught the
    routing layer's ``KeyError`` for unknown endpoints keep working; new
    code should catch ``NoRouteError`` for both the unknown-node and the
    failed-link case.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class LinkFailure(Exception):
    """An in-flight transfer was aborted by a link failure."""

    def __init__(self, link_name: str):
        super().__init__(f"link {link_name} failed")
        self.link_name = link_name


class DeviceFailure(Exception):
    """A fabric endpoint device (GPU, NVMe, NIC) dropped off the fabric."""

    def __init__(self, device: str):
        super().__init__(f"device {device} failed")
        self.device = device


@dataclass
class Node:
    """A topology node.

    Attributes
    ----------
    name:
        Unique node name, e.g. ``"host0/gpu3"``.
    kind:
        Free-form kind tag (``"gpu"``, ``"switch"``, ``"rc"``, ``"nvme"``...).
    transit:
        Whether routes may pass *through* this node.
    """

    name: str
    kind: str = "device"
    transit: bool = False


@dataclass(frozen=True)
class Route:
    """A resolved path: ordered directed segments plus fixed latency."""

    segments: tuple[Segment, ...]
    latency: float

    @property
    def hops(self) -> int:
        return len(self.segments)

    @property
    def bandwidth(self) -> float:
        """Uncontended bottleneck bandwidth of the path (bytes/s/dir)."""
        if not self.segments:
            return float("inf")
        return min(seg.capacity for seg in self.segments)

    @property
    def nodes(self) -> tuple[str, ...]:
        if not self.segments:
            return ()
        return (self.segments[0].src,) + tuple(
            seg.dst for seg in self.segments)


class Topology:
    """Mutable fabric graph with routing and fluid transfers."""

    def __init__(self, env: Environment,
                 transfer_overhead: float = DEFAULT_TRANSFER_OVERHEAD):
        self.env = env
        self.scheduler = FlowScheduler(env)
        self.transfer_overhead = transfer_overhead
        #: Optional :class:`repro.telemetry.Tracer`; when set, every
        #: transfer records a span (and storage/collective layers pick the
        #: tracer up from here).  Duck-typed to avoid an import cycle.
        self.tracer = None
        self._nodes: dict[str, Node] = {}
        self._adjacency: dict[str, list[Link]] = {}
        self._route_cache: dict[tuple[str, str], Route] = {}
        self._failed_links: set[Link] = set()

    # -- construction ----------------------------------------------------
    def add_node(self, name: str, kind: str = "device",
                 transit: bool = False) -> Node:
        """Add a node; name must be unique."""
        if name in self._nodes:
            raise ValueError(f"node {name!r} already exists")
        node = Node(name, kind, transit)
        self._nodes[name] = node
        self._adjacency[name] = []
        self._route_cache.clear()
        return node

    def add_link(self, spec: LinkSpec, a: str, b: str,
                 name: Optional[str] = None) -> Link:
        """Connect nodes ``a`` and ``b`` with a new link of ``spec``."""
        for endpoint in (a, b):
            if endpoint not in self._nodes:
                raise KeyError(f"unknown node {endpoint!r}")
        link = Link(spec, a, b, name)
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)
        self._route_cache.clear()
        return link

    def remove_link(self, link: Link) -> None:
        """Disconnect a link (device detach)."""
        try:
            self._adjacency[link.a].remove(link)
            self._adjacency[link.b].remove(link)
        except (KeyError, ValueError):
            raise ValueError(f"{link!r} is not part of this topology")
        self._failed_links.discard(link)
        self._route_cache.clear()

    # -- fault injection ---------------------------------------------------
    def degrade_link(self, link: Link, lanes: int) -> None:
        """Retrain a link at reduced width (PCIe lane failure).

        In-flight flows adopt the reduced bandwidth immediately.
        """
        link.retrain(link.spec.scaled(lanes))
        self._route_cache.clear()
        self.scheduler.poke(link)

    def restore_link(self, link: Link,
                     spec: Optional[LinkSpec] = None) -> None:
        """Bring a link back to health.

        For a degraded link this retrains it (to ``spec``, or to the spec
        it was built with).  For a hard-failed link (:meth:`fail_link`)
        this *re-seats* it: the link rejoins the graph and routing through
        it works again — the symmetric inverse of a cable pull.
        """
        if link in self._failed_links:
            for endpoint in (link.a, link.b):
                if endpoint not in self._nodes:
                    raise ValueError(
                        f"cannot re-seat {link.name}: node {endpoint!r} "
                        "no longer exists")
            self._adjacency[link.a].append(link)
            self._adjacency[link.b].append(link)
            self._failed_links.discard(link)
            link.failed = False
        link.retrain(spec or link.original_spec)
        self._route_cache.clear()
        self.scheduler.poke(link)

    def fail_link(self, link: Link,
                  cause: Optional[Exception] = None) -> int:
        """Hard-fail a link (cable pull): aborts in-flight transfers with
        ``cause`` (default :class:`LinkFailure`) and detaches the link
        from the graph; :meth:`restore_link` can re-seat it.
        Returns the number of transfers aborted."""
        killed = self.scheduler.kill_flows_on(
            link, cause or LinkFailure(link.name))
        self.remove_link(link)
        link.failed = True
        self._failed_links.add(link)
        return killed

    def failed_links(self) -> list[Link]:
        """Links that were hard-failed and not yet re-seated."""
        return list(self._failed_links)

    # -- inspection -------------------------------------------------------
    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        return self._nodes[name]

    def links_of(self, name: str) -> list[Link]:
        return list(self._adjacency[name])

    def links(self) -> list[Link]:
        seen: dict[int, Link] = {}
        for links in self._adjacency.values():
            for link in links:
                seen[link.id] = link
        return list(seen.values())

    def neighbors(self, name: str) -> list[str]:
        return [link.other(name) for link in self._adjacency[name]]

    # -- routing ----------------------------------------------------------
    def route(self, src: str, dst: str) -> Route:
        """Lowest-latency path from ``src`` to ``dst`` (cached).

        Raises :class:`NoRouteError` both when no path exists (e.g. it
        would cross a failed link) and when an endpoint is unknown (e.g.
        the device dropped off the fabric entirely).
        """
        if src not in self._nodes:
            raise NoRouteError(f"unknown node {src!r}")
        if dst not in self._nodes:
            raise NoRouteError(f"unknown node {dst!r}")
        if src == dst:
            return Route((), 0.0)
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        route = self._dijkstra(src, dst)
        self._route_cache[(src, dst)] = route
        return route

    def _dijkstra(self, src: str, dst: str) -> Route:
        # Cost = (latency, hops); routes may only transit through
        # transit-enabled nodes, except for the endpoints themselves.
        dist: dict[str, tuple[float, int]] = {src: (0.0, 0)}
        parent: dict[str, tuple[str, Link]] = {}
        heap: list[tuple[float, int, str]] = [(0.0, 0, src)]
        visited: set[str] = set()
        while heap:
            latency, hops, here = heapq.heappop(heap)
            if here in visited:
                continue
            visited.add(here)
            if here == dst:
                break
            if here != src and not self._nodes[here].transit:
                continue  # cannot route through an endpoint device
            for link in self._adjacency[here]:
                there = link.other(here)
                cost = (latency + link.spec.latency + link.spec.hop_penalty,
                        hops + 1)
                if there not in dist or cost < dist[there]:
                    dist[there] = cost
                    parent[there] = (here, link)
                    heapq.heappush(heap, (cost[0], cost[1], there))
        if dst not in parent:
            raise NoRouteError(f"no route from {src!r} to {dst!r}")
        # Reconstruct.
        segments: list[Segment] = []
        node = dst
        while node != src:
            prev, link = parent[node]
            segments.append(Segment(link, prev, node))
            node = prev
        segments.reverse()
        latency = sum(s.link.spec.latency + s.link.spec.hop_penalty
                      for s in segments)
        return Route(tuple(segments), latency)

    def reachable(self, src: str, dst: str) -> bool:
        """Whether any route currently exists between two nodes."""
        try:
            self.route(src, dst)
        except NoRouteError:
            return False
        return True

    def path_latency(self, src: str, dst: str) -> float:
        """One-way fixed latency including transfer overhead, seconds."""
        return self.transfer_overhead + self.route(src, dst).latency

    def path_bandwidth(self, src: str, dst: str) -> float:
        """Uncontended bottleneck bandwidth, bytes/s per direction."""
        return self.route(src, dst).bandwidth

    # -- data movement ------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float,
                 label: str = "") -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``; returns the flow's
        done event, not a process (see :meth:`transfer_route`).  Its
        value is the byte count, not the route taken.

        Raises :class:`NoRouteError` at once when no route exists.
        """
        return self.transfer_route(self.route(src, dst), nbytes, label)

    def transfer_route(self, route: Route, nbytes: float,
                       label: str = "") -> Event:
        """Move ``nbytes`` over ``route``; returns the flow's done event.

        The route's fixed latency (plus :attr:`transfer_overhead`) is a
        timeout armed now; when it fires, the bytes stream through the
        :class:`~repro.fabric.flows.FlowScheduler` on the returned
        event, which fires when the last byte is delivered (value: the
        byte count) or fails with the cause of a link failure.  That is
        two kernel events per transfer, traced or not.
        """
        env = self.env
        done = Event(env)
        delay = self.transfer_overhead + route.latency
        timer = env.timeout(delay)
        tracer = self.tracer
        if tracer is not None:
            self._trace(route, nbytes, label, done, env.now + delay)
        timer.callbacks.append(
            lambda _timer: self._stream(route, nbytes, label, done))
        return done

    def _stream(self, route: Route, nbytes: float, label: str,
                done: Event) -> None:
        """The latency has passed: stream the bytes on ``done``."""
        if nbytes > 0 and route.segments:
            self.scheduler.start_flow(route.segments, nbytes, label, done)
        else:
            done.succeed(nbytes)

    def _trace(self, route: Route, nbytes: float, label: str, done: Event,
               stream_t0: float) -> None:
        """Open one span per transfer on a pooled "fabric" lane and close
        it when ``done`` fires.  The stall attribute is the contention
        penalty: streaming time from ``stream_t0`` (the latency timer's
        time) beyond what the uncontended bottleneck bandwidth would
        take."""
        from ..telemetry.trace import Category
        tracer = self.tracer
        nodes = route.nodes
        track = tracer.lane("fabric")
        span = tracer.span(label or "transfer", Category.FABRIC, track,
                           bytes=nbytes,
                           src=nodes[0] if nodes else "",
                           dst=nodes[-1] if nodes else "")

        def close(event: Event) -> None:
            if event._ok:
                ideal = nbytes / route.bandwidth if route.segments else 0.0
                span.close(stall_s=max(0.0, (self.env.now - stream_t0)
                                       - ideal))
            else:
                span.close()
            tracer.release_lane(track)

        done.callbacks.append(close)
