"""Deterministic fault injection against a live simulated system.

The :class:`FaultInjector` runs a :class:`~repro.chaos.scenario.
FaultScenario` as a simulation process: it sleeps to each event's time,
resolves the target to concrete fabric objects, applies the fault, and
records what it did in three places —

- an in-memory **trace** (``(time, action, target)`` tuples) that tests
  compare across seeded runs for determinism,
- the management **event log** (``fault_injected`` records) so recovery
  activity and its trigger appear in one audit stream,
- the chassis **BMC link-health counters** (a degraded link accumulates
  correctable errors, a pulled cable an uncorrectable one), mirroring
  how a real operator would first notice the fault.

Targets are resolved lazily at fire time, so a scenario can reference a
port or device by name before the experiment constructs it.
"""

from __future__ import annotations

from typing import Optional

from ..fabric.falcon import Falcon4016
from ..fabric.link import Link
from ..fabric.topology import DeviceFailure, Topology
from ..management.bmc import BMC
from ..management.events import EventLog
from ..sim import Environment
from .scenario import FaultEvent, FaultScenario

__all__ = ["FaultInjector", "InjectionError"]


class InjectionError(Exception):
    """A scenario event could not be resolved or applied."""


class FaultInjector:
    """Executes fault scenarios against topology + chassis + BMC."""

    def __init__(self, env: Environment, topology: Topology,
                 falcon: Optional[Falcon4016] = None,
                 event_log: Optional[EventLog] = None,
                 bmc: Optional[BMC] = None):
        self.env = env
        self.topology = topology
        self.falcon = falcon
        self.event_log = event_log
        self.bmc = bmc
        #: (time, action, target) tuples, in execution order.
        self.trace: list[tuple[float, str, str]] = []
        #: Links pulled per target, for reseat (node targets may pull
        #: several links at once).
        self._pulled: dict[str, list[Link]] = {}

    # -- scheduling --------------------------------------------------------
    def start(self, scenario: FaultScenario):
        """Launch the scenario as a background process (returns it)."""
        return self.env.process(self._run(scenario))

    def _run(self, scenario: FaultScenario):
        for event in scenario:
            delay = event.at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self.apply(event)

    # -- execution ---------------------------------------------------------
    def apply(self, event: FaultEvent) -> None:
        """Apply one fault event immediately."""
        handler = getattr(self, f"_do_{event.action}", None)
        if handler is None:  # pragma: no cover - ACTIONS is validated
            raise InjectionError(f"unhandled action {event.action!r}")
        handler(event)
        self.trace.append((self.env.now, event.action, event.target))
        if self.event_log is not None:
            self.event_log.record(self.env.now, "fault_injected",
                                  "chaos", action=event.action,
                                  target=event.target,
                                  **dict(event.params))

    # -- actions -----------------------------------------------------------
    def _do_degrade_link(self, event: FaultEvent) -> None:
        lanes = int(event.params.get("lanes", 8))
        for link in self._target_links(event.target):
            if link.failed:  # can't retrain a pulled cable
                continue
            self.topology.degrade_link(link, lanes)
            self._bmc_error(link, correctable=True)

    def _do_restore_link(self, event: FaultEvent) -> None:
        for link in self._pulled.pop(event.target, []):
            self.topology.restore_link(link)
        for link in self._target_links(event.target, allow_missing=True):
            if link.spec is not link.original_spec:
                self.topology.restore_link(link)

    def _do_reseat_cable(self, event: FaultEvent) -> None:
        self._do_restore_link(event)

    def _do_pull_cable(self, event: FaultEvent) -> None:
        # Pulling an already-pulled cable is a no-op, so overlapping
        # random events (pull during a flap's down window) stay legal.
        links = [l for l in self._target_links(event.target)
                 if not l.failed]
        for link in links:
            self.topology.fail_link(link)
            self._bmc_error(link, correctable=False)
        self._pulled.setdefault(event.target, []).extend(links)

    def _do_port_flap(self, event: FaultEvent) -> None:
        down = float(event.params.get("down", 1.0))
        self._do_pull_cable(event)
        self.env.process(self._flap_restore(event, down))

    def _flap_restore(self, event: FaultEvent, down: float):
        yield self.env.timeout(down)
        restore = FaultEvent(self.env.now, "restore_link", event.target)
        self.apply(restore)

    def _do_gpu_drop(self, event: FaultEvent) -> None:
        node = self._node_of(event.target)
        cause = DeviceFailure(node)
        links = self.topology.links_of(node)
        if not links:
            if event.target in self._pulled:  # already isolated
                return
            raise InjectionError(f"{node!r} has no links to fail")
        for link in links:
            self.topology.fail_link(link, cause=cause)
            self._bmc_error(link, correctable=False)
        self._pulled.setdefault(event.target, []).extend(links)

    # -- target resolution ----------------------------------------------------
    def _target_links(self, target: str,
                      allow_missing: bool = False) -> list[Link]:
        kind, _, name = target.partition(":")
        if kind == "port":
            return [self._port_link(name)]
        if kind == "node":
            links = self.topology.links_of(name)
            if not links and not allow_missing:
                raise InjectionError(f"node {name!r} has no links")
            return links
        raise InjectionError(
            f"unknown target kind {kind!r} in {target!r}")

    def _node_of(self, target: str) -> str:
        kind, _, name = target.partition(":")
        if kind != "node":
            raise InjectionError(
                f"action needs a node: target, got {target!r}")
        if not self.topology.has_node(name):
            raise InjectionError(f"unknown node {name!r}")
        return name

    def _port_link(self, port: str) -> Link:
        if self.falcon is None:
            raise InjectionError(
                "port targets need a Falcon chassis wired in")
        mapping = self.falcon.port_map.get(port)
        if mapping is None:
            raise InjectionError(f"port {port!r} is not cabled")
        host_id, drawer_index = mapping
        drawer = self.falcon.drawers[drawer_index]
        for entry_port, link, _partition in drawer.hosts.get(host_id, []):
            if entry_port == port:
                return link
        raise InjectionError(  # pragma: no cover - port_map kept in sync
            f"port {port!r} has no link record")

    # -- BMC wiring ---------------------------------------------------------
    def _bmc_error(self, link: Link, correctable: bool) -> None:
        if self.bmc is None:
            return
        if link.name not in self.bmc.links:
            self.bmc.track_link(link.name)
        self.bmc.record_link_error(link.name, correctable=correctable)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultInjector events={len(self.trace)}>"
