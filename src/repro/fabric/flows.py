"""Fluid flow model with max-min fair bandwidth sharing.

Data movement in the composable system is modelled as *fluid flows*: a
transfer of ``nbytes`` over a sequence of directed link segments streams
at a rate determined by max-min fair sharing of every link direction it
crosses (progressive filling / water-filling).  Whenever the set of active
flows changes, affected rates are recomputed and the next completion is
rescheduled — the classic event-driven fluid simulation used by
flow-level network simulators.

That timeline is written once, as the clock-agnostic
:class:`FluidTimeline`, and runs on two clocks: :class:`FlowScheduler`
runs it on the event loop (``env.timeout`` timers, ``Event``
completions, link traffic accounting), and the fast-path plan engine
(:mod:`repro.plan.fastpath`) runs it from its own event heap without
touching the fabric.  Both stream at the same recompute points with the
same floats.

Rate assignment is **incremental** (:class:`~repro.fabric.maxmin.
MaxMinSolver`): a flow add/remove/kill or a capacity change re-solves
only the affected connected component of the contention graph, so a
fleet of independent jobs sharing one scheduler stays O(component), not
O(all flows), per event.  The batch water-filler
(:func:`~repro.fabric.maxmin.water_fill`) is kept as the reference
oracle: call :meth:`FlowScheduler.assert_rates_equivalent` to
cross-check the incremental state at 1e-9.

This captures the two congestion phenomena the paper observes:

- multiple GPUs funnelling through one Falcon host port share its
  bandwidth fairly, and
- p2p traffic inside a drawer does not contend with host-port traffic
  (separate links).

The scheduler's timeline pushes per-segment byte accounting into each
link's directional counters on every update, so port ingress/egress
rate series (paper Fig. 12) are exact for piecewise-constant rates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..sim import Environment, Event
from .link import Link
from .maxmin import MaxMinSolver

__all__ = ["FlowScheduler", "FluidTimeline", "Flow", "Segment"]

#: Bytes below which a flow is considered drained (guards float error).
_EPSILON_BYTES = 1e-6
#: Remaining stream time below which a flow is force-completed.  Without
#: this, float rounding can leave a residual whose completion horizon is
#: smaller than the clock's ulp, so simulated time stops advancing and the
#: scheduler would spin forever.
_EPSILON_SECONDS = 1e-9


@dataclass(frozen=True)
class Segment:
    """One directed hop of a flow: ``src -> dst`` over ``link``."""

    link: Link
    src: str
    dst: str
    #: Hashable identity of the directed capacity this segment uses.
    #: Precomputed: the rate solver touches it millions of times.
    key: tuple = None          # type: ignore[assignment]
    #: The directional byte counter (cached for the accounting hot path).
    counter: object = None     # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.link.direction(self.src, self.dst)  # validates
        object.__setattr__(self, "key",
                           (self.link.id, self.src, self.dst))
        object.__setattr__(self, "counter",
                           self.link.counters[(self.src, self.dst)])

    @property
    def capacity(self) -> float:
        """Current per-direction bandwidth (reads the live link spec, so
        lane retraining applies to in-flight flows)."""
        return self.link.spec.bandwidth


def _link_keys(link: Link) -> tuple[tuple, tuple]:
    """Both directed-capacity keys of a link (the solver's index keys)."""
    return ((link.id, link.a, link.b), (link.id, link.b, link.a))


class Flow:
    """An active transfer streaming over a set of directed segments.

    ``done`` is the completion handle of the timeline's owner: an
    ``Event`` or a heap callback.
    """

    __slots__ = ("id", "segments", "nbytes", "remaining", "rate", "done",
                 "label")

    def __init__(self, flow_id: int, segments: Sequence[Segment],
                 nbytes: float, done, label: str = ""):
        self.id = flow_id
        self.segments = tuple(segments)
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.done = done
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Flow {self.id} {self.label!r} "
                f"{self.remaining:.0f}/{self.nbytes:.0f}B @ {self.rate:.3g}B/s>")


class FluidTimeline:
    """Active flows, their fair rates and drain horizons, clock-agnostic.

    Its owner keeps the clock and the timer.  After :meth:`add`, and
    when a timer that is still :meth:`current` fires (after
    :meth:`advance`), it completes the flows :meth:`recompute` returns
    and arms a timer for :meth:`horizon`.  ``account=True`` pushes
    delivered bytes into the segments' link counters (Fig. 12 traffic).
    """

    def __init__(self, now: float = 0.0, account: bool = False):
        #: Active flows by id, in arrival order.
        self.flows: dict[int, Flow] = {}
        #: The incremental max-min solver rating :attr:`flows`.
        self.solver = MaxMinSolver()
        self._ids = itertools.count()
        self._account = account
        self._last_update = now
        self._generation = 0

    def add(self, segments: Sequence[Segment], nbytes: float, done,
            now: float, label: str = "") -> Optional[Flow]:
        """Start streaming ``nbytes`` over ``segments`` at ``now``.

        ``None`` means nothing to stream (no segments, or bytes within
        epsilon): the caller completes the transfer at once.
        """
        if nbytes <= _EPSILON_BYTES or not segments:
            if self._account:
                for seg in segments:
                    seg.counter.add(now, nbytes)
            return None
        flow = Flow(next(self._ids), segments, nbytes, done, label)
        self.advance(now)
        self.flows[flow.id] = flow
        self.solver.add(flow)
        return flow

    def remove(self, flow: Flow) -> None:
        """Withdraw an active flow without draining it (a killed one)."""
        del self.flows[flow.id]
        self.solver.remove(flow)

    def advance(self, now: float) -> None:
        """Deliver the bytes each flow streamed since the last update."""
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        account = self._account
        for flow in self.flows.values():
            delivered = min(flow.remaining, flow.rate * dt)
            if delivered > 0:
                flow.remaining -= delivered
                if account:
                    for seg in flow.segments:
                        seg.counter.add(now, delivered)

    def recompute(self) -> list[Flow]:
        """Retire drained flows (bytes, or horizon at a positive rate,
        within epsilon, under the pre-solve rates), then re-rate the
        affected components.  Returns the drained flows in arrival order.
        """
        drained = [flow for flow in self.flows.values()
                   if flow.remaining <= _EPSILON_BYTES
                   or (flow.rate > 0
                       and flow.remaining / flow.rate <= _EPSILON_SECONDS)]
        now = self._last_update
        for flow in drained:
            self.remove(flow)
            if self._account and flow.remaining > 0:
                # Account the float-rounding residual so byte
                # conservation holds exactly on the link counters.
                for seg in flow.segments:
                    seg.counter.add(now, flow.remaining)
                flow.remaining = 0.0
        self.solver.solve()
        return drained

    def horizon(self) -> Optional[tuple[int, float]]:
        """``(generation, seconds to the next drain)``, superseding every
        earlier timer; ``None`` when no flow is active."""
        self._generation += 1
        if not self.flows:
            return None
        return self._generation, min(
            f.remaining / f.rate for f in self.flows.values() if f.rate > 0)

    def current(self, generation: int) -> bool:
        """Whether the timer armed as ``generation`` is still the latest."""
        return generation == self._generation


class FlowScheduler:
    """Runs a traffic-accounting :class:`FluidTimeline` on the event loop.

    Usage::

        done = scheduler.start_flow(segments, nbytes)
        yield done          # fires when the last byte is delivered
    """

    def __init__(self, env: Environment):
        self.env = env
        self._timeline = FluidTimeline(env.now, account=True)
        #: Completed flow count (introspection / tests).
        self.completed = 0

    @property
    def active_flows(self) -> list[Flow]:
        return list(self._timeline.flows.values())

    def poke(self, link: Optional[Link] = None) -> None:
        """Force an immediate rate recomputation.

        Call after mutating link capacities (retrain/degradation) so
        in-flight flows adopt the new rates without waiting for the next
        natural arrival/completion event.  Passing the changed ``link``
        confines the re-solve to its contention component; with no
        argument every component is re-solved (unknown change).
        """
        self._timeline.advance(self.env.now)
        if link is None:
            self._timeline.solver.touch_all()
        else:
            self._timeline.solver.touch(*_link_keys(link))
        self._settle()

    def kill_flows_on(self, link: Link, cause: Exception) -> int:
        """Fail every in-flight flow crossing ``link`` (cable pull).

        Each affected flow's done event fails with ``cause``; waiting
        processes see the exception at their ``yield``.  Returns the
        number of flows killed.  Victims come from the per-link flow
        index — O(victims), not O(flows x segments).
        """
        self._timeline.advance(self.env.now)
        victims = sorted(self._timeline.solver.flows_on(*_link_keys(link)),
                         key=lambda flow: flow.id)
        for flow in victims:
            self._timeline.remove(flow)
            flow.done.fail(cause)
        if victims:
            self._settle()
        return len(victims)

    def start_flow(self, segments: Iterable[Segment], nbytes: float,
                   label: str = "") -> Event:
        """Begin streaming ``nbytes`` over ``segments``; returns done event.

        A zero-byte or zero-segment flow completes immediately (the caller
        is responsible for any fixed latency; see ``Topology.transfer``).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        done = self.env.event()
        if self._timeline.add(tuple(segments), nbytes, done, self.env.now,
                              label) is None:
            done.succeed(nbytes)
            self.completed += 1
        else:
            self._settle()
        return done

    # -- equivalence oracle ------------------------------------------------
    def assert_rates_equivalent(self, rtol: float = 1e-9) -> None:
        """Cross-check current rates against batch water-filling."""
        self._timeline.solver.assert_equivalent(rtol)

    # -- internals -------------------------------------------------------
    def _settle(self) -> None:
        """Complete drained flows, then arm the timer for the next drain."""
        for flow in self._timeline.recompute():
            self.completed += 1
            flow.done.succeed(flow.nbytes)
        timer = self._timeline.horizon()
        if timer is not None:
            generation, seconds = timer
            self.env.timeout(seconds).callbacks.append(
                lambda _evt: self._on_timer(generation))

    def _on_timer(self, generation: int) -> None:
        if self._timeline.current(generation):
            self._timeline.advance(self.env.now)
            self._settle()
