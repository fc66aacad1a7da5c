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
touching the fabric.  Both stream at the same points with the same
floats.

Rates are solved once per simulated instant.  Every event that adds,
kills or retrains retires the drained flows at once, judged under the
rates in force before the instant (:meth:`FluidTimeline.retire`); the
solve, the re-anchor and the next drain timer follow once, after the
instant's last event (:meth:`FluidTimeline.resolve`): on the event loop
at the lowest priority, :attr:`~repro.sim.Environment.LAST`, and on the
fast path at the end of the instant's heap entries.  A rate set
between two events of one instant would last no time, so nothing is
solved for it.  The drain timer takes the queue slot (event id, heap
sequence number) of the instant's last retire, so it orders among
same-time events as a timer armed at that retire would.  A reader that
needs the rates in the middle of an instant solves first, as
:meth:`FlowScheduler.assert_rates_equivalent` does.

Rate assignment is **incremental** (:class:`~repro.fabric.maxmin.
MaxMinSolver`): a flow add/remove/kill or a capacity change re-solves
only the affected connected component of the contention graph, so a
fleet of independent jobs sharing one scheduler stays O(component), not
O(all flows), per instant.  The batch water-filler
(:func:`~repro.fabric.maxmin.water_fill`) is kept as the reference
oracle: call :meth:`FlowScheduler.assert_rates_equivalent` to
cross-check the incremental state at 1e-9.

This captures the two congestion phenomena the paper observes:

- multiple GPUs funnelling through one Falcon host port share its
  bandwidth fairly, and
- p2p traffic inside a drawer does not contend with host-port traffic
  (separate links).

The work per event follows the rate changes, not the live flows.  A
flow keeps ``(remaining, t0)`` and is re-anchored only when a solve
moves its rate; its drain time then goes onto one heap, whose stale
entries are dropped lazily.  The scheduler's timeline streams each flow
into its segments' directional link counters as a slope: a counter
(piecewise-linear, :class:`~repro.sim.CounterMonitor`) gains a
breakpoint only when the aggregate rate on its direction changes, and
its readers extrapolate along the live rate, so port ingress/egress
rate series (paper Fig. 12) are exact for piecewise-constant rates,
mid-run too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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
#: Below this rate the bytes rule can drain a flow more than
#: ``_EPSILON_SECONDS`` ahead of its drain time, so such slow flows are
#: checked at every retire rather than only from the heap.
_SLOW_RATE = _EPSILON_BYTES / _EPSILON_SECONDS
#: Heap entries due within this of now are checked against the drain
#: rule: ``_EPSILON_SECONDS`` plus room for the rounding of
#: ``t0 + remaining / rate``.
_HEAP_WINDOW = 2 * _EPSILON_SECONDS
#: Stale drain-heap entries tolerated per live flow (plus
#: ``_HEAP_FLOOR``) before the heap is compacted.
_HEAP_SLACK = 2
_HEAP_FLOOR = 64


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

    ``remaining`` is the byte count left at time ``t0``; between rate
    changes the flow streams at ``rate`` without being touched, and
    :meth:`remaining_at` reads it at any later time.  ``done`` is the
    completion handle of the timeline's owner: an ``Event`` or a heap
    callback.
    """

    __slots__ = ("id", "segments", "nbytes", "remaining", "t0", "rate",
                 "stamp", "done", "label")

    def __init__(self, flow_id: int, segments: Sequence[Segment],
                 nbytes: float, done, t0: float, label: str = ""):
        self.id = flow_id
        self.segments = tuple(segments)
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.t0 = t0
        self.rate = 0.0
        #: Bumped at every re-anchor; older drain-heap entries are stale.
        self.stamp = 0
        self.done = done
        self.label = label

    def remaining_at(self, now: float) -> float:
        """Bytes left at ``now`` under the current rate."""
        return self.remaining - self.rate * (now - self.t0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Flow {self.id} {self.label!r} "
                f"{self.remaining:.0f}/{self.nbytes:.0f}B@{self.t0:.6g}s "
                f"@ {self.rate:.3g}B/s>")


def _drained(flow: Flow, now: float) -> bool:
    """The drain rule: within ``_EPSILON_BYTES`` of empty, or within
    ``_EPSILON_SECONDS`` of it at a positive rate."""
    remaining = flow.remaining_at(now)
    return (remaining <= _EPSILON_BYTES
            or (flow.rate > 0
                and remaining / flow.rate <= _EPSILON_SECONDS))


class FluidTimeline:
    """Active flows, their fair rates and drain horizons, clock-agnostic.

    Its owner keeps the clock and the timer.  After :meth:`add`, a
    kill or a capacity change, and when a timer that is still
    :meth:`current` fires (after :meth:`advance`), it completes the
    flows :meth:`retire` returns.  Once per instant, after the last
    event at it, it calls :meth:`resolve` and arms the timer that
    returns.  ``account=True`` streams delivered bytes into the
    segments' link counters (Fig. 12 traffic).

    The work per event is proportional to the flows whose rate changes,
    not to the live flows: a flow is re-anchored (``remaining`` and
    ``t0`` brought up to the present) only when the solver moves its
    rate, its drain time then goes onto one heap, and each link counter
    it crosses changes slope.  Heap entries of re-anchored or finished
    flows go stale and are dropped when they surface, or all at once
    when they outnumber the live flows ``_HEAP_SLACK`` to one.
    """

    def __init__(self, now: float = 0.0, account: bool = False):
        #: Active flows by id, in arrival order.
        self.flows: dict[int, Flow] = {}
        #: The incremental max-min solver rating :attr:`flows`.
        self.solver = MaxMinSolver()
        self._ids = itertools.count()
        self._account = account
        self._now = now
        self._generation = 0
        #: ``(drain time, flow id, stamp)`` of the streaming flows.
        self._drains: list = []
        #: Live flows below ``_SLOW_RATE``, checked at every retire.
        self._slow: dict[int, Flow] = {}

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
        flow = Flow(next(self._ids), segments, nbytes, done, now, label)
        self.advance(now)
        self.flows[flow.id] = flow
        self.solver.add(flow)
        return flow

    def remove(self, flow: Flow) -> None:
        """Withdraw an active flow without draining it (a killed one)."""
        del self.flows[flow.id]
        self.solver.remove(flow)
        self._slow.pop(flow.id, None)
        if self._account:
            # A counter with no live flow left goes back to exactly 0.0.
            now = self._now
            for seg in flow.segments:
                counter = seg.counter
                rate = (counter.rate - flow.rate
                        if self.solver.crosses(seg.key) else 0.0)
                counter.set_rate(now, rate if rate > 0.0 else 0.0)

    def advance(self, now: float) -> None:
        """Move the clock to ``now``; flows stream implicitly."""
        self._now = now

    def retire(self) -> list[Flow]:
        """Retire the drained flows (bytes, or horizon at a positive
        rate, within epsilon, under the rates of the last
        :meth:`resolve`).  Returns them in arrival order.  Supersedes
        every armed timer.
        """
        self._generation += 1
        now = self._now
        drained = self._take_drained(now)
        for flow in drained:
            residual = flow.remaining_at(now)
            self.remove(flow)
            if self._account and residual > 0:
                # Account the bytes left by an early drain.  A negative
                # residual (a timer an ulp late) is not taken back, so
                # byte conservation on the counters holds to float
                # rounding.
                for seg in flow.segments:
                    seg.counter.add(now, residual)
        return drained

    def resolve(self) -> Optional[tuple[int, float]]:
        """Re-rate the affected components and re-anchor the flows whose
        rate moved.  Returns the timer for the next drain, ``(generation,
        seconds)``, current until the next :meth:`retire`; ``None`` when
        no flow is streaming.
        """
        now = self._now
        changed: list = []
        self.solver.solve(changed)
        if changed:
            self._reanchor(changed, now)
        heap = self._drains
        while heap:
            if self._live(heap[0]):
                return self._generation, heap[0][0] - now
            heappop(heap)
        return None

    def _take_drained(self, now: float) -> list[Flow]:
        """Pop the drained flows off the heap, in arrival order.

        A flow at or above ``_SLOW_RATE`` that the rule drains is due
        within ``_EPSILON_SECONDS`` (plus rounding), so only heap entries
        inside ``_HEAP_WINDOW`` and the slow flows need the check.
        """
        heap = self._drains
        flows = self.flows
        limit = now + _HEAP_WINDOW
        due: list = []
        while heap and heap[0][0] <= limit:
            entry = heappop(heap)
            if self._live(entry):
                due.append(entry)
        if not due and not self._slow:
            return []
        candidates = {entry[1]: flows[entry[1]] for entry in due}
        candidates.update(self._slow)
        drained = [flow for _fid, flow in sorted(candidates.items())
                   if _drained(flow, now)]
        gone = {flow.id for flow in drained}
        for entry in due:
            if entry[1] not in gone:
                heappush(heap, entry)
        return drained

    def _reanchor(self, changed: list, now: float) -> None:
        """Bring re-rated flows up to ``now`` under their old rates, push
        their new drain times and move their counters' slopes.

        ``changed`` holds one list per route class (see
        :meth:`MaxMinSolver.solve`).  The members of a class share their
        new rate and cross the same counters, so each counter moves once
        per class, by an exactly rounded sum that no member order sways.
        """
        heap = self._drains
        slow = self._slow
        for moved in changed:
            rate = moved[0][0].rate
            for flow, old in moved:
                flow.remaining -= old * (now - flow.t0)
                flow.t0 = now
                flow.stamp += 1
                if rate > 0:
                    heappush(heap, (now + flow.remaining / rate, flow.id,
                                    flow.stamp))
            if 0 < rate < _SLOW_RATE:
                for flow, _old in moved:
                    slow[flow.id] = flow
            elif slow:
                for flow, _old in moved:
                    slow.pop(flow.id, None)
            if self._account:
                delta = rate * len(moved) - math.fsum(
                    [old for _flow, old in moved])
                if delta:
                    for seg in moved[0][0].segments:
                        counter = seg.counter
                        total = counter.rate + delta
                        counter.set_rate(now, total if total > 0.0 else 0.0)
        if len(heap) > (1 + _HEAP_SLACK) * len(self.flows) + _HEAP_FLOOR:
            heap[:] = [entry for entry in heap if self._live(entry)]
            heapify(heap)

    def _live(self, entry: tuple) -> Optional[Flow]:
        """The flow of a drain-heap entry, or ``None`` if it is stale."""
        flow = self.flows.get(entry[1])
        return flow if flow is not None and flow.stamp == entry[2] \
            else None

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
        #: Whether the instant's solve is queued, and the event id its
        #: drain timer takes.
        self._resolving = False
        self._slot = 0

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
        """Cross-check current rates against batch water-filling (the
        instant's pending solve runs first)."""
        self._resolve()
        self._timeline.solver.assert_equivalent(rtol)

    # -- internals -------------------------------------------------------
    def _settle(self) -> None:
        """Complete drained flows and queue the instant's solve.

        The drain timer that solve arms takes the queue slot of the
        instant's last settle, so it orders among same-time events as a
        timer armed right here would.
        """
        for flow in self._timeline.retire():
            self.completed += 1
            flow.done.succeed(flow.nbytes)
        self._slot = self.env.reserve()
        if not self._resolving:
            self._resolving = True
            self.env.defer(self._resolve)

    def _resolve(self, _event=None) -> None:
        """Solve once for the instant and arm the next drain timer."""
        if not self._resolving:
            return
        self._resolving = False
        timer = self._timeline.resolve()
        if timer is not None:
            generation, seconds = timer
            self.env.timeout(seconds, eid=self._slot).callbacks.append(
                lambda _evt: self._on_timer(generation))

    def _on_timer(self, generation: int) -> None:
        if self._timeline.current(generation):
            self._timeline.advance(self.env.now)
            self._settle()
