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
moves its rate, which also sets its drain time ``due``.  The members
of a route class share one rate, so the drain heap holds one entry per
class, its earliest member's ``due``, and a re-rated class costs one
pass over its members and one push.  The scheduler's timeline streams
each flow into its segments' directional link counters as a slope: a
counter (piecewise-linear, :class:`~repro.sim.CounterMonitor`) gains a
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
#: Flows due within this of now are checked against the drain rule:
#: ``_EPSILON_SECONDS`` plus room for the rounding of
#: ``t0 + remaining / rate``.
_HEAP_WINDOW = 2 * _EPSILON_SECONDS
#: Stale drain-heap entries tolerated per live class entry (plus
#: ``_HEAP_FLOOR``) before the heap is compacted.
_HEAP_SLACK = 2
_HEAP_FLOOR = 64
_INF = float("inf")


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
    :meth:`remaining_at` reads it at any later time.  ``due`` is
    ``t0 + remaining / rate`` at a positive rate, else ``inf``.
    ``done`` is the completion handle of the timeline's owner: an
    ``Event`` or a heap callback.
    """

    __slots__ = ("id", "segments", "nbytes", "remaining", "t0", "rate",
                 "due", "done", "label")

    def __init__(self, flow_id: int, segments: Sequence[Segment],
                 nbytes: float, done, t0: float, label: str = ""):
        self.id = flow_id
        self.segments = tuple(segments)
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.t0 = t0
        self.rate = 0.0
        self.due = _INF
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
    ``_EPSILON_SECONDS`` of it at a positive rate.  An unbounded rate
    (a route of unbounded links) drains at once."""
    rate = flow.rate
    if rate == _INF:
        return True
    remaining = flow.remaining_at(now)
    return (remaining <= _EPSILON_BYTES
            or (rate > 0 and remaining / rate <= _EPSILON_SECONDS))


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
    not to the live flows.  A flow is re-anchored (``remaining`` and
    ``t0`` brought up to the present, ``due`` recomputed) only when the
    solver moves its rate, and each link counter its class crosses
    changes slope once.  The drain heap holds ``(earliest member due,
    class id, class stamp)`` per route class: the members share one
    rate, so the earliest ``due`` of a class is the earliest of its
    members' drain times and the heap top is the next drain.  A class
    is re-pushed when a solve moves a member's rate, or, at the next
    :meth:`resolve`, when it lost its earliest member or was popped;
    its older entries go stale and are dropped when they surface, or
    all at once when they outnumber the live entries ``_HEAP_SLACK``
    to one.  Every instant that retires must be closed by a
    :meth:`resolve` before the clock moves on.
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
        #: ``(earliest member due, class id, stamp)`` per route class.
        self._drains: list = []
        #: Class id -> its live drain-heap entry.
        self._entries: dict[int, tuple] = {}
        #: Class id -> entries pushed for it (the next entry's stamp).
        self._stamps: dict[int, int] = {}
        #: Classes popped, or short of their earliest member, since the
        #: last resolve: their entries are placed again there.
        self._recheck: set = set()
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
        cid = self.solver.remove(flow)
        self._slow.pop(flow.id, None)
        entry = self._entries.get(cid)
        if entry is not None and flow.due <= entry[0]:
            # The class's entry was this flow's drain time.
            self._recheck.add(cid)
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
        """Re-rate the affected components, re-anchor the flows whose
        rate moved and place their classes' drain entries.  Returns the
        timer for the next drain, ``(generation, seconds)``, current
        until the next :meth:`retire`; ``None`` when no flow is
        streaming.
        """
        now = self._now
        rerated: list = []
        self.solver.solve(rerated)
        if rerated:
            self._rerate(rerated, now)
        heap = self._drains
        entries = self._entries
        if self._recheck:
            members = self.solver.members
            for cid in self._recheck:
                flows = members(cid)
                if flows or cid in entries:
                    self._place(cid, min([flow.due for flow in flows],
                                         default=_INF))
            self._recheck.clear()
        if len(heap) > (1 + _HEAP_SLACK) * len(entries) + _HEAP_FLOOR:
            heap[:] = [entry for entry in heap
                       if entries.get(entry[1]) is entry]
            heapify(heap)
        while heap:
            entry = heap[0]
            if entries.get(entry[1]) is entry:
                return self._generation, entry[0] - now
            heappop(heap)
        return None

    def _take_drained(self, now: float) -> list[Flow]:
        """Pop the due classes off the heap and retire their drained
        members, with the slow flows, in arrival order.

        A flow at or above ``_SLOW_RATE`` that the rule drains is due
        within ``_EPSILON_SECONDS`` (plus rounding), so only the members
        due inside ``_HEAP_WINDOW`` and the slow flows need the check.
        A popped class stays off the heap until the instant's resolve
        places it again.  Later retires of the instant need not look at
        it: the rule reads only the flow, which no retire re-anchors,
        and the clock, so a member it keeps now it keeps all instant.
        """
        heap = self._drains
        entries = self._entries
        due: dict[int, Flow] = {}
        limit = now + _HEAP_WINDOW
        while heap and heap[0][0] <= limit:
            entry = heappop(heap)
            cid = entry[1]
            if entries.get(cid) is entry:
                del entries[cid]
                self._recheck.add(cid)
                for flow in self.solver.members(cid):
                    if flow.due <= limit:
                        due[flow.id] = flow
        if not due and not self._slow:
            return []
        due.update(self._slow)
        return [flow for _fid, flow in sorted(due.items())
                if _drained(flow, now)]

    def _rerate(self, rerated: list, now: float) -> None:
        """Write each re-solved class's rate, re-anchor the members it
        moves (under their old rates, up to ``now``), place the class's
        drain entry and move its counters' slopes.

        ``rerated`` holds ``(class id, members, rate)`` per re-solved
        class (see :meth:`MaxMinSolver.solve`).  The members of a class
        cross the same counters, so each counter moves once per class,
        by an exactly rounded sum that no member order sways.
        """
        slow = self._slow
        recheck = self._recheck
        account = self._account
        for cid, members, rate in rerated:
            # Only traffic accounting reads the moved members' old rates;
            # the fast path just needs to know whether any member moved.
            olds: list = []
            moved = False
            earliest = _INF
            for flow in members:
                old = flow.rate
                if old != rate:
                    flow.rate = rate
                    remaining = flow.remaining = (
                        flow.remaining - old * (now - flow.t0))
                    flow.t0 = now
                    due = flow.due = (now + remaining / rate if rate > 0
                                      else _INF)
                    moved = True
                    if account:
                        olds.append(old)
                else:
                    due = flow.due
                if due < earliest:
                    earliest = due
            if not moved:
                continue
            self._place(cid, earliest)
            recheck.discard(cid)
            if 0 < rate < _SLOW_RATE:
                for flow in members:
                    slow[flow.id] = flow
            elif slow:
                for flow in members:
                    slow.pop(flow.id, None)
            if account:
                delta = rate * len(olds) - math.fsum(olds)
                if delta:
                    for seg in next(iter(members)).segments:
                        counter = seg.counter
                        total = counter.rate + delta
                        counter.set_rate(now, total if total > 0.0 else 0.0)

    def _place(self, cid: int, earliest: float) -> None:
        """Make ``earliest`` the drain entry of class ``cid``: push a
        fresh entry unless the live one already says it, and keep none
        for a class with nothing draining."""
        entry = self._entries.get(cid)
        if entry is not None and entry[0] == earliest:
            return
        if earliest == _INF:
            if entry is not None:
                del self._entries[cid]
            return
        stamp = self._stamps[cid] = self._stamps.get(cid, 0) + 1
        entry = self._entries[cid] = (earliest, cid, stamp)
        heappush(self._drains, entry)

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

    def poke(self, link: Link) -> None:
        """Force an immediate rate recomputation.

        Call after mutating ``link``'s capacity (retrain/degradation) so
        in-flight flows adopt the new rates without waiting for the next
        natural arrival/completion event.  The re-solve is confined to
        the link's contention component.
        """
        self._timeline.advance(self.env.now)
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
                   label: str = "", done: Optional[Event] = None) -> Event:
        """Begin streaming ``nbytes`` over ``segments``; returns the done
        event: ``done`` if given (untriggered), else a fresh one.

        A zero-byte or zero-segment flow completes immediately (the caller
        is responsible for any fixed latency; see ``Topology.transfer``).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if done is None:
            done = Event(self.env)
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
