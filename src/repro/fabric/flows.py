"""Fluid flow model with max-min fair bandwidth sharing.

Data movement in the composable system is modelled as *fluid flows*: a
transfer of ``nbytes`` over a sequence of directed link segments streams
at a rate determined by max-min fair sharing of every link direction it
crosses (progressive filling / water-filling).  Whenever the set of active
flows changes, affected rates are recomputed and the next completion is
rescheduled — the classic event-driven fluid simulation used by
flow-level network simulators.

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

Per-segment byte accounting is pushed into each link's directional
counters on every scheduler update, so port ingress/egress rate series
(paper Fig. 12) are exact for piecewise-constant rates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..sim import Environment, Event
from .link import Link
from .maxmin import MaxMinSolver

__all__ = ["FlowScheduler", "Flow", "Segment"]

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


#: Fallback id source for flows constructed outside a scheduler (tests,
#: ad-hoc solver experiments).  Scheduler-owned flows draw from the
#: scheduler's own counter so runs are deterministic regardless of what
#: other schedulers the process ran before.
_flow_ids = itertools.count()


class Flow:
    """An active transfer streaming over a set of directed segments."""

    def __init__(self, segments: Sequence[Segment], nbytes: float,
                 done: Event, label: str = "",
                 flow_id: Optional[int] = None):
        self.id = next(_flow_ids) if flow_id is None else flow_id
        self.segments = tuple(segments)
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.done = done
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Flow {self.id} {self.label!r} "
                f"{self.remaining:.0f}/{self.nbytes:.0f}B @ {self.rate:.3g}B/s>")


class FlowScheduler:
    """Event-driven fluid simulation of concurrent transfers.

    Usage::

        done = scheduler.start_flow(segments, nbytes)
        yield done          # fires when the last byte is delivered
    """

    def __init__(self, env: Environment):
        self.env = env
        self._flows: dict[int, Flow] = {}
        self._ids = itertools.count()
        self._solver = MaxMinSolver()
        self._last_update = env.now
        self._generation = 0
        #: Completed flow count (introspection / tests).
        self.completed = 0

    @property
    def active_flows(self) -> list[Flow]:
        return list(self._flows.values())

    def poke(self, link: Optional[Link] = None) -> None:
        """Force an immediate rate recomputation.

        Call after mutating link capacities (retrain/degradation) so
        in-flight flows adopt the new rates without waiting for the next
        natural arrival/completion event.  Passing the changed ``link``
        confines the re-solve to its contention component; with no
        argument every component is re-solved (unknown change).
        """
        self._advance()
        if link is None:
            self._solver.touch_all()
        else:
            self._solver.touch(*_link_keys(link))
        self._recompute()

    def kill_flows_on(self, link: Link, cause: Exception) -> int:
        """Fail every in-flight flow crossing ``link`` (cable pull).

        Each affected flow's done event fails with ``cause``; waiting
        processes see the exception at their ``yield``.  Returns the
        number of flows killed.  Victims come from the per-link flow
        index — O(victims), not O(flows x segments).
        """
        self._advance()
        victims = sorted(self._solver.flows_on(*_link_keys(link)),
                         key=lambda flow: flow.id)
        for flow in victims:
            del self._flows[flow.id]
            self._solver.remove(flow)
            flow.done.fail(cause)
        if victims:
            self._recompute()
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
        segments = tuple(segments)
        if nbytes <= _EPSILON_BYTES or not segments:
            # Nothing to stream: still account the bytes for traffic stats.
            for seg in segments:
                seg.link.account(self.env.now, seg.src, seg.dst, nbytes)
            done.succeed(nbytes)
            self.completed += 1
            return done
        flow = Flow(segments, nbytes, done, label,
                    flow_id=next(self._ids))
        self._advance()
        self._flows[flow.id] = flow
        self._solver.add(flow)
        self._recompute()
        return done

    # -- equivalence oracle ------------------------------------------------
    def assert_rates_equivalent(self, rtol: float = 1e-9) -> None:
        """Cross-check current rates against batch water-filling."""
        self._solver.assert_equivalent(rtol)

    # -- internals -------------------------------------------------------
    def _advance(self) -> None:
        """Deliver bytes accrued since the last update; account per link."""
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for flow in self._flows.values():
            delivered = min(flow.remaining, flow.rate * dt)
            if delivered > 0:
                flow.remaining -= delivered
                for seg in flow.segments:
                    seg.counter.add(now, delivered)

    def _recompute(self) -> None:
        """Complete drained flows, re-assign fair rates, re-arm the timer."""
        self._complete_drained()
        self._solver.solve()
        self._arm_timer()

    def _complete_drained(self) -> None:
        done_ids = [fid for fid, f in self._flows.items()
                    if self._is_drained(f)]
        now = self.env.now
        for fid in done_ids:
            flow = self._flows.pop(fid)
            self._solver.remove(flow)
            if flow.remaining > 0:
                # Account the float-rounding residual so byte conservation
                # holds exactly on the link counters.
                for seg in flow.segments:
                    seg.link.account(now, seg.src, seg.dst, flow.remaining)
                flow.remaining = 0.0
            self.completed += 1
            flow.done.succeed(flow.nbytes)

    @staticmethod
    def _is_drained(flow: Flow) -> bool:
        if flow.remaining <= _EPSILON_BYTES:
            return True
        return flow.rate > 0 and flow.remaining / flow.rate <= _EPSILON_SECONDS

    def _arm_timer(self) -> None:
        self._generation += 1
        if not self._flows:
            return
        gen = self._generation
        horizon = min(f.remaining / f.rate for f in self._flows.values()
                      if f.rate > 0)
        timer = self.env.timeout(horizon)
        timer.callbacks.append(lambda _evt: self._on_timer(gen))

    def _on_timer(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a later recompute
        self._advance()
        self._recompute()
