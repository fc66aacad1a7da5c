"""Incremental max-min fair rate solver over directed link capacities.

The classic fluid-flow simulation re-runs progressive filling over
*every* active flow at every arrival/completion — O(rounds x links x
flows) per event, which collapses once thousands of concurrent flows
from co-scheduled jobs share one fabric.  This module keeps the exact
water-filling arithmetic but makes it *incremental*:

- :func:`water_fill` is the batch reference solver (the oracle): a pure
  function computing the max-min fair rate of each flow.
- :class:`MaxMinSolver` maintains per-directed-link flow indexes plus a
  dirty set, and re-solves only the **connected component** of the
  contention graph touched by a flow add/remove or a capacity change.

Why the component solve is exact
--------------------------------
Flows and directed links form a bipartite contention graph (a flow is
adjacent to every directed link it crosses).  Max-min rates in one
connected component are independent of every other component: the
bottleneck argument never lets capacity or demand cross a component
boundary.  Progressive filling over the full flow set is therefore an
interleaving of independent per-component fills — freezing a bottleneck
link only updates residuals/users of links in its own component — so
re-filling just the dirty component reproduces the batch result.  The
arithmetic is bitwise identical, not merely close: within a component
the bottleneck order (sorted by share) is the same, every residual
update subtracts the same frozen share values, and subtracting the same
constant per frozen flow is order-independent.  The fast-path engine's
1e-9 golden equivalence tests pin this.

A flow object is anything with a ``segments`` sequence (each segment
exposing ``key`` — the hashable directed-capacity identity — and
``capacity``) and a writable ``rate``, such as the
:class:`~repro.fabric.flows.Flow` of the one fluid timeline that both
the event loop and the fast-path engine run.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

__all__ = ["MaxMinSolver", "water_fill", "apply_rates"]


def water_fill(flows: Iterable) -> dict:
    """Batch progressive filling; returns ``{flow: rate}`` (pure).

    This is the reference oracle: max-min fair rates subject to each
    directed link's capacity, computed from scratch over ``flows``.
    """
    rates: dict = {}
    unfrozen: set = set(flows)
    # Residual capacity and unfrozen users per directed link.
    residual: dict = {}
    users: dict = {}
    for flow in unfrozen:
        for seg in flow.segments:
            residual.setdefault(seg.key, seg.capacity)
            users.setdefault(seg.key, set()).add(flow)

    while unfrozen:
        # Find the bottleneck: the directed link with the smallest
        # equal share among its unfrozen users.
        best_key = None
        best_share = float("inf")
        for key, flows_on in users.items():
            if not flows_on:
                continue
            share = residual[key] / len(flows_on)
            if share < best_share:
                best_share = share
                best_key = key
        if best_key is None:
            # Remaining flows cross no constrained link.
            for flow in unfrozen:
                rates[flow] = float("inf")
            break
        frozen_now = list(users[best_key])
        for flow in frozen_now:
            rates[flow] = best_share
            unfrozen.discard(flow)
            for seg in flow.segments:
                if seg.key not in users:
                    continue
                users[seg.key].discard(flow)
                if seg.key != best_key:
                    residual[seg.key] = max(
                        0.0, residual[seg.key] - best_share)
        residual[best_key] = 0.0
        users[best_key].clear()
    return rates


def apply_rates(flows: Iterable) -> None:
    """Batch water-fill ``flows`` and write each flow's ``rate``."""
    for flow, rate in water_fill(flows).items():
        flow.rate = rate


class MaxMinSolver:
    """Per-link flow index + dirty-component incremental re-solver.

    The owner registers every active flow (:meth:`add` / :meth:`remove`),
    reports capacity changes (:meth:`touch` / :meth:`touch_all`), and
    calls :meth:`solve` at each recompute point.  Only flows in
    contention-graph components reachable from a dirty link are re-rated;
    all other flows keep their previously assigned rates.
    """

    __slots__ = ("_flows_on", "_keys_of", "_dirty", "_dirty_all")

    def __init__(self) -> None:
        #: directed-link key -> set of flows crossing it.
        self._flows_on: Dict[tuple, Set] = {}
        #: flow -> its distinct directed-link keys (loop-free iteration).
        self._keys_of: Dict[object, tuple] = {}
        #: link keys whose membership or capacity changed since solve().
        self._dirty: Set[tuple] = set()
        self._dirty_all = False

    def __len__(self) -> int:
        return len(self._keys_of)

    @property
    def flows(self) -> list:
        return list(self._keys_of)

    # -- index maintenance -------------------------------------------------
    def add(self, flow) -> None:
        """Index a new flow; its links become dirty."""
        seen = set()
        for seg in flow.segments:
            key = seg.key
            if key in seen:
                continue
            seen.add(key)
            self._flows_on.setdefault(key, set()).add(flow)
            self._dirty.add(key)
        self._keys_of[flow] = tuple(seen)

    def remove(self, flow) -> None:
        """Unindex a flow; its links become dirty (no-op if unknown)."""
        keys = self._keys_of.pop(flow, None)
        if keys is None:
            return
        for key in keys:
            flows = self._flows_on.get(key)
            if flows is not None:
                flows.discard(flow)
                if not flows:
                    del self._flows_on[key]
            self._dirty.add(key)

    def touch(self, *keys: tuple) -> None:
        """Mark directed-link capacities as changed (retrain/degrade)."""
        self._dirty.update(keys)

    def touch_all(self) -> None:
        """Mark every link dirty (unknown capacity change)."""
        self._dirty_all = True

    def flows_on(self, *keys: tuple) -> set:
        """Union of flows crossing any of the directed-link keys."""
        out: set = set()
        for key in keys:
            out |= self._flows_on.get(key, set())
        return out

    # -- solving -----------------------------------------------------------
    def affected(self) -> set:
        """Flows in components reachable from the dirty links (pure)."""
        if self._dirty_all:
            return set(self._keys_of)
        affected: set = set()
        seen_keys = set(k for k in self._dirty if k in self._flows_on)
        frontier = list(seen_keys)
        while frontier:
            key = frontier.pop()
            for flow in self._flows_on[key]:
                if flow in affected:
                    continue
                affected.add(flow)
                for other in self._keys_of[flow]:
                    if other not in seen_keys:
                        seen_keys.add(other)
                        frontier.append(other)
        return affected

    def solve(self) -> int:
        """Re-rate the dirty components; returns the flow count touched.

        Rates of flows outside the affected components are left exactly
        as the previous solve assigned them.
        """
        if not self._dirty and not self._dirty_all:
            return 0
        affected = self.affected()
        self._dirty.clear()
        self._dirty_all = False
        if affected:
            apply_rates(affected)
        return len(affected)

    def solve_full(self) -> int:
        """Batch-oracle mode: water-fill every indexed flow."""
        self._dirty.clear()
        self._dirty_all = False
        apply_rates(self._keys_of)
        return len(self._keys_of)

    def assert_equivalent(self, rtol: float = 1e-9) -> None:
        """Compare current rates against the batch oracle at ``rtol``.

        Raises :class:`AssertionError` on divergence — the
        ``assert_equivalence``-style cross-check the property tests and
        the churn microbench run after every mutation batch.
        """
        expect = water_fill(self._keys_of)
        for flow, want in expect.items():
            have = flow.rate
            if want == float("inf"):
                ok = have == want
            else:
                ok = abs(have - want) <= rtol * max(abs(want), 1.0)
            if not ok:
                raise AssertionError(
                    f"incremental rate diverged from batch water-fill: "
                    f"flow={flow!r} incremental={have!r} batch={want!r}")
