"""Incremental max-min fair rate solver over directed link capacities.

The classic fluid-flow simulation re-runs progressive filling over
*every* active flow at every arrival/completion — O(rounds x links x
flows) per event, which collapses once thousands of concurrent flows
from co-scheduled jobs share one fabric.  This module keeps the exact
water-filling arithmetic but makes it *incremental*:

- :func:`water_fill` is the batch reference solver (the oracle): a pure
  function computing the max-min fair rate of each flow.
- :class:`MaxMinSolver` maintains per-directed-link route-class indexes
  plus a set of marked classes, and re-solves only the **connected
  components** of the contention graph that hold a class a flow
  add/remove or a capacity change marked.  A class that shares no link
  with another live class is rated in closed form without walking its
  component; a component whose shape it has filled before is not
  filled again: the stored rates are replayed.

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
the bottleneck order is the same, every residual update subtracts the
same frozen share values, and subtracting the same constant per frozen
flow is order-independent.

Canonical tie order
-------------------
Two links can offer the same bottleneck share; the scan freezes the
first one in table order, and freezing it first moves the other's
residual by an ulp or so.  :func:`water_fill` therefore builds its
tables from the flows sorted by route (the tuple of segment keys), not
in set order, so ties resolve the same way whatever the flow objects'
hashes are.  Its rates are a pure function of the multiset of routes
and the capacities those routes read.

Why a replayed fill is exact
----------------------------
Flows on identical routes sit in the same user sets and always freeze
together, so a fill assigns one rate per *route class*.  A component's
signature is the sorted tuple of ``(class id, flow count, capacities of
the class's segments)``; class ids are interned routes, so the
signature fixes everything the fill reads, and equal signatures give
equal fills.  Capacities are read live at every solve, so a changed
capacity misses even if nobody touched its link.  The memo lives on the
solver (one per fluid timeline, so a finished system's shapes die with
it) and is cleared when it reaches :data:`_MEMO_ENTRIES`.

Why the one-class closed form is exact
--------------------------------------
A component that holds a single route class has every member on every
one of its links, so the first bottleneck is the link of least
capacity and it freezes them all at ``capacity / members``.  Dividing
by the same count is monotone under rounding, so the least quotient
``water_fill`` finds is ``min(capacities) / members`` bit for bit: a
dead link gives 0.0, all-unbounded links give ``inf``.  Such components
are nearly every solve on the e2e workloads, and they skip the
signature and the memo.

Why an isolated class skips the walk
------------------------------------
Every live class counts its (link, other live class) incidences: the
sum over its links of the other live classes on each.  The count moves
only when some class goes live (its first member arrives) or goes dead
(its last member leaves), and both events update it exactly: the class
that goes live counts the classes already on its links and adds one to
each of them per link they share; the class that goes dead subtracts
one from each per shared link and drops to 0.  Adding or removing a
member of a class that stays live changes no incidence, and a capacity
change changes none.  So a live class reads 0 exactly when no other
live class crosses any of its links, that is, when it is a component on
its own; a marked class at 0 is rated by the closed form above, and
only the others start the walk.  The set of components re-solved is
the one that walking from every changed link would find, so the
re-rated flows and the ``changed`` report are the same.

A flow's class is found by the identity of its ``segments`` object
first: a route's segment tuple is shared by every flow over it, so an
add hashes one integer instead of building the tuple of keys.  The
solver holds each object it maps (up to :data:`_SEGMENT_ENTRIES`, then
it starts over), so no other object can take its id while the entry
lives.  A ``segments`` object must therefore never change.

A flow object is anything with a ``segments`` sequence (each segment
exposing ``key`` — the hashable directed-capacity identity — and
``capacity``) and a writable ``rate``, such as the
:class:`~repro.fabric.flows.Flow` of the one fluid timeline that both
the event loop and the fast-path engine run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

__all__ = ["MaxMinSolver", "water_fill", "apply_rates"]

#: Component fills one solver remembers before it starts over.
_MEMO_ENTRIES = 4096
#: Segment objects one solver maps to their class before it starts over.
_SEGMENT_ENTRIES = 4096
_INF = float("inf")


def _route(flow) -> tuple:
    return tuple(seg.key for seg in flow.segments)


def water_fill(flows: Iterable) -> dict:
    """Batch progressive filling; returns ``{flow: rate}`` (pure).

    This is the reference oracle: max-min fair rates subject to each
    directed link's capacity, computed from scratch over ``flows``.
    """
    rates: dict = {}
    unfrozen: set = set(flows)
    # Residual capacity and unfrozen users per directed link, in route
    # order: equal-share ties go to the first link in this order.
    residual: dict = {}
    users: dict = {}
    for flow in sorted(unfrozen, key=_route):
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
    """Route-class index + dirty-class incremental re-solver.

    The owner registers every active flow (:meth:`add` / :meth:`remove`),
    reports capacity changes (:meth:`touch`), and
    calls :meth:`solve` once per instant.  Flows on the same route form
    one class, and the index, the dirty set, the component walk and the
    fill memo work on classes.  Each mutation marks the classes whose
    rate it can move: an add or a remove marks the flow's class, and a
    remove that empties it marks the live classes that shared a link
    with it; a touch marks the classes on the touched links.  Only the
    contention-graph components holding a marked class are re-rated;
    all other flows keep their previously assigned rates.  A marked
    class that shares no link with another live class is its own
    component and is rated in closed form without the walk.
    """

    __slots__ = ("_class_of", "_by_segments", "_keys", "_members",
                 "_shared", "_classes_on", "_flow_class", "_dirty",
                 "_fills")

    def __init__(self) -> None:
        #: route (tuple of segment keys) -> class id, never forgotten.
        self._class_of: Dict[tuple, int] = {}
        #: id of a flow's ``segments`` object -> (that object, class id).
        #: Holding the object keeps its id from being reused.
        self._by_segments: Dict[int, tuple] = {}
        #: class id -> the route's distinct directed-link keys.
        self._keys: List[tuple] = []
        #: class id -> its live flows.
        self._members: List[Set] = []
        #: class id -> its (link, other live class) incidences while
        #: live, else 0.  A live class at 0 is a component on its own.
        self._shared: List[int] = []
        #: directed-link key -> ids of the live classes crossing it.
        self._classes_on: Dict[tuple, Set[int]] = {}
        #: live flow -> its class id.
        self._flow_class: dict = {}
        #: live classes marked since the last solve().
        self._dirty: Set[int] = set()
        #: component signature -> one rate per class, in signature order.
        self._fills: dict = {}

    def __len__(self) -> int:
        return len(self._flow_class)

    @property
    def flows(self) -> list:
        return list(self._flow_class)

    # -- index maintenance -------------------------------------------------
    def _class(self, segments) -> int:
        """The class id of a route, by the identity of its segments
        object first (routes are shared), else by its keys."""
        hit = self._by_segments.get(id(segments))
        if hit is not None:
            return hit[1]
        route = tuple([seg.key for seg in segments])
        cid = self._class_of.get(route)
        if cid is None:
            cid = self._class_of[route] = len(self._keys)
            self._keys.append(tuple(dict.fromkeys(route)))
            self._members.append(set())
            self._shared.append(0)
        if len(self._by_segments) >= _SEGMENT_ENTRIES:
            self._by_segments.clear()
        self._by_segments[id(segments)] = (segments, cid)
        return cid

    def add(self, flow) -> None:
        """Index a new flow and mark its class."""
        cid = self._class(flow.segments)
        members = self._members[cid]
        if not members:
            # The class goes live: count its incidences, and add one to
            # every live class it meets per link they share.
            shared = self._shared
            classes_on = self._classes_on
            count = 0
            for key in self._keys[cid]:
                classes = classes_on.get(key)
                if classes is None:
                    classes_on[key] = {cid}
                    continue
                for other in classes:
                    shared[other] += 1
                count += len(classes)
                classes.add(cid)
            shared[cid] = count
        members.add(flow)
        self._flow_class[flow] = cid
        self._dirty.add(cid)

    def remove(self, flow) -> Optional[int]:
        """Unindex a flow and mark its class, or, when the class
        empties, the live classes that shared a link with it.  Returns
        its class id (``None``, and a no-op, if the flow is unknown)."""
        cid = self._flow_class.pop(flow, None)
        if cid is None:
            return None
        members = self._members[cid]
        members.discard(flow)
        if members:
            self._dirty.add(cid)
            return cid
        shared = self._shared
        dirty = self._dirty
        classes_on = self._classes_on
        dirty.discard(cid)
        for key in self._keys[cid]:
            classes = classes_on[key]
            classes.discard(cid)
            if classes:
                for other in classes:
                    shared[other] -= 1
                dirty.update(classes)
            else:
                del classes_on[key]
        shared[cid] = 0
        return cid

    def touch(self, *keys: tuple) -> None:
        """Mark the classes on directed links whose capacity changed
        (retrain/degrade)."""
        for key in keys:
            classes = self._classes_on.get(key)
            if classes:
                self._dirty.update(classes)

    def crosses(self, key: tuple) -> bool:
        """Whether any live flow crosses the directed-link ``key``."""
        return key in self._classes_on

    def members(self, cid: int) -> Set:
        """The live flows of route class ``cid`` (the solver's own set:
        read it, do not change it)."""
        return self._members[cid]

    def flows_on(self, *keys: tuple) -> set:
        """Union of flows crossing any of the directed-link keys."""
        out: set = set()
        for key in keys:
            for cid in self._classes_on.get(key, ()):
                out |= self._members[cid]
        return out

    # -- solving -----------------------------------------------------------
    def _walk(self, start: int, seen: set, seen_keys: set) -> list:
        """The class ids of ``start``'s component, ``start`` first."""
        keys_of = self._keys
        classes_on = self._classes_on
        seen.add(start)
        component = [start]
        frontier = [start]
        while frontier:
            for key in keys_of[frontier.pop()]:
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                for cid in classes_on[key]:
                    if cid not in seen:
                        seen.add(cid)
                        component.append(cid)
                        frontier.append(cid)
        return component

    def solve(self, changed: Optional[list] = None) -> int:
        """Re-rate the components of the marked classes; returns the
        flow count touched.

        Rates of flows outside the affected components are left exactly
        as the previous solve assigned them.  Without ``changed`` the
        solver writes every re-solved member's rate.  With it, the
        solver writes none: ``changed`` receives ``(class id, members,
        rate)`` for every re-solved route class, ``members`` being the
        class's live set (see :meth:`members`), and the caller writes
        ``rate`` to the members whose rate differs, in the same pass
        that acts on the move.  Members of a class share one rate
        except those added since their class was last solved, which
        still hold their initial rate.
        """
        dirty = self._dirty
        if not dirty:
            return 0
        self._dirty = set()
        members = self._members
        shared = self._shared
        fills = self._fills
        seen: set = set()
        seen_keys: set = set()
        rerated = 0
        for start in dirty:
            if not shared[start]:
                # One route class on its own: the first bottleneck
                # freezes every member at the smallest capacity over
                # the member count.
                flows = members[start]
                component, classes = (start,), (flows,)
                rates = (min([seg.capacity
                              for seg in next(iter(flows)).segments],
                             default=_INF) / len(flows),)
            elif start in seen:
                continue
            else:
                component = self._walk(start, seen, seen_keys)
                component.sort()
                classes = [members[cid] for cid in component]
                firsts = [next(iter(flows)) for flows in classes]
                signature = tuple(
                    (cid, len(flows), tuple([seg.capacity
                                             for seg in first.segments]))
                    for cid, flows, first in zip(component, classes,
                                                 firsts))
                rates = fills.get(signature)
                if rates is None:
                    fill = water_fill(
                        [flow for flows in classes for flow in flows])
                    rates = tuple([fill[first] for first in firsts])
                    if len(fills) >= _MEMO_ENTRIES:
                        fills.clear()
                    fills[signature] = rates
            for cid, flows, rate in zip(component, classes, rates):
                rerated += len(flows)
                if changed is not None:
                    changed.append((cid, flows, rate))
                else:
                    for flow in flows:
                        flow.rate = rate
        return rerated

    def solve_full(self) -> int:
        """Batch-oracle mode: water-fill every indexed flow."""
        self._dirty.clear()
        apply_rates(self._flow_class)
        return len(self._flow_class)

    def assert_equivalent(self, rtol: float = 1e-9) -> None:
        """Compare current rates against the batch oracle at ``rtol``.

        Raises :class:`AssertionError` on divergence — the
        ``assert_equivalence``-style cross-check the property tests run
        after every mutation batch and the 1,000-flow churn test runs
        after its churn.
        """
        expect = water_fill(self._flow_class)
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
