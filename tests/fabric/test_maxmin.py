"""Unit and property tests for the incremental max-min solver.

The property tests drive random sequences of flow add / remove /
capacity-poke operations and assert after every mutation batch that the
incremental solver's rates match the batch water-filling oracle at
1e-9 — the equivalence contract :class:`repro.fabric.maxmin.MaxMinSolver`
documents — and, over a few routes whose shapes recur, at ``==``, which
pins the solver's replayed fills bit for bit.  Another property pins
byte conservation: every byte a completed flow delivered is accounted
on the directional counters of the links it crossed.
"""

import gc
import itertools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import GB, Link, LinkSpec, Protocol
from repro.fabric.flows import FlowScheduler, Segment
from repro.fabric.maxmin import MaxMinSolver, apply_rates, water_fill
from repro.sim import Environment


# ---------------------------------------------------------------------------
# Duck-typed flows over mutable capacities (no Environment needed).
# ---------------------------------------------------------------------------

class FakeSegment:
    """Directed capacity whose value reads a shared, pokeable table."""

    __slots__ = ("key", "_capacities")

    def __init__(self, key, capacities):
        self.key = key
        self._capacities = capacities

    @property
    def capacity(self):
        return self._capacities[self.key]


class FakeFlow:
    __slots__ = ("name", "segments", "rate")

    def __init__(self, name, keys, capacities):
        self.name = name
        self.segments = [FakeSegment(k, capacities) for k in keys]
        self.rate = 0.0

    def __repr__(self):
        return f"FakeFlow({self.name})"


# ---------------------------------------------------------------------------
# water_fill oracle basics
# ---------------------------------------------------------------------------

def test_water_fill_fair_share():
    caps = {("l", 0): 9.0}
    flows = [FakeFlow(i, [("l", 0)], caps) for i in range(3)]
    rates = water_fill(flows)
    assert all(rates[f] == pytest.approx(3.0) for f in flows)


def test_water_fill_unconstrained_flow_gets_inf():
    flows = [FakeFlow("free", [], {})]
    assert water_fill(flows)[flows[0]] == float("inf")


def test_water_fill_bottleneck_then_redistribute():
    # f0 crosses a (cap 2) and b (cap 10); f1 crosses only b.
    caps = {"a": 2.0, "b": 10.0}
    f0 = FakeFlow(0, ["a", "b"], caps)
    f1 = FakeFlow(1, ["b"], caps)
    rates = water_fill([f0, f1])
    assert rates[f0] == pytest.approx(2.0)
    # f1 inherits the slack on b.
    assert rates[f1] == pytest.approx(8.0)


def test_apply_rates_writes_flows():
    caps = {"x": 4.0}
    flows = [FakeFlow(i, ["x"], caps) for i in range(2)]
    apply_rates(flows)
    assert [f.rate for f in flows] == pytest.approx([2.0, 2.0])


def test_water_fill_tie_order_ignores_flow_order_and_hashes():
    # "x" (5 over 3 users) and "y" (10/3 over 2 users) tie at 5/3.
    # Freezing "y" first would leave "x" a residual of 3.333...3 and
    # rate its two single-link users at 1.666...65; the route order
    # freezes "x" first, so every flow gets exactly 5/3.
    caps = {"x": 5.0, "y": 10.0 / 3.0}
    routes = {"x1": ["x"], "xy": ["x", "y"], "x2": ["x"], "y": ["y"]}
    assert 5.0 / 3.0 == caps["y"] / 2
    for order in itertools.permutations(routes):
        # Fresh objects in every order: new addresses, new set order.
        flows = [FakeFlow(name, routes[name], caps) for name in order]
        rates = {f.name: rate for f, rate in water_fill(flows).items()}
        assert rates == dict.fromkeys(routes, 5.0 / 3.0)


# ---------------------------------------------------------------------------
# MaxMinSolver unit behaviour
# ---------------------------------------------------------------------------

def test_solver_add_solve_matches_oracle():
    caps = {"x": 6.0}
    solver = MaxMinSolver()
    flows = [FakeFlow(i, ["x"], caps) for i in range(3)]
    for f in flows:
        solver.add(f)
    assert solver.solve() == 3
    assert [f.rate for f in flows] == pytest.approx([2.0] * 3)
    solver.assert_equivalent()


def test_solver_solve_is_noop_when_clean():
    solver = MaxMinSolver()
    f = FakeFlow(0, ["x"], {"x": 1.0})
    solver.add(f)
    assert solver.solve() == 1
    assert solver.solve() == 0


def test_solver_component_isolation():
    """A mutation on one component must not re-rate the other."""
    caps = {"left": 10.0, "right": 10.0}
    left = [FakeFlow(f"l{i}", ["left"], caps) for i in range(2)]
    right = [FakeFlow(f"r{i}", ["right"], caps) for i in range(2)]
    solver = MaxMinSolver()
    for f in left + right:
        solver.add(f)
    solver.solve()

    # Scribble on the right-component rates: a correct incremental solve
    # of a left-only mutation must leave the scribbles in place.
    for f in right:
        f.rate = -1.0
    newcomer = FakeFlow("l2", ["left"], caps)
    solver.add(newcomer)
    touched = solver.solve()
    assert touched == 3  # left flows + newcomer only
    assert [f.rate for f in left + [newcomer]] == pytest.approx(
        [10.0 / 3] * 3)
    assert [f.rate for f in right] == [-1.0, -1.0]


def test_solver_remove_redistributes():
    caps = {"x": 8.0}
    solver = MaxMinSolver()
    flows = [FakeFlow(i, ["x"], caps) for i in range(4)]
    for f in flows:
        solver.add(f)
    solver.solve()
    solver.remove(flows[0])
    assert solver.solve() == 3
    assert [f.rate for f in flows[1:]] == pytest.approx([8.0 / 3] * 3)
    solver.assert_equivalent()


def test_solver_remove_unknown_flow_is_noop():
    solver = MaxMinSolver()
    solver.remove(FakeFlow("ghost", [], {}))
    assert solver.solve() == 0


def test_solver_touch_picks_up_capacity_change():
    caps = {"x": 10.0}
    solver = MaxMinSolver()
    f = FakeFlow(0, ["x"], caps)
    solver.add(f)
    solver.solve()
    assert f.rate == pytest.approx(10.0)
    caps["x"] = 4.0
    solver.touch("x")
    assert solver.solve() == 1
    assert f.rate == pytest.approx(4.0)
    solver.assert_equivalent()


def test_solver_flows_on_union():
    caps = {"a": 1.0, "b": 1.0}
    fa = FakeFlow("a", ["a"], caps)
    fb = FakeFlow("b", ["b"], caps)
    fab = FakeFlow("ab", ["a", "b"], caps)
    solver = MaxMinSolver()
    for f in (fa, fb, fab):
        solver.add(f)
    assert solver.flows_on("a") == {fa, fab}
    assert solver.flows_on("a", "b") == {fa, fb, fab}
    assert solver.flows_on("missing") == set()


def test_solver_solve_full_matches_incremental():
    caps = {"a": 5.0, "b": 3.0}
    flows = [FakeFlow(0, ["a"], caps), FakeFlow(1, ["a", "b"], caps),
             FakeFlow(2, ["b"], caps)]
    solver = MaxMinSolver()
    for f in flows:
        solver.add(f)
    solver.solve()
    incremental = [f.rate for f in flows]
    assert solver.solve_full() == 3
    assert [f.rate for f in flows] == pytest.approx(incremental, rel=1e-9)


def test_assert_equivalent_raises_on_stale_rate():
    caps = {"x": 4.0}
    solver = MaxMinSolver()
    f = FakeFlow(0, ["x"], caps)
    solver.add(f)
    solver.solve()
    f.rate = 999.0
    with pytest.raises(AssertionError, match="diverged"):
        solver.assert_equivalent()


# ---------------------------------------------------------------------------
# Wall-clock floor: 1k-flow churn, incremental re-solve vs batch refill.
# ---------------------------------------------------------------------------

def _churn_flow(serial, caps, links):
    """Flow ``serial``: one link, or an adjacent pair for every fourth.

    Pairing ``2k`` with ``2k+1`` keeps contention components at two
    links, the fleet shape (many small independent jobs) the incremental
    solver exploits.
    """
    first = serial % links
    keys = [first, first ^ 1] if serial % 4 == 0 else [first]
    return FakeFlow(serial, keys, caps)


def _churn(full, flows=1000, links=64, churn_ops=100, seed=7):
    """Time ``churn_ops`` remove-one/add-one cycles over ``flows``
    concurrent flows, each cycle followed by one solve.

    Returns ``(seconds, solver)``; ``full`` refills every flow on each
    solve (the batch oracle) instead of re-solving touched components.
    The loop runs with the garbage collector held off, as :mod:`timeit`
    times: one collection over the rest of the suite's heap is longer
    than the whole incremental leg.
    """
    caps = dict.fromkeys(range(links), 10e9)
    solver = MaxMinSolver()
    population = [_churn_flow(i, caps, links) for i in range(flows)]
    for flow in population:
        solver.add(flow)
    solve = solver.solve_full if full else solver.solve
    solve()
    rng = random.Random(seed)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for serial in range(flows, flows + churn_ops):
            solver.remove(population.pop(rng.randrange(len(population))))
            fresh = _churn_flow(serial, caps, links)
            population.append(fresh)
            solver.add(fresh)
            solve()
        return time.perf_counter() - t0, solver
    finally:
        if enabled:
            gc.enable()


def test_churn_incremental_solve_is_5x_faster_than_batch_refill():
    """One job's transfer finishing must not cost a full re-solve over
    every other job's flows."""
    incremental_s, solver = _churn(full=False)
    solver.assert_equivalent(1e-9)
    batch_s, _ = _churn(full=True)
    assert batch_s >= 5.0 * incremental_s, (
        f"incremental churn only {batch_s / incremental_s:.1f}x faster "
        f"than batch refill (floor 5x)")


# ---------------------------------------------------------------------------
# Property: random mutation sequences — incremental == batch at 1e-9.
# ---------------------------------------------------------------------------

N_LINKS = 6
#: Four links and a few routes over them, so component shapes recur.
SHAPE_ROUTES = ((0,), (1,), (0, 1), (1, 2), (2, 3), (3, 0), (2,))
#: Tie-prone capacities; a poke can return a link to an old value.
SHAPE_CAPACITIES = (1.0, 5.0, 10.0 / 3.0, 10.0)


@st.composite
def mutation_ops(draw, routes=st.lists(st.integers(0, N_LINKS - 1),
                                       min_size=1, max_size=3, unique=True),
                 links=st.integers(0, N_LINKS - 1),
                 capacities=st.floats(min_value=0.5, max_value=50.0),
                 max_ops=25):
    """A sequence of (op, payload) mutations over shared links."""
    ops = []
    n = draw(st.integers(min_value=1, max_value=max_ops))
    for _ in range(n):
        op = draw(st.sampled_from(["add", "remove", "poke"]))
        if op == "add":
            ops.append(("add", tuple(draw(routes))))
        elif op == "remove":
            ops.append(("remove", draw(st.integers(0, 10 ** 6))))
        else:
            ops.append(("poke", (draw(links), draw(capacities))))
    return ops


def replay(ops, links=N_LINKS):
    """Apply ``ops`` to a fresh solver; yield ``(solver, alive)`` after
    each mutation, before any solve."""
    caps = dict.fromkeys(range(links), 10.0)
    solver = MaxMinSolver()
    alive = []
    for serial, (op, payload) in enumerate(ops):
        if op == "add":
            flow = FakeFlow(serial, list(payload), caps)
            alive.append(flow)
            solver.add(flow)
        elif op == "remove":
            if alive:
                solver.remove(alive.pop(payload % len(alive)))
        else:
            link, cap = payload
            caps[link] = cap
            solver.touch(link)
        yield solver, alive


@settings(max_examples=60, deadline=None)
@given(ops=mutation_ops())
def test_property_incremental_matches_batch(ops):
    for solver, _alive in replay(ops):
        solver.solve()
        # The contract: after every mutation the incremental rates are
        # indistinguishable from a from-scratch batch water-fill.
        solver.assert_equivalent(1e-9)


@settings(max_examples=25, deadline=None)
@given(ops=mutation_ops())
def test_property_solve_touches_no_more_than_full(ops):
    """Incremental work is bounded by the full re-solve's."""
    for solver, _alive in replay(ops):
        assert solver.solve() <= len(solver)


@settings(max_examples=150, deadline=None)
@given(ops=mutation_ops(st.sampled_from(SHAPE_ROUTES), st.integers(0, 3),
                        st.sampled_from(SHAPE_CAPACITIES), max_ops=40))
def test_property_replayed_fills_equal_a_fresh_fill(ops):
    """Shapes recur, at old and new capacities: every rate a solve
    assigns, replayed or filled, is ``==`` a fresh batch fill."""
    for solver, alive in replay(ops, links=4):
        solver.solve()
        assert {f: f.rate for f in alive} == water_fill(alive)


#: Pairwise disjoint routes, one crossing its link twice: every
#: component holds one route class.
DISJOINT_ROUTES = ((0,), (1, 2), (3, 3))
#: Capacities for the closed form, a dead link and an unbounded one
#: among them.
CLOSED_FORM_CAPACITIES = st.one_of(
    st.sampled_from((0.0, math.inf, 1.0, 10.0 / 3.0)),
    st.floats(min_value=1e-3, max_value=1e12))


@settings(deadline=None)
@given(route=st.lists(st.integers(0, 3), min_size=1, max_size=4),
       members=st.integers(1, 300),
       capacities=st.lists(CLOSED_FORM_CAPACITIES, min_size=4,
                           max_size=4))
def test_property_one_route_class_is_rated_in_closed_form(route, members,
                                                          capacities):
    """A one-class component's rate is ``==`` what ``water_fill`` gives,
    and it is rated without the fill memo."""
    caps = dict(enumerate(capacities))
    flows = [FakeFlow(i, route, caps) for i in range(members)]
    solver = MaxMinSolver()
    for flow in flows:
        solver.add(flow)
    assert solver.solve() == members
    assert {f: f.rate for f in flows} == water_fill(flows)
    assert not solver._fills


@settings(deadline=None)
@given(ops=mutation_ops(st.sampled_from(DISJOINT_ROUTES), st.integers(0, 3),
                        CLOSED_FORM_CAPACITIES, max_ops=40))
def test_property_one_class_scripts_leave_the_fill_memo_empty(ops):
    for solver, alive in replay(ops, links=4):
        solver.solve()
        assert {f: f.rate for f in alive} == water_fill(alive)
        assert not solver._fills


def _recount(solver):
    """Each class's (link, other live class) incidences, recounted from
    the per-link class index; 0 for a class that is not live."""
    counts = [0] * len(solver._shared)
    for classes in solver._classes_on.values():
        for cid in classes:
            counts[cid] += len(classes) - 1
    return counts


@settings(deadline=None)
@given(shared=mutation_ops(),
       disjoint=mutation_ops(st.sampled_from(DISJOINT_ROUTES),
                             st.integers(0, 3), CLOSED_FORM_CAPACITIES))
def test_property_isolation_counts_match_a_recount(shared, disjoint):
    """After every add, remove or touch, each class's isolation count
    equals a recount from the link index, and scripts whose classes
    share no link rate every solve without the component walk.  A count
    left too high keeps every rate right and only walks, so the rate
    properties cannot see it."""
    for solver, _alive in replay(shared):
        assert solver._shared == _recount(solver)
        solver.solve()
    walk = mock.Mock(side_effect=AssertionError("entered the walk"))
    with mock.patch.object(MaxMinSolver, "_walk", walk):
        for solver, _alive in replay(disjoint, links=4):
            assert solver._shared == _recount(solver)
            solver.solve()


# ---------------------------------------------------------------------------
# Property: live scheduler — equivalence during runs + byte conservation.
# ---------------------------------------------------------------------------

def _make_link(bw_gbps, a, b):
    spec = LinkSpec(f"test {bw_gbps}GB/s", Protocol.PCIE4, 16,
                    bw_gbps * GB, 0.0)
    return Link(spec, a, b)


@settings(max_examples=30, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=1, max_size=3,
                     unique=True),      # which links the flow crosses
            st.floats(min_value=0.05, max_value=4.0),   # GB to move
            st.floats(min_value=0.0, max_value=2.0),    # start time
        ),
        min_size=1, max_size=10),
    bws=st.lists(st.floats(min_value=1.0, max_value=20.0),
                 min_size=4, max_size=4),
)
def test_property_scheduler_equivalence_and_byte_conservation(jobs, bws):
    env = Environment()
    sched = FlowScheduler(env)
    links = [_make_link(bw, f"n{i}", f"n{i + 1}")
             for i, bw in enumerate(bws)]

    expected = {i: 0.0 for i in range(len(links))}

    def runner(link_ids, gb, delay):
        if delay > 0:
            yield env.timeout(delay)
        segments = [Segment(links[i], f"n{i}", f"n{i + 1}")
                    for i in link_ids]
        # Rates must match the batch oracle at every decision point.
        sched.assert_rates_equivalent(1e-9)
        yield sched.start_flow(segments, gb * GB)
        sched.assert_rates_equivalent(1e-9)

    for link_ids, gb, delay in jobs:
        env.process(runner(link_ids, gb, delay))
        for i in link_ids:
            expected[i] += gb * GB
    env.run()

    assert sched.active_flows == []
    assert sched.completed == len(jobs)
    # Byte conservation: each directional link counter equals the sum of
    # the payloads of every completed flow that crossed it.
    for i, link in enumerate(links):
        assert link.bytes_moved(f"n{i}", f"n{i + 1}") == pytest.approx(
            expected[i], rel=1e-6, abs=1e-3)
        assert link.bytes_moved(f"n{i + 1}", f"n{i}") == 0.0
