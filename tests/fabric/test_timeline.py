"""The fluid timeline against independent copies of its algorithm.

``water_fill`` is the oracle for the rates a solve assigns;
``_ReferenceTimeline`` is the oracle for the timeline around the solves.
It writes the algorithm out in full with O(flows) scans: the drained
scan under the pre-solve rates on ``remaining - rate * (now - t0)``, a
batch ``apply_rates`` over every live flow (no incremental solver, so
no component walk or fill memo in common with the timeline under test),
a re-anchor of each flow whose rate moved, and the horizon ``min`` of
``t0 + remaining / rate`` over positive rates, run from a
``(time, seq, fn)`` heap the way the fast-path engine runs its timeline:
every event retires the drained flows, and the solve, the re-anchor and
the timer come once per instant, after its last event, the timer in the
heap slot of the instant's last retire.
Random arrival and capacity-change scripts run through it and through a
:class:`FluidTimeline` run the same way; both must drain the same flows
in the same order at ``==`` times.

``_SubtractionTimeline`` keeps the earlier arithmetic, which subtracted
``min(remaining, rate * dt)`` from every live flow at every event.  It
rounds differently, so it must drain the same flows only within
``SUBTRACTION_TOLERANCE``.
"""

import math
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import GB, Link, LinkSpec, Protocol
from repro.fabric.flows import FlowScheduler, FluidTimeline, Segment
from repro.fabric.maxmin import apply_rates
from repro.sim import Environment

#: The timeline's drain thresholds, restated.
EPS_BYTES = 1e-6
EPS_SECONDS = 1e-9
#: How far a drain time of the subtraction arithmetic may sit from the
#: timeline's: the drain rule's seconds threshold.  The two round
#: differently, by a few ulps of the clock in practice
#: (3.857142857142857 against 3.8571428571428577, say).
SUBTRACTION_TOLERANCE = EPS_SECONDS

#: Three links that paths chain into one contention component, and
#: three that stay disjoint.
SHARED = ("s0", "s1", "s2")
DISJOINT = ("d0", "d1", "d2")
PATHS = (("s0",), ("s0", "s1"), ("s1", "s2"), ("s2", "s0"), ("s1",),
         ("d0",), ("d1",), ("d2",))
#: Slow links, where the bytes rule can drain a flow microseconds early,
#: and fast ones, where only the heap's next drains need checking.
CAPACITIES = (1.0, 3.0, 10.0, 10.0 / 3.0, 1e4, 5e4 / 3.0)
#: Sub-epsilon, repeated (tie-prone) and arbitrary sizes.
SIZES = st.one_of(st.sampled_from((1e-7, 0.0, 2.0, 5.0, 10.0 / 7.0)),
                  st.floats(1e-3, 40.0))
TIMES = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0)),
                  st.floats(0.0, 4.0))


class _Segment:
    __slots__ = ("key", "capacity")

    def __init__(self, key, capacity):
        self.key = key
        self.capacity = capacity


class _EventHeap:
    """``(time, seq, fn)`` events; equal times run in scheduling order.

    A timeline driven from it retires drained flows at every event and
    calls :meth:`settled`; its ``resolve`` then runs once per instant,
    after every other event at that time, and the timer it returns
    takes the slot of the instant's last settle.
    """

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.drains = []
        self._slot = 0
        self._resolving = False

    def schedule(self, time, fn, seq=None):
        if seq is None:
            self.seq += 1
            seq = self.seq
        heappush(self.heap, (time, seq, fn))

    def done(self, label, then=None):
        def on_done(t):
            self.drains.append((label, t))
            if then is not None:
                then(t)
        return on_done

    def settled(self, now):
        self.seq += 1
        self._slot = self.seq
        if not self._resolving:
            self._resolving = True
            self.schedule(now, self._end_instant, seq=math.inf)

    def _end_instant(self, now):
        self._resolving = False
        timer = self.resolve(now)
        if timer is not None:
            seconds, on_timer = timer
            self.schedule(now + seconds, on_timer, seq=self._slot)

    def run(self, capacities, script):
        segments = {key: _Segment(key, cap) for key, cap in capacities}
        for label, (kind, time, target, value) in enumerate(script):
            if kind == "arrive":
                route = tuple(segments[key] for key in target)
                self.schedule(time, lambda t, r=route, n=value, l=label:
                              self.arrive(r, n, l, t))
            else:
                seg = segments[target]
                self.schedule(time, lambda t, s=seg, c=value:
                              self.touch(s, c, t))
        for _ in range(100_000):
            if not self.heap:
                return self.drains
            time, _seq, fn = heappop(self.heap)
            fn(time)
        raise AssertionError("timeline did not settle")


class _HeapTimeline(_EventHeap):
    """A :class:`FluidTimeline` run as the fast-path engine runs it."""

    def __init__(self):
        super().__init__()
        self.timeline = FluidTimeline()

    def arrive(self, segments, nbytes, label, now, then=None):
        done = self.done(label, then)
        flow = self.timeline.add(segments, nbytes, done, now)
        if flow is None:
            self.schedule(now, done)
            return
        self.retire(now)

    def touch(self, segment, capacity, now):
        segment.capacity = capacity
        self.timeline.advance(now)
        self.timeline.solver.touch(segment.key)
        self.retire(now)

    def retire(self, now):
        for flow in self.timeline.retire():
            self.schedule(now, flow.done)
        self.settled(now)

    def resolve(self, now):
        timer = self.timeline.resolve()
        if timer is None:
            return None
        generation, seconds = timer
        return seconds, lambda t: self.on_timer(t, generation)

    def on_timer(self, now, generation):
        if self.timeline.current(generation):
            self.timeline.advance(now)
            self.retire(now)


class _ReferenceFlow:
    __slots__ = ("segments", "remaining", "t0", "rate", "on_done")

    def __init__(self, segments, nbytes, on_done, now):
        self.segments = segments
        self.remaining = float(nbytes)
        self.t0 = now
        self.rate = 0.0
        self.on_done = on_done


class _ReferenceTimeline(_EventHeap):
    """The fluid timeline written out with O(flows) scans."""

    def __init__(self):
        super().__init__()
        self._flows = {}
        self._flow_ids = 0
        self._generation = 0

    def arrive(self, segments, nbytes, label, now, then=None):
        on_done = self.done(label, then)
        if nbytes <= EPS_BYTES or not segments:
            self.schedule(now, on_done)
            return
        self._flow_ids += 1
        self._flows[self._flow_ids] = _ReferenceFlow(segments, nbytes,
                                                     on_done, now)
        self._retire(now)

    def touch(self, segment, capacity, now):
        segment.capacity = capacity
        self._retire(now)

    @staticmethod
    def _left(flow, now):
        return flow.remaining - flow.rate * (now - flow.t0)

    def _retire(self, now):
        # Judged under the rates of the instant's last solve, whatever
        # arrived or drained since.
        self._generation += 1
        drained = [fid for fid, f in self._flows.items()
                   if self._left(f, now) <= EPS_BYTES
                   or (f.rate > 0
                       and self._left(f, now) / f.rate <= EPS_SECONDS)]
        for fid in drained:
            self.schedule(now, self._flows.pop(fid).on_done)
        self.settled(now)

    def resolve(self, now):
        old = {fid: f.rate for fid, f in self._flows.items()}
        apply_rates(self._flows.values())
        for fid, f in self._flows.items():
            if f.rate != old[fid]:
                # Re-anchor: stream at the old rate up to now.
                f.remaining -= old[fid] * (now - f.t0)
                f.t0 = now
        drains = [f.t0 + f.remaining / f.rate for f in self._flows.values()
                  if f.rate > 0]
        if not drains:
            return None
        gen = self._generation
        return min(drains) - now, lambda t: self._on_timer(t, gen)

    def _on_timer(self, now, generation):
        if generation == self._generation:
            self._retire(now)


class _SubtractionFlow:
    __slots__ = ("segments", "remaining", "rate", "on_done")

    def __init__(self, segments, nbytes, on_done):
        self.segments = segments
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.on_done = on_done


class _SubtractionTimeline(_EventHeap):
    """The earlier arithmetic: every live flow streams at every event."""

    def __init__(self):
        super().__init__()
        self._flows = {}
        self._flow_ids = 0
        self._last_update = 0.0
        self._generation = 0

    def arrive(self, segments, nbytes, label, now):
        on_done = self.done(label)
        if nbytes <= EPS_BYTES or not segments:
            self.schedule(now, on_done)
            return
        flow = _SubtractionFlow(segments, nbytes, on_done)
        self._advance(now)
        self._flow_ids += 1
        self._flows[self._flow_ids] = flow
        self._retire(now)

    def touch(self, segment, capacity, now):
        segment.capacity = capacity
        self._advance(now)
        self._retire(now)

    def _advance(self, now):
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for flow in self._flows.values():
            delivered = min(flow.remaining, flow.rate * dt)
            if delivered > 0:
                flow.remaining -= delivered

    def _retire(self, now):
        self._generation += 1
        drained = [fid for fid, f in self._flows.items()
                   if f.remaining <= EPS_BYTES
                   or (f.rate > 0 and f.remaining / f.rate <= EPS_SECONDS)]
        for fid in drained:
            self.schedule(now, self._flows.pop(fid).on_done)
        self.settled(now)

    def resolve(self, now):
        apply_rates(self._flows.values())
        if not self._flows:
            return None
        gen = self._generation
        horizon = min(f.remaining / f.rate for f in self._flows.values()
                      if f.rate > 0)
        return horizon, lambda t: self._on_timer(t, gen)

    def _on_timer(self, now, generation):
        if generation != self._generation:
            return
        self._advance(now)
        self._retire(now)


def _drains(capacities, script):
    """Drain logs of the timeline under test and of the reference."""
    return (_HeapTimeline().run(capacities, script),
            _ReferenceTimeline().run(capacities, script))


ARRIVAL = st.tuples(st.just("arrive"), TIMES, st.sampled_from(PATHS),
                    SIZES)
TOUCH = st.tuples(st.just("touch"), TIMES,
                  st.sampled_from(SHARED + DISJOINT),
                  st.sampled_from(CAPACITIES))


CAPACITY_MAPS = st.tuples(*(st.tuples(st.just(key),
                                       st.sampled_from(CAPACITIES))
                             for key in SHARED + DISJOINT))
SCRIPTS = st.lists(st.one_of(ARRIVAL, ARRIVAL, ARRIVAL, TOUCH),
                   min_size=1, max_size=24)


@settings(deadline=None)
@given(capacities=CAPACITY_MAPS, script=SCRIPTS)
def test_timeline_drains_like_the_reference(capacities, script):
    got, want = _drains(capacities, script)
    assert got == want
    arrivals = sum(1 for event in script if event[0] == "arrive")
    assert len(got) == arrivals


@settings(deadline=None)
@given(capacities=CAPACITY_MAPS, script=SCRIPTS)
def test_timeline_drains_like_the_subtraction_arithmetic(capacities,
                                                         script):
    got = dict(_HeapTimeline().run(capacities, script))
    want = dict(_SubtractionTimeline().run(capacities, script))
    assert got.keys() == want.keys()
    for label, time in got.items():
        assert math.isclose(time, want[label], rel_tol=0.0,
                            abs_tol=SUBTRACTION_TOLERANCE), label


def test_same_instant_equal_flows_share_one_link():
    capacities = tuple((key, 10.0) for key in SHARED + DISJOINT)
    script = [("arrive", 0.0, ("s0",), 5.0), ("arrive", 0.0, ("s0",), 5.0),
              ("arrive", 0.0, ("d0",), 1e-7),
              ("touch", 0.25, "s0", 3.0), ("arrive", 0.5, ("s0", "s1"), 2.0)]
    got, want = _drains(capacities, script)
    assert got == want
    # The sub-epsilon flow finishes on arrival; the late flow gets a
    # third of the retrained link and 2 bytes drain by t = 2.5; the tied
    # pair drains together, in arrival order.
    assert got[:2] == [(2, 0.0), (4, 2.5)]
    assert [label for label, _t in got[2:]] == [0, 1]
    assert got[2][1] == got[3][1]


@pytest.mark.parametrize("harness", [_HeapTimeline, _ReferenceTimeline])
def test_a_rate_that_lasts_no_time_drains_nothing(harness):
    # Two flows share a 1e4 B/s link at 5e3 B/s each.  When the short
    # one drains, the survivor has 8 µB left: 1.6 ns at 5e3 B/s, 0.8 ns
    # at the 1e4 B/s the drain frees for it.  The drained flow's
    # completion starts a third flow at the same instant, which halves
    # the survivor's rate again.  Solving per event, that arrival judged
    # the survivor under the zero-length 1e4 B/s rate and drained it
    # there; solved once per instant, it drains at its own timer.
    h = harness()
    link = _Segment("s0", 1e4)
    h.schedule(0.0, lambda t: h.arrive(
        (link,), 1.0, "short", t,
        then=lambda now: h.arrive((link,), 1.0, "next", now)))
    h.schedule(0.0, lambda t: h.arrive((link,), 1.0 + 8e-6, "survivor", t))
    drains = dict(h.run((), ()))
    drained = drains["short"]
    assert drained == 1.0 / 5e3
    assert drained < drains["survivor"] <= drained + 2 * EPS_SECONDS


def test_drain_is_judged_under_the_pre_solve_rates():
    # 2 µB left at 1 B/s is 2 µs of streaming, so the flow is live when
    # the link retrains; at the new 1e4 B/s it would count as drained.
    capacities = tuple((key, 1.0) for key in SHARED + DISJOINT)
    touched = 1.0 - 2e-6
    script = [("arrive", 0.0, ("s0",), 1.0), ("touch", touched, "s0", 1e4)]
    got, want = _drains(capacities, script)
    assert got == want
    assert touched < got[0][1] < touched + 1e-9


@pytest.mark.parametrize("capacity, early", [
    # At 1 B/s, 0.5 µB left is 0.5 µs from draining: far outside the
    # seconds rule, inside the bytes rule.
    (1.0, 1.0 - 5e-7),
    # At 1e4 B/s, 5 µB left is outside the bytes rule and 0.5 ns from
    # draining, inside the seconds rule.
    (1e4, 1e-4 - 5e-10),
])
def test_a_flow_inside_the_drain_rule_drains_at_an_unrelated_event(
        capacity, early):
    # An arrival on another link at that instant drains the flow ahead
    # of its own timer.
    capacities = tuple((key, capacity) for key in SHARED + DISJOINT)
    script = [("arrive", 0.0, ("s0",), 1.0), ("arrive", early, ("d0",), 1.0)]
    got, want = _drains(capacities, script)
    assert got == want
    assert got[0] == (0, early)


def test_a_slow_drain_keeps_a_due_fast_flow_on_the_heap():
    # At one arrival instant a 1 B/s flow drains by the bytes rule while
    # a 1e4 B/s flow on a disjoint link sits 1.5 ns from draining: due
    # inside the heap window, outside the seconds rule.  The fast flow
    # must stay on the heap and drain at its own time.
    now = 1.0 - 5e-7
    capacities = (("s0", 1.0), ("s1", 1.0), ("s2", 1.0),
                  ("d0", 1e4), ("d1", 1e4), ("d2", 1e4))
    script = [("arrive", 0.0, ("s0",), 1.0),
              ("arrive", 0.0, ("d0",), 1e4 * (now + 1.5e-9)),
              ("arrive", now, ("d1",), 1.0)]
    got, want = _drains(capacities, script)
    assert got == want
    assert [label for label, _t in got] == [0, 1, 2]
    assert got[0][1] == now
    assert now + 1e-9 < got[1][1] < now + 2e-9


def test_a_steady_flow_leaves_two_breakpoints_per_counter():
    # One flow streams a->b alone for its whole life while flows on the
    # reverse direction and on another link come and go and re-rate one
    # another: its counter changes slope when it starts and when it
    # drains, and nowhere else.
    spec = LinkSpec("test 10GB/s", Protocol.PCIE4, 16, 10 * GB, 0.0)
    link, other = Link(spec, "a", "b"), Link(spec, "c", "d")
    env = Environment()
    scheduler = FlowScheduler(env)
    churn = [Segment(link, "b", "a"), Segment(other, "c", "d")]

    def churner():
        for i in range(40):
            scheduler.start_flow([churn[i % 2]], (1 + i % 3) * GB)
            yield env.timeout(0.05)

    scheduler.start_flow([Segment(link, "a", "b")], 10 * GB)
    env.process(churner())
    env.run()
    times, totals = link.counters[("a", "b")].breakpoints()
    assert times.tolist() == [0.0, 1.0]
    assert totals.tolist() == [0.0, 10 * GB]
    assert link.counters[("a", "b")].rate == 0.0
    for counter in (link.counters[("b", "a")], other.counters[("c", "d")]):
        assert len(counter.breakpoints()[0]) > 10
        assert counter.rate == 0.0


def test_the_drain_heap_stays_bounded():
    # A long flow shares one link with a stream of short ones.  Each
    # arrival and drain re-rates it and pushes a fresh drain entry; the
    # entries left behind whenever its rate rises drain far in the
    # future, so without compaction they would pile up for its lifetime.
    harness = _HeapTimeline()
    timeline = harness.timeline
    link = _Segment("s0", 200.0)
    seen = {}
    longest = [0]

    def check(_now):
        seen.update(timeline.flows)
        longest[0] = max(longest[0], len(timeline._drains))
        assert len(timeline._drains) <= 3 * len(timeline.flows) + 64

    harness.schedule(0.0, lambda t: harness.arrive((link,), 1e5, 0, t))
    for i in range(1, 1501):
        harness.schedule(i * 0.02, lambda t, n=0.5 + i % 5, label=i:
                         harness.arrive((link,), n, label, t))
        harness.schedule(i * 0.02, check)
    assert [label for label, _t in harness.run((), ())][-1] == 0
    assert len(harness.drains) == 1501
    assert seen[0].stamp > 10 * longest[0]
