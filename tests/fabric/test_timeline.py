"""The fluid timeline against an independent copy of its algorithm.

``water_fill`` is the oracle for the rates a solve assigns;
``_ReferenceTimeline`` is the oracle for the timeline around the solves.
It writes the algorithm out in full with O(flows) scans: the
``min(remaining, rate * dt)`` advance, the drained scan under the
pre-solve rates, a batch ``apply_rates`` over every live flow (no
incremental solver, so no component walk or fill memo in common with
the timeline under test), and the horizon ``min`` over positive rates,
run from a ``(time, seq, fn)`` heap the way the fast-path engine runs its
timeline.  Random arrival and capacity-change scripts run through it and
through a :class:`FluidTimeline` run the same way; both must drain the
same flows in the same order at ``==`` times.
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.flows import FluidTimeline
from repro.fabric.maxmin import apply_rates

#: The timeline's drain thresholds, restated.
EPS_BYTES = 1e-6
EPS_SECONDS = 1e-9

#: Three links that paths chain into one contention component, and
#: three that stay disjoint.
SHARED = ("s0", "s1", "s2")
DISJOINT = ("d0", "d1", "d2")
PATHS = (("s0",), ("s0", "s1"), ("s1", "s2"), ("s2", "s0"), ("s1",),
         ("d0",), ("d1",), ("d2",))
CAPACITIES = (1.0, 3.0, 10.0, 10.0 / 3.0)
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
    """``(time, seq, fn)`` events; equal times run in scheduling order."""

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.drains = []

    def schedule(self, time, fn):
        self.seq += 1
        heappush(self.heap, (time, self.seq, fn))

    def done(self, label):
        return lambda t: self.drains.append((label, t))

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

    def arrive(self, segments, nbytes, label, now):
        done = self.done(label)
        flow = self.timeline.add(segments, nbytes, done, now)
        if flow is None:
            self.schedule(now, done)
            return
        self.settle(now)

    def touch(self, segment, capacity, now):
        segment.capacity = capacity
        self.timeline.advance(now)
        self.timeline.solver.touch(segment.key)
        self.settle(now)

    def settle(self, now):
        for flow in self.timeline.recompute():
            self.schedule(now, flow.done)
        timer = self.timeline.horizon()
        if timer is not None:
            generation, seconds = timer
            self.schedule(now + seconds,
                          lambda t: self.on_timer(t, generation))

    def on_timer(self, now, generation):
        if self.timeline.current(generation):
            self.timeline.advance(now)
            self.settle(now)


class _ReferenceFlow:
    __slots__ = ("segments", "remaining", "rate", "on_done")

    def __init__(self, segments, nbytes, on_done):
        self.segments = segments
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.on_done = on_done


class _ReferenceTimeline(_EventHeap):
    """The fluid timeline written out with O(flows) scans."""

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
        flow = _ReferenceFlow(segments, nbytes, on_done)
        self._advance(now)
        self._flow_ids += 1
        self._flows[self._flow_ids] = flow
        self._recompute(now)

    def touch(self, segment, capacity, now):
        segment.capacity = capacity
        self._advance(now)
        self._recompute(now)

    def _advance(self, now):
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for flow in self._flows.values():
            delivered = min(flow.remaining, flow.rate * dt)
            if delivered > 0:
                flow.remaining -= delivered

    def _recompute(self, now):
        drained = [fid for fid, f in self._flows.items()
                   if f.remaining <= EPS_BYTES
                   or (f.rate > 0 and f.remaining / f.rate <= EPS_SECONDS)]
        for fid in drained:
            self.schedule(now, self._flows.pop(fid).on_done)
        apply_rates(self._flows.values())
        self._arm_timer(now)

    def _arm_timer(self, now):
        self._generation += 1
        if not self._flows:
            return
        gen = self._generation
        horizon = min(f.remaining / f.rate for f in self._flows.values()
                      if f.rate > 0)
        self.schedule(now + horizon, lambda t: self._on_timer(t, gen))

    def _on_timer(self, now, generation):
        if generation != self._generation:
            return
        self._advance(now)
        self._recompute(now)


def _drains(capacities, script):
    """Drain logs of the timeline under test and of the reference."""
    return (_HeapTimeline().run(capacities, script),
            _ReferenceTimeline().run(capacities, script))


ARRIVAL = st.tuples(st.just("arrive"), TIMES, st.sampled_from(PATHS),
                    SIZES)
TOUCH = st.tuples(st.just("touch"), TIMES,
                  st.sampled_from(SHARED + DISJOINT),
                  st.sampled_from(CAPACITIES))


@settings(max_examples=200, deadline=None)
@given(capacities=st.tuples(*(st.tuples(st.just(key),
                                        st.sampled_from(CAPACITIES))
                              for key in SHARED + DISJOINT)),
       script=st.lists(st.one_of(ARRIVAL, ARRIVAL, ARRIVAL, TOUCH),
                       min_size=1, max_size=24))
def test_timeline_drains_like_the_reference(capacities, script):
    got, want = _drains(capacities, script)
    assert got == want
    arrivals = sum(1 for event in script if event[0] == "arrive")
    assert len(got) == arrivals


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


def test_drain_is_judged_under_the_pre_solve_rates():
    # 2 µB left at 1 B/s is 2 µs of streaming, so the flow is live when
    # the link retrains; at the new 1e4 B/s it would count as drained.
    capacities = tuple((key, 1.0) for key in SHARED + DISJOINT)
    touched = 1.0 - 2e-6
    script = [("arrive", 0.0, ("s0",), 1.0), ("touch", touched, "s0", 1e4)]
    got, want = _drains(capacities, script)
    assert got == want
    assert touched < got[0][1] < touched + 1e-9
