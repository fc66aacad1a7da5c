"""Tests for the sim-time span tracer (repro.telemetry.trace).

Includes the property test required by the observability PR: *any*
sequence of span opens/closes — including out-of-order and never-closed
spans — must export well-formed Chrome trace events, with ``dur >= 0``
and no two spans overlapping on one (pid, tid).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    Category,
    NULL_TRACER,
    Span,
    Tracer,
    Track,
    to_chrome_trace,
    validate_chrome_trace,
)


class FakeClock:
    """Minimal Environment stand-in: just a settable ``now``."""

    def __init__(self, now=0.0):
        self.now = now


def tracer_at(now=0.0):
    clock = FakeClock(now)
    return clock, Tracer(clock)


TRACK = Track("host0", "gpu0")


class TestSpanBasics:
    def test_span_records_interval(self):
        clock, tracer = tracer_at()
        span = tracer.span("forward", Category.COMPUTE, TRACK, step=3)
        clock.now = 2.5
        span.close()
        assert span.start == 0.0 and span.end == 2.5
        assert span.duration == 2.5
        assert span.attrs == {"step": 3}
        assert tracer.spans == [span]

    def test_context_manager_closes_at_exit_time(self):
        clock, tracer = tracer_at()
        with tracer.span("io", Category.STORAGE, TRACK) as span:
            clock.now = 1.0
        assert span.closed and span.end == 1.0

    def test_close_is_idempotent(self):
        clock, tracer = tracer_at()
        span = tracer.span("x", Category.OTHER, TRACK)
        clock.now = 1.0
        span.close()
        clock.now = 5.0
        span.close()
        assert span.end == 1.0

    def test_close_merges_attrs(self):
        clock, tracer = tracer_at()
        span = tracer.span("t", Category.FABRIC, TRACK, bytes=10)
        span.close(stall_s=0.5)
        assert span.attrs == {"bytes": 10, "stall_s": 0.5}

    def test_explicit_close_time(self):
        clock, tracer = tracer_at()
        span = tracer.span("x", Category.OTHER, TRACK)
        clock.now = 10.0
        span.close(at=4.0)
        assert span.end == 4.0

    def test_close_never_before_start(self):
        clock, tracer = tracer_at(now=5.0)
        span = tracer.span("x", Category.OTHER, TRACK)
        span.close(at=1.0)
        assert span.end == span.start == 5.0

    def test_none_track_coerced(self):
        clock, tracer = tracer_at()
        span = tracer.span("x", Category.OTHER, None)
        assert span.track is not None


class TestNesting:
    def test_forgiving_close_closes_descendants(self):
        clock, tracer = tracer_at()
        outer = tracer.span("step", Category.OTHER, TRACK)
        clock.now = 1.0
        inner = tracer.span("forward", Category.COMPUTE, TRACK)
        clock.now = 2.0
        # closing the parent closes the still-open child at the same time
        outer.close()
        assert inner.closed and inner.end == 2.0
        assert outer.end == 2.0

    def test_spans_nest_on_one_track(self):
        clock, tracer = tracer_at()
        outer = tracer.span("step", Category.OTHER, TRACK)
        clock.now = 1.0
        inner = tracer.span("forward", Category.COMPUTE, TRACK)
        clock.now = 2.0
        inner.close()
        clock.now = 3.0
        outer.close()
        assert inner.start >= outer.start and inner.end <= outer.end

    def test_complete_retroactive(self):
        clock, tracer = tracer_at(now=10.0)
        span = tracer.complete("backward", Category.COMPUTE, TRACK,
                               start=4.0, end=9.0, overlapped=True)
        assert span.closed and span.duration == pytest.approx(5.0)

    def test_complete_rejects_negative_duration(self):
        clock, tracer = tracer_at()
        with pytest.raises(ValueError):
            tracer.complete("bad", Category.OTHER, TRACK, 5.0, 4.0)

    def test_finish_closes_everything(self):
        clock, tracer = tracer_at()
        tracer.span("a", Category.OTHER, TRACK)
        tracer.span("b", Category.OTHER, Track("host0", "gpu1"))
        clock.now = 7.0
        tracer.finish()
        assert all(s.closed for s in tracer.spans)
        assert all(s.end == 7.0 for s in tracer.spans)


class TestLanes:
    def test_lane_reuse_after_release(self):
        clock, tracer = tracer_at()
        a = tracer.lane("comm")
        b = tracer.lane("comm")
        assert {a.thread, b.thread} == {"lane-0", "lane-1"}
        tracer.release_lane(a)
        c = tracer.lane("comm")
        assert c.thread == "lane-0"  # lowest free index first

    def test_lane_pools_are_independent(self):
        clock, tracer = tracer_at()
        a = tracer.lane("comm")
        b = tracer.lane("fabric")
        assert a.process == "comm" and b.process == "fabric"
        assert a.thread == b.thread == "lane-0"


class TestInstantsAndEventLog:
    def test_instant_records_marker(self):
        clock, tracer = tracer_at(now=3.0)
        tracer.instant("port-flap", Category.CHAOS, TRACK, port="H1")
        (ev,) = tracer.instants
        assert ev.time == 3.0 and ev.attrs == {"port": "H1"}

    def test_event_log_bridge(self):
        from repro.management.events import EventLog

        log = EventLog()
        log.record(0.0, "allocate", "falcon0", device="gpu0")
        clock, tracer = tracer_at()
        tracer.attach_event_log(log)
        # replayed history
        assert [e.name for e in tracer.instants] == ["allocate"]
        assert tracer.instants[0].category is Category.MANAGEMENT
        assert tracer.instants[0].attrs == {"device": "gpu0"}
        # streaming: new records arrive through the subscription
        log.record(1.0, "link-fault", "falcon0/H1")
        assert [e.name for e in tracer.instants] == ["allocate",
                                                     "link-fault"]
        assert tracer.instants[1].category is Category.CHAOS


class TestNullTracer:
    def test_everything_is_a_noop(self):
        span = NULL_TRACER.span("x", Category.COMPUTE, TRACK)
        with span:
            pass
        span.close()
        NULL_TRACER.instant("x")
        track = NULL_TRACER.lane("comm")
        NULL_TRACER.release_lane(track)
        NULL_TRACER.finish()
        assert len(NULL_TRACER) == 0

    def test_enabled_tracer_needs_env(self):
        with pytest.raises(ValueError):
            Tracer(env=None, enabled=True)


# -- the PR's required property test ------------------------------------

#: One scripted tracer operation: (op, track_index, dt).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["open", "close", "complete", "instant"]),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.0, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=60,
)

_TRACKS = [Track("host0", "gpu0"), Track("host0", "gpu1"),
           Track("comm", "lane-0")]


class TestTraceWellFormednessProperty:
    @settings(max_examples=120, deadline=None)
    @given(ops=_OPS)
    def test_arbitrary_open_close_sequences_export_valid_traces(self, ops):
        """Any open/close interleaving yields a schema-valid trace:
        every duration >= 0 and no overlap of spans on one (pid, tid)."""
        clock, tracer = tracer_at()
        open_by_track = {t: [] for t in _TRACKS}
        for op, track_index, dt in ops:
            clock.now += dt
            track = _TRACKS[track_index]
            if op == "open":
                open_by_track[track].append(
                    tracer.span(f"s{track_index}", Category.COMPUTE, track))
            elif op == "close" and open_by_track[track]:
                # close an arbitrary (possibly non-innermost) span
                index = len(open_by_track[track]) // 2
                open_by_track[track].pop(index).close()
            elif op == "complete":
                tracer.complete("retro", Category.COMM, track,
                                clock.now, clock.now + dt)
                clock.now += dt
            elif op == "instant":
                tracer.instant("mark", Category.CHAOS, track)
        tracer.finish()

        assert all(s.closed for s in tracer.spans)
        assert all(s.duration >= 0.0 for s in tracer.spans)
        trace = to_chrome_trace(tracer)
        assert validate_chrome_trace(trace) == []
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_spans_on_one_track_nest_or_are_disjoint(self, ops):
        clock, tracer = tracer_at()
        for op, track_index, dt in ops:
            clock.now += dt
            track = _TRACKS[track_index]
            if op in ("open", "complete"):
                tracer.span("s", Category.COMPUTE, track)
            elif op == "close":
                stack = tracer._open.get(track)
                if stack:
                    stack[-1].close()
        tracer.finish()
        by_track = {}
        for span in tracer.spans:
            by_track.setdefault(span.track, []).append(span)
        for spans in by_track.values():
            spans.sort(key=lambda s: (s.start, -(s.end - s.start)))
            for a, b in zip(spans, spans[1:]):
                nested = b.start >= a.start and b.end <= a.end
                disjoint = b.start >= a.end
                assert nested or disjoint
