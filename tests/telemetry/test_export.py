"""Tests for trace exporters and span summaries (repro.telemetry.export)."""

import json

import pytest

from repro.telemetry import (
    Category,
    Tracer,
    Track,
    render_ascii_timeline,
    render_flame_summary,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.export import _leaf_spans, flame_rows


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


TRACK = Track("host0", "gpu0")


def build_simple_trace():
    """One step with forward/backward children plus an instant event."""
    clock = FakeClock()
    tracer = Tracer(clock)
    step = tracer.span("step", Category.OTHER, TRACK, step=0)
    fwd = tracer.span("forward", Category.COMPUTE, TRACK)
    clock.now = 1.0
    fwd.close()
    bwd = tracer.span("backward", Category.COMPUTE, TRACK)
    clock.now = 3.0
    bwd.close()
    sync = tracer.span("allreduce", Category.COMM, TRACK, bytes=1024)
    clock.now = 4.0
    sync.close()
    step.close()
    tracer.instant("fault", Category.CHAOS, Track("events", "falcon0"))
    return clock, tracer


class TestChromeTrace:
    def test_structure_and_units(self):
        _, tracer = build_simple_trace()
        trace = to_chrome_trace(tracer)
        assert validate_chrome_trace(trace) == []
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in xs}
        assert {"step", "forward", "backward", "allreduce"} <= names
        fwd = next(e for e in xs if e["name"] == "forward")
        assert fwd["ts"] == 0 and fwd["dur"] == pytest.approx(1e6)
        assert fwd["cat"] == "compute"

    def test_metadata_names_processes_and_threads(self):
        _, tracer = build_simple_trace()
        trace = to_chrome_trace(tracer)
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        procs = {e["args"]["name"] for e in meta
                 if e["name"] == "process_name"}
        threads = {e["args"]["name"] for e in meta
                   if e["name"] == "thread_name"}
        assert procs == {"host0", "events"}
        assert "gpu0" in threads

    def test_instants_become_thread_scoped_i_events(self):
        _, tracer = build_simple_trace()
        trace = to_chrome_trace(tracer)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "fault"
        assert instants[0]["s"] == "t"

    def test_pid_tid_are_stable_integers(self):
        _, tracer = build_simple_trace()
        a = to_chrome_trace(tracer)
        b = to_chrome_trace(tracer)
        assert a["traceEvents"] == b["traceEvents"]
        for e in a["traceEvents"]:
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)

    def test_open_spans_closed_on_export(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.span("dangling", Category.OTHER, TRACK)
        clock.now = 2.0
        trace = to_chrome_trace(tracer)
        assert validate_chrome_trace(trace) == []
        (x,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert x["dur"] == pytest.approx(2e6)

    def test_json_roundtrip_via_file(self, tmp_path):
        _, tracer = build_simple_trace()
        path = write_chrome_trace(tracer, tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []

    def test_validator_flags_overlap(self):
        trace = {"traceEvents": [
            {"ph": "X", "name": "a", "pid": 1, "tid": 1,
             "ts": 0, "dur": 10, "cat": "x", "args": {}},
            {"ph": "X", "name": "b", "pid": 1, "tid": 1,
             "ts": 5, "dur": 10, "cat": "x", "args": {}},
        ]}
        assert any("overlap" in e for e in validate_chrome_trace(trace))

    def test_validator_flags_negative_duration(self):
        trace = {"traceEvents": [
            {"ph": "X", "name": "a", "pid": 1, "tid": 1,
             "ts": 0, "dur": -1, "cat": "x", "args": {}},
        ]}
        assert validate_chrome_trace(trace) != []

    def test_non_json_attrs_are_stringified(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.span("x", Category.OTHER, TRACK, obj=object()).close()
        trace = to_chrome_trace(tracer)
        json.dumps(trace)  # must not raise


class TestLeafSpans:
    def test_parents_excluded(self):
        _, tracer = build_simple_trace()
        leaves = _leaf_spans([s for s in tracer.spans
                              if s.track == TRACK])
        assert sorted(s.name for s in leaves) == ["allreduce", "backward",
                                                  "forward"]

    def test_zero_duration_span_does_not_steal_leaf_status(self):
        # regression: a 0-length span at a sibling's start instant must
        # not mark the sibling as a parent (its time would vanish).
        clock = FakeClock()
        tracer = Tracer(clock)
        zero = tracer.span("wait-data", Category.STALL, TRACK)
        zero.close()
        fwd = tracer.span("forward", Category.COMPUTE, TRACK)
        clock.now = 1.0
        fwd.close()
        leaves = _leaf_spans(tracer.spans)
        assert [s.name for s in leaves] == ["forward"]


class TestRendering:
    def test_flame_rows_aggregate_leaf_time(self):
        _, tracer = build_simple_trace()
        rows = flame_rows(tracer)
        by_name = {r["name"]: r for r in rows}
        assert by_name["forward"]["total_s"] == pytest.approx(1.0)
        assert by_name["backward"]["count"] == 1

    def test_flame_summary_renders(self):
        _, tracer = build_simple_trace()
        text = render_flame_summary(tracer)
        assert "forward" in text and "compute" in text

    def test_ascii_timeline_glyphs(self):
        _, tracer = build_simple_trace()
        art = render_ascii_timeline(tracer, TRACK, 0.0, 4.0, width=40)
        line = art.split("\n")[0]
        assert len(line) == 40
        assert line.count("#") == 30  # 3s compute of 4s window
        assert line.count("=") == 10  # 1s comm

    def test_ascii_timeline_empty_window(self):
        _, tracer = build_simple_trace()
        assert render_ascii_timeline(tracer, TRACK, 2.0, 2.0) == ""

    def test_ascii_timeline_width_clamped(self):
        _, tracer = build_simple_trace()
        wide = render_ascii_timeline(tracer, TRACK, 0.0, 4.0,
                                     width=5000)
        assert len(wide.split("\n")[0]) == 400
        narrow = render_ascii_timeline(tracer, TRACK, 0.0, 4.0, width=2)
        assert len(narrow.split("\n")[0]) == 8

    def test_ascii_timeline_wide_sim_range_keeps_coverage(self):
        # Spans much shorter than one column must still paint their
        # dominant glyph instead of vanishing or crashing (the old
        # integer-stride sampler skipped sub-column spans entirely).
        clock = FakeClock()
        tracer = Tracer(clock)
        for i in range(50):
            clock.now = i * 100.0
            span = tracer.span(f"burst{i}", Category.COMPUTE, TRACK)
            clock.now = i * 100.0 + 0.5
            span.close()
        art = render_ascii_timeline(tracer, TRACK, 0.0, 5000.0,
                                    width=40)
        line = art.split("\n")[0]
        assert len(line) == 40
        assert "#" in line

    def test_ascii_timeline_majority_glyph_per_column(self):
        # Within one column, the glyph covering more sim time wins.
        clock = FakeClock()
        tracer = Tracer(clock)
        compute = tracer.span("fwd", Category.COMPUTE, TRACK)
        clock.now = 3.0
        compute.close()
        comm = tracer.span("ar", Category.COMM, TRACK)
        clock.now = 4.0
        comm.close()
        art = render_ascii_timeline(tracer, TRACK, 0.0, 4.0, width=8)
        line = art.split("\n")[0]
        assert line == "######=="
