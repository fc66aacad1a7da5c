"""Trace exporters and span summaries.

Two export formats for :class:`~repro.telemetry.trace.Tracer` data:

- **Chrome/Perfetto** ``trace_event`` JSON (:func:`to_chrome_trace`):
  one pid per track process (host, ``comm``, ``fabric``, ``storage``,
  ``events``), one tid per track thread (GPU, collective lane, transfer
  lane).  Spans become ``"X"`` complete events, instants become ``"i"``,
  and ``"M"`` metadata events carry the human-readable names — the file
  opens directly in https://ui.perfetto.dev or ``chrome://tracing``.
- **text flame summary** (:func:`render_flame_summary`): aggregate time
  per (category, name), the "where did the step go" view.

:func:`validate_chrome_trace` is the schema check used by the CI smoke
job and the tracer property test: structural validity plus the per-tid
non-overlap invariant Perfetto's rendering relies on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from .trace import Category, Span, Tracer, Track

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "flame_rows",
    "render_flame_summary",
    "render_ascii_timeline",
]

#: Seconds -> trace_event microseconds.
_US = 1e6
#: Tolerance for the non-overlap check (float jitter in microseconds).
_OVERLAP_EPS_US = 1e-3


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------

def _track_ids(tracer: Tracer) -> dict[Track, tuple[int, int]]:
    """Stable (pid, tid) assignment: one pid per process, tid per thread."""
    pids: dict[str, int] = {}
    tids: dict[Track, tuple[int, int]] = {}
    per_process: dict[str, int] = {}
    tracks: list[Track] = []
    seen: set[Track] = set()
    for span in tracer.spans:
        if span.track not in seen:
            seen.add(span.track)
            tracks.append(span.track)
    for instant in tracer.instants:
        if instant.track not in seen:
            seen.add(instant.track)
            tracks.append(instant.track)
    for track in sorted(tracks, key=lambda t: (t.process, t.thread)):
        pid = pids.setdefault(track.process, len(pids) + 1)
        tid = per_process.get(track.process, 0) + 1
        per_process[track.process] = tid
        tids[track] = (pid, tid)
    return tids


def to_chrome_trace(tracer: Tracer, close_open: bool = True) -> dict:
    """Serialize the tracer as a Chrome ``trace_event`` JSON object."""
    if close_open:
        tracer.finish()
    ids = _track_ids(tracer)
    events: list[dict] = []
    named_pids: set[int] = set()
    for track, (pid, tid) in ids.items():
        if pid not in named_pids:
            named_pids.add(pid)
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": track.process}})
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": track.thread}})
    for span in tracer.spans:
        pid, tid = ids[span.track]
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.category.value,
            "ts": span.start * _US,
            "dur": max(0.0, span.duration) * _US,
            "pid": pid,
            "tid": tid,
            "args": _json_safe(span.attrs),
        })
    for instant in tracer.instants:
        pid, tid = ids[instant.track]
        events.append({
            "ph": "i",
            "name": instant.name,
            "cat": instant.category.value,
            "ts": instant.time * _US,
            "pid": pid,
            "tid": tid,
            "s": "t",
            "args": _json_safe(instant.attrs),
        })
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {"clock": "simulated-seconds",
                     "exporter": "repro.telemetry"},
    }


def write_chrome_trace(tracer: Tracer, path: Union[str, Path]) -> Path:
    """Write the Chrome trace JSON to ``path`` and return it."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(tracer)))
    return path


def _json_safe(attrs: dict) -> dict:
    """Attrs restricted to JSON scalars (repr() anything exotic)."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


# ---------------------------------------------------------------------------
# Schema validation (CI smoke + property test)
# ---------------------------------------------------------------------------

def validate_chrome_trace(trace: dict) -> list[str]:
    """Validate against the Chrome trace_event schema; return error list.

    Checks structural requirements (required keys per phase, numeric
    timestamps, non-negative durations) plus the rendering invariant the
    tracer guarantees: ``"X"`` events on one (pid, tid) either nest or
    are disjoint.
    """
    errors: list[str] = []
    if not isinstance(trace, dict):
        return ["trace must be a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    per_tid: dict[tuple, list[tuple[float, float, str]]] = {}
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            errors.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing string name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: missing integer {key}")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: missing numeric ts")
            continue
        if ph == "i":
            if event.get("s") not in ("t", "p", "g"):
                errors.append(f"{where}: instant scope must be t/p/g")
            continue
        dur = event.get("dur")
        if not isinstance(dur, (int, float)):
            errors.append(f"{where}: X event missing numeric dur")
            continue
        if dur < 0:
            errors.append(f"{where}: negative dur {dur}")
            continue
        per_tid.setdefault((event["pid"], event["tid"]), []).append(
            (float(ts), float(ts) + float(dur), event["name"]))
    for key, spans in per_tid.items():
        # Sort by start; longer span first at equal starts (the parent).
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack: list[tuple[float, float, str]] = []
        for start, end, name in spans:
            while stack and start >= stack[-1][1] - _OVERLAP_EPS_US:
                stack.pop()
            if stack and end > stack[-1][1] + _OVERLAP_EPS_US:
                errors.append(
                    f"tid {key}: {name!r} [{start:.3f}, {end:.3f}] "
                    f"overlaps {stack[-1][2]!r} ending {stack[-1][1]:.3f} "
                    "without nesting")
                continue
            stack.append((start, end, name))
    return errors


# ---------------------------------------------------------------------------
# Leaf spans, flame summary + ASCII timeline
# ---------------------------------------------------------------------------

def _leaf_spans(spans: list[Span]) -> list[Span]:
    """Spans (within one track) that contain no other span.

    Spans on a track nest or are disjoint (tracer invariant), so a single
    sorted sweep with an open-span stack finds containment: a span is a
    leaf iff nothing was pushed on top of it before it was popped.

    Zero-duration spans are excluded outright: they carry no time to
    attribute, and treating one as a child would wrongly strip leaf
    status (and therefore its seconds) from a same-instant sibling.
    """
    ordered = sorted((s for s in spans if s.end - s.start > 0.0),
                     key=lambda s: (s.start, -(s.end - s.start)))
    leaves: list[Span] = []
    stack: list[tuple[Span, bool]] = []  # (span, has_child)

    def pop_finished(upto: float) -> None:
        while stack and upto >= stack[-1][0].end:
            span, has_child = stack.pop()
            if not has_child:
                leaves.append(span)
            if stack:
                stack[-1] = (stack[-1][0], True)

    for span in ordered:
        pop_finished(span.start)
        if stack:
            stack[-1] = (stack[-1][0], True)
        stack.append((span, False))
    pop_finished(float("inf"))
    return leaves


def flame_rows(tracer: Tracer,
               process: Optional[str] = None) -> list[dict]:
    """Aggregate leaf-span time by (category, name), descending.

    ``process`` filters to one track process (e.g. the training host) so
    fabric-lane micro-spans don't swamp the step-phase view.
    """
    by_track: dict[Track, list[Span]] = {}
    for span in tracer.spans:
        if span.end is None:
            continue
        if process is not None and span.track.process != process:
            continue
        by_track.setdefault(span.track, []).append(span)
    totals: dict[tuple[str, str], dict] = {}
    for spans in by_track.values():
        for leaf in _leaf_spans(spans):
            key = (leaf.category.value, leaf.name)
            row = totals.setdefault(
                key, {"category": key[0], "name": key[1],
                      "total_s": 0.0, "count": 0})
            row["total_s"] += leaf.duration
            row["count"] += 1
    rows = sorted(totals.values(), key=lambda r: -r["total_s"])
    grand = sum(r["total_s"] for r in rows) or 1.0
    for row in rows:
        row["mean_s"] = row["total_s"] / row["count"]
        row["share_pct"] = 100.0 * row["total_s"] / grand
    return rows


def render_flame_summary(tracer: Tracer, process: Optional[str] = None,
                         limit: int = 12) -> str:
    """Fixed-width text table of the heaviest (category, name) pairs."""
    rows = flame_rows(tracer, process)[:limit]
    if not rows:
        return "(no spans recorded)"
    header = (f"{'category':<11} {'span':<22} {'total s':>10} "
              f"{'count':>7} {'mean ms':>9} {'share':>7}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['category']:<11} {row['name']:<22} "
            f"{row['total_s']:>10.4f} {row['count']:>7} "
            f"{row['mean_s'] * 1e3:>9.3f} {row['share_pct']:>6.1f}%")
    return "\n".join(lines)


_TIMELINE_GLYPHS = {
    Category.COMPUTE.value: "#",
    Category.COMM.value: "=",
    Category.STALL.value: ".",
    Category.CHECKPOINT.value: "C",
    Category.DATA.value: "d",
}


#: Rendering width clamp: no terminal benefits from multi-thousand-column
#: lines, and every column costs a scan — wide sim-time windows scale into
#: this band instead of widening the output.
_TIMELINE_MIN_WIDTH = 8
_TIMELINE_MAX_WIDTH = 400


def render_ascii_timeline(tracer: Tracer, track: Track,
                          t0: float, t1: float, width: int = 72) -> str:
    """One-line Perfetto-screenshot-equivalent for a track window.

    Each column is ``(t1 - t0) / width`` seconds, filled with the glyph of
    the category covering most of that column: ``#`` compute, ``=`` comm,
    ``.`` stall, ``C`` checkpoint, ``d`` data, space for idle.

    ``width`` is clamped to [8, 400]: a wide sim-time window rescales
    into the same number of columns rather than producing unreadable
    multi-thousand-character lines.  Rendering is one pass over the leaf
    spans — each leaf touches only the columns it overlaps — so cost is
    O(spans + width), independent of the window's sim-time extent.
    """
    if t1 <= t0:
        return ""
    width = max(_TIMELINE_MIN_WIDTH, min(int(width), _TIMELINE_MAX_WIDTH))
    leaves = _leaf_spans([s for s in tracer.spans
                          if s.track == track and s.end is not None])
    cell = (t1 - t0) / width
    # cover[i] accumulates seconds per glyph in column i.
    cover: list[dict[str, float]] = [{} for _ in range(width)]
    for leaf in leaves:
        lo, hi = max(leaf.start, t0), min(leaf.end, t1)
        if hi <= lo:
            continue
        glyph = _TIMELINE_GLYPHS.get(leaf.category.value, "?")
        first = min(width - 1, int((lo - t0) / cell))
        last = min(width - 1, int((hi - t0) / cell))
        for i in range(first, last + 1):
            a = max(lo, t0 + i * cell)
            b = min(hi, t0 + (i + 1) * cell)
            if b > a:
                cover[i][glyph] = cover[i].get(glyph, 0.0) + (b - a)
    columns = [max(per, key=per.get) if per else " " for per in cover]
    scale = (f"|{t0:.4f}s" + " " * max(0, width - 18)
             + f"{t1:.4f}s|")
    legend = "#=compute ==comm .=stall C=checkpoint d=data"
    return "".join(columns) + "\n" + scale + "\n" + legend
