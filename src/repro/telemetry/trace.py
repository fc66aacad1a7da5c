"""Sim-time span tracer (the Nsight Systems / torch-profiler stand-in).

A :class:`Tracer` records *spans* — named intervals of simulated time with
a category and key-value attributes — and *instant events* on named
:class:`Track` s.  Tracks mirror the Chrome ``trace_event`` model: a
``process`` (one per host, plus synthetic processes like ``"comm"`` and
``"fabric"``) and a ``thread`` (one per GPU, collective lane, or transfer
lane), so an exported trace opens directly in Perfetto / ``chrome://tracing``
with one swimlane per concurrent activity.

Design constraints, in order:

1. **Cheap when off.**  Hot paths (per-chunk collective rounds, per-kernel
   phases, per-transfer flows) call the tracer unconditionally; the shared
   :data:`NULL_TRACER` makes every call a no-op attribute hit, so untraced
   runs pay nothing measurable.
2. **Well-formed by construction.**  Spans on one track must nest or be
   disjoint (Perfetto renders anything else as garbage).  The tracer keeps
   a per-track open stack and forgives out-of-order closes by closing
   descendants at the same timestamp — an arbitrary open/close sequence
   still exports a valid trace (property-tested).
3. **Concurrency via lanes.**  Activities that genuinely overlap (bucketed
   allreduce ops, fluid-flow transfers) each borrow a numbered *lane*
   track from a small free-list pool, so overlap never lands on one tid.

Spans may be used as context managers inside simulation generators — the
``with`` body's ``yield`` s advance simulated time, and the span closes at
whatever ``env.now`` the generator resumes at::

    with tracer.span("forward", Category.COMPUTE, track):
        yield gpu.compute(...)

Chaos and management events (PR 1's ``EventLog``) join the same timeline
through :meth:`Tracer.attach_event_log`, which mirrors every audit-log
record as an instant event.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

__all__ = ["Category", "Track", "Span", "Tracer", "NULL_TRACER"]


class Category(str, Enum):
    """Span taxonomy used by the flame summary / Fig. 11 attribution."""

    #: GPU kernel execution (forward/backward/optimizer) and the per-step
    #: framework overhead that scales with it.
    COMPUTE = "compute"
    #: Gradient/weight synchronization exposed on the critical path.
    COMM = "comm"
    #: Waiting with the GPU idle: input starvation, barriers, stragglers.
    STALL = "stall"
    #: Checkpoint serialization (D2H drain + storage write).
    CHECKPOINT = "checkpoint"
    #: Dataloader / host-side data movement.
    DATA = "data"
    #: Storage I/O (staging reads, checkpoint writes at the device).
    STORAGE = "storage"
    #: Individual fabric transfers (fluid flows).
    FABRIC = "fabric"
    #: Chassis / management-plane operations.
    MANAGEMENT = "management"
    #: Fault injection and recovery (chaos events).
    CHAOS = "chaos"
    #: Structural containers (step spans) and anything uncategorized.
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Track:
    """One timeline lane: (process, thread) in trace_event terms."""

    process: str
    thread: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.process}/{self.thread}"


class Span:
    """One named interval of simulated time on a track.

    Created open by :meth:`Tracer.span` / :meth:`Tracer.begin`; closed by
    :meth:`close` (or by leaving the ``with`` block).  Closing twice is a
    no-op, so forgiving teardown paths can close defensively.
    """

    __slots__ = ("tracer", "name", "category", "track", "start", "end",
                 "attrs")

    def __init__(self, tracer: "Tracer", name: str, category: Category,
                 track: Track, start: float, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def close(self, at: Optional[float] = None, **attrs: Any) -> "Span":
        """End the span (idempotent); optional attrs are merged in."""
        if attrs:
            self.attrs.update(attrs)
        if self.end is None:
            self.tracer._close(self, at)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.start:.6f}..{self.end:.6f}" if self.closed \
            else f"{self.start:.6f}.."
        return f"<Span {self.name!r} {self.category} {self.track} {state}>"


class _NullSpan:
    """Shared no-op span returned by the disabled tracer."""

    __slots__ = ()
    closed = True
    duration = 0.0

    def close(self, at: Optional[float] = None, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_TRACK = Track("null", "null")


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration timeline marker (chassis event, fault, recovery)."""

    time: float
    name: str
    category: Category
    track: Track
    attrs: dict


class Tracer:
    """Collects spans and instant events against a simulation clock."""

    def __init__(self, env: Any = None, enabled: bool = True):
        if enabled and env is None:
            raise ValueError("an enabled tracer needs an environment")
        self.env = env
        self.enabled = enabled
        #: Every span ever opened, in open order (closed in place).
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self._open: dict[Track, list[Span]] = {}
        # Lane pools: smallest free index per (process, prefix).
        self._free_lanes: dict[tuple[str, str], list[int]] = {}
        self._lane_high: dict[tuple[str, str], int] = {}

    # -- spans -------------------------------------------------------------
    def span(self, name: str, category: Category = Category.OTHER,
             track: Track = _NULL_TRACK, **attrs: Any):
        """Open a span at the current simulated time.

        Use as a context manager (closes on block exit) or keep the
        returned :class:`Span` and :meth:`Span.close` it explicitly.
        """
        if not self.enabled:
            return _NULL_SPAN
        if track is None:
            track = _NULL_TRACK
        span = Span(self, name, category, track, self.env.now, attrs)
        self.spans.append(span)
        self._open.setdefault(track, []).append(span)
        return span

    #: Alias for callers that read better with an explicit begin/close pair.
    begin = span

    def complete(self, name: str, category: Category, track: Track,
                 start: float, end: float, **attrs: Any):
        """Record an already-finished span retroactively.

        Used where a phase's true extent is only known after the fact —
        e.g. DDP's backward kernel inside the backward+allreduce overlap
        region.  The caller is responsible for keeping retroactive spans
        disjoint from other spans on the same track.
        """
        if not self.enabled:
            return _NULL_SPAN
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts "
                             f"({end} < {start})")
        span = Span(self, name, category, track, start, attrs)
        span.end = end
        self.spans.append(span)
        return span

    def _close(self, span: Span, at: Optional[float]) -> None:
        end = self.env.now if at is None else at
        if end < span.start:
            end = span.start
        stack = self._open.get(span.track)
        if stack and span in stack:
            # Forgiving stack discipline: close any still-open descendants
            # at the same instant so spans on one track always nest.
            while stack:
                top = stack.pop()
                top.end = max(end, top.start)
                if top is span:
                    break
        else:
            span.end = end

    # -- instants ----------------------------------------------------------
    def instant(self, name: str, category: Category = Category.OTHER,
                track: Track = _NULL_TRACK, time: Optional[float] = None,
                **attrs: Any) -> None:
        """Record a zero-duration marker (defaults to the current time)."""
        if not self.enabled:
            return
        when = self.env.now if time is None else time
        self.instants.append(InstantEvent(when, name, category, track,
                                          attrs))

    # -- lanes -------------------------------------------------------------
    def lane(self, process: str, prefix: str = "lane") -> Track:
        """Borrow the lowest-numbered free lane track under ``process``.

        Concurrent activities (collective ops, fluid-flow transfers) each
        take a lane so overlapping spans never share a tid; returning the
        lane via :meth:`release_lane` keeps the pool compact.
        """
        if not self.enabled:
            return _NULL_TRACK
        key = (process, prefix)
        free = self._free_lanes.setdefault(key, [])
        if free:
            index = heapq.heappop(free)
        else:
            index = self._lane_high.get(key, 0)
            self._lane_high[key] = index + 1
        return Track(process, f"{prefix}-{index}")

    def release_lane(self, track: Track) -> None:
        """Return a lane obtained from :meth:`lane` to the pool."""
        if not self.enabled or track is _NULL_TRACK:
            return
        prefix, _, index = track.thread.rpartition("-")
        if not index.isdigit():
            return
        heapq.heappush(self._free_lanes.setdefault(
            (track.process, prefix), []), int(index))

    # -- event-log bridge --------------------------------------------------
    def attach_event_log(self, log: Any,
                         process: str = "events") -> None:
        """Mirror every management/chaos audit record as an instant event.

        ``log`` is a :class:`repro.management.events.EventLog`; existing
        entries are replayed so a tracer attached mid-run still shows the
        full history, then new records stream in via the log's subscriber
        hook.  Fault-flavoured kinds are categorized as chaos so recovery
        (reattach, ring shrink) is visually distinct on the timeline.
        """
        if not self.enabled:
            return

        def mirror(event: Any) -> None:
            kind = event.kind
            category = Category.CHAOS if _is_chaos_kind(kind) \
                else Category.MANAGEMENT
            self.instant(kind, category, Track(process, event.actor),
                         time=event.time, **event.details)

        for event in log.query():
            mirror(event)
        log.subscribe(mirror)

    # -- lifecycle ---------------------------------------------------------

    def finish(self, at: Optional[float] = None) -> None:
        """Close every still-open span (e.g. after a faulted teardown)."""
        if not self.enabled:
            return
        end = self.env.now if at is None else at
        for stack in self._open.values():
            while stack:
                span = stack.pop()
                span.end = max(end, span.start)

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return (f"<Tracer {state} spans={len(self.spans)} "
                f"instants={len(self.instants)}>")


#: Kinds recorded by the chaos/fault layer (PR 1) and the recovery runtime.
_CHAOS_KIND_MARKERS = ("fault", "fail", "chaos", "degrade", "flap",
                      "recover", "reattach", "restart", "interrupt")


def _is_chaos_kind(kind: str) -> bool:
    lowered = kind.lower()
    return any(marker in lowered for marker in _CHAOS_KIND_MARKERS)


#: Shared disabled tracer: safe to call from any hot path.
NULL_TRACER = Tracer(env=None, enabled=False)
