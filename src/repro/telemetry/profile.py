"""Plan-level profiler: critical-path attribution and what-if ceilings.

This module turns an *executed* plan — its per-op ``(start, end)``
times, from either timing engine — into the paper's diagnosis: why a
benchmark x strategy x backend cell is compute-, communication-, or
storage-bound (Figs. 11/16), and how much faster it could run if one
cost category were cheaper.

The analyses:

- :func:`critical_path` walks backward from the plan's sink through the
  op DAG using *measured* times and returns a gap-free tiling of the
  window into categorized :class:`PathSegment` s.  Both engines record
  an op's start as the instant its dependencies (or rendezvous peers)
  released it, and absorb resource waits — GPU stream FIFO, storage
  admission, rendezvous — *inside* the recorded span; hence at every
  tile boundary some predecessor's end equals the boundary, and the
  segments sum to the makespan **by construction**, not approximately.
- :func:`attribution` folds those segments into per-category seconds
  (compute, comm, copies, storage, framework overhead, contention,
  stalls) whose sum equals the window — the reconciliation invariant
  every report and test leans on.
- :func:`utilization` / :func:`imbalance` derive per-resource busy
  fractions (GPU streams, directed fabric links, the storage queue) and
  cross-rank straggler metrics from the same measured intervals.
- :func:`what_if` answers "how much faster if category X cost ``f`` of
  what it does?" three ways: an Amdahl bound from the critical-path
  share (analytic ceiling), an event-driven *relaxation* replay of the
  DAG with that category's measured durations rescaled (cheap
  prediction from the base timing alone), and — when asked — a true
  re-evaluation of the rescaled plan through the timing engines.

Exposed vs. overlapped communication falls out of the same machinery:
a collective's time *on* the critical path is exposed; the rest of its
measured duration was hidden under compute and never delays the step.
Contention is split off by probing each collective/transfer's *solo*
duration (a pure fast-path evaluation of a one-op plan on the same
fabric) and attributing the measured excess to queueing/sharing.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Optional

from ..plan.executor import ExecutionContext
from ..plan.fastpath import FastPathUnsupported, PlanTiming, _Engine
from ..plan.ir import (
    Barrier,
    Collective,
    Compute,
    D2HCopy,
    Delay,
    H2DCopy,
    P2PCopy,
    PlanError,
    StepPlan,
    StorageRead,
    StorageWrite,
    op_endpoints,
    storage_leg,
)

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "SCALE_BUCKETS",
    "PathSegment",
    "CriticalPath",
    "critical_path",
    "Attribution",
    "attribution",
    "bottleneck_label",
    "utilization",
    "imbalance",
    "scale_plan",
    "predict_scaled_timing",
    "relaxation_is_exact",
    "WhatIf",
    "what_if",
    "PlanProfile",
    "profile_plan",
    "WindowProfile",
    "RunProfile",
    "profile_run",
    "BottleneckReport",
    "render_report_text",
]

#: Every category a :class:`PathSegment` may carry; attribution over a
#: window sums exactly to the window across these.
ATTRIBUTION_CATEGORIES = ("compute", "comm", "copy", "storage",
                          "framework", "contention", "stall", "data-wait")
#: Cost categories :func:`scale_plan` / :func:`what_if` can rescale.
SCALE_BUCKETS = ("compute", "comm", "copy", "storage", "framework")

#: Tolerance for "this predecessor's end is the tile boundary" tests.
#: Engine successors are scheduled at bit-identical floats, so this only
#: guards against accumulated noise in *absolute* (run-level) times.
_TILE_RTOL = 1e-9
_TILE_ATOL = 1e-12
#: Factor the fast-path probe uses in place of an exact zero.  The fast
#: path runs zeroed plans too (ties of zero-second kernels cannot change
#: a time); the epsilon stays because the recorded ``repro profile``
#: ceilings were computed with it.
_EPSILON_FACTOR = 1e-6
#: Ops that stream over the fabric between two endpoints.
_LEG_OPS = (H2DCopy, D2HCopy, P2PCopy, StorageRead, StorageWrite)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(_TILE_ATOL,
                             _TILE_RTOL * max(abs(a), abs(b), 1.0))


def _op_bucket(op) -> str:
    """The attribution category an op's exclusive time belongs to."""
    if isinstance(op, Compute):
        return "compute"
    if isinstance(op, (Collective, P2PCopy)):
        return "comm"
    if isinstance(op, (H2DCopy, D2HCopy)):
        return "copy"
    if isinstance(op, (StorageRead, StorageWrite)):
        return "storage"
    if isinstance(op, Delay):
        # Elapsed-proportional delays model per-step framework overhead;
        # fixed delays are compiled schedule facts (DDP bucket-readiness
        # points mirror backward-kernel progress), i.e. compute time.
        return "framework" if op.elapsed_fraction > 0 else "compute"
    if isinstance(op, Barrier):
        return "stall"
    raise PlanError(f"no attribution bucket for op kind {op.kind!r}")


def _times_of(timing) -> dict:
    """Accept a :class:`PlanTiming` or a raw ``{uid: (start, end)}``."""
    return timing.op_times if isinstance(timing, PlanTiming) else timing


# -- measured-schedule reconstruction ----------------------------------------

def _stream_begins(plan: StepPlan, times: dict):
    """Reconstruct per-rank GPU stream admission from measured times.

    A compute's recorded span starts at its *ready* time; the kernel
    itself began at ``max(ready, previous kernel's end)`` on that rank's
    stream.  Returns ``(begin, prev)`` maps: uid -> execution begin and
    uid -> the stream predecessor whose end equals that begin (None for
    the stream head or when the op started at its ready time).
    """
    begins: dict = {}
    prevs: dict = {}
    for rank in range(plan.world_size):
        computes = [op for op in plan.by_rank(rank)
                    if isinstance(op, Compute) and op.uid in times]
        computes.sort(key=lambda op: (times[op.uid][1], times[op.uid][0]))
        cursor = float("-inf")
        prev_uid = None
        for op in computes:
            start, end = times[op.uid]
            begin = max(start, cursor)
            begins[op.uid] = begin
            prevs[op.uid] = prev_uid if begin > start and \
                prev_uid is not None else None
            cursor = end
            prev_uid = op.uid
    return begins, prevs


class _BaseGroup:
    """One reconstructed rendezvous: the k-th collective/barrier of every
    rank, with its measured live point (last arrival) and completion."""

    __slots__ = ("uids", "arrivals", "live", "end", "rep", "kind",
                 "nbytes", "root", "chunk", "barrier", "group")

    def __init__(self, members, times):
        self.uids = {op.rank: op.uid for op in members}
        self.arrivals = {op.rank: times[op.uid][0] for op in members}
        self.live = max(self.arrivals.values())
        self.end = max(times[op.uid][1] for op in members)
        self.rep = rep = members[0]
        self.barrier = isinstance(rep, Barrier)
        self.group = getattr(rep, "group", None)
        if self.barrier:
            self.kind = "barrier"
            self.nbytes, self.root, self.chunk = 0.0, None, None
        else:
            self.kind = rep.comm
            self.nbytes = rep.bytes
            self.root = rep.root
            self.chunk = rep.chunk_bytes

    @property
    def duration(self) -> float:
        return self.end - self.live

    def latest_uid(self) -> str:
        """Uid of the last-arriving member (the rendezvous holdout)."""
        rank = max(self.arrivals, key=lambda r: (self.arrivals[r], r))
        return self.uids[rank]


def _rendezvous_groups(plan: StepPlan, times: dict):
    """Pair up every rank's k-th rendezvous, mirroring the communicator.

    The runtime assigns group membership by per-rank *arrival order* on
    each communicator (grouped collectives rendezvous on their own
    sub-communicator, keyed by the op's group tuple; barriers and
    ungrouped collectives share the world communicator); measured starts
    are arrivals, so sorting each rank's joins by (start, program order)
    per communicator reproduces the grouping.  Returns
    ``(groups, by_uid)``.
    """
    per_comm: dict = {}     # comm key -> {rank: [ops in join order]}
    for rank in range(plan.world_size):
        joins = [(times[op.uid][0], idx, op)
                 for idx, op in enumerate(plan.by_rank(rank))
                 if isinstance(op, (Collective, Barrier))
                 and op.uid in times]
        joins.sort(key=lambda item: (item[0], item[1]))
        for _s, _i, op in joins:
            key = getattr(op, "group", None)
            per_comm.setdefault(key, {}).setdefault(rank, []).append(op)
    groups: list = []
    for key, by_rank in per_comm.items():
        members = range(plan.world_size) if key is None else key
        per_rank = [by_rank.get(rank, []) for rank in members]
        counts = {len(joins) for joins in per_rank}
        if len(counts) > 1:
            label = "world" if key is None else f"group {key}"
            raise PlanError(
                f"plan {plan.name!r} is rank-asymmetric on {label}: "
                f"per-rank rendezvous counts {sorted(counts)}")
        groups += [_BaseGroup([joins[k] for joins in per_rank], times)
                   for k in range(counts.pop() if counts else 0)]
    by_uid = {uid: g for g in groups for uid in g.uids.values()}
    return groups, by_uid


# -- solo-cost probes (contention baselines) ---------------------------------

def _leg(op, ctx: ExecutionContext) -> tuple:
    """``(streamed bytes, fixed seconds, route)`` of a transfer or
    storage op: the device latency (storage only), the transfer overhead
    and the route latency are fixed; the bytes stream."""
    nbytes, latency = op.bytes, 0.0
    if isinstance(op, (StorageRead, StorageWrite)):
        nbytes, latency = storage_leg(op, ctx.storage.spec)
    route = ctx.route(*op_endpoints(op))
    return nbytes, latency + ctx.topology.transfer_overhead \
        + route.latency, route


def _solo_seconds(op, ctx: ExecutionContext) -> Optional[float]:
    """Uncontended duration of a transfer or storage op (no queue wait,
    idle fabric)."""
    storage_op = isinstance(op, (StorageRead, StorageWrite))
    if ctx.topology is None or (storage_op and ctx.storage is None):
        return None
    nbytes, fixed, route = _leg(op, ctx)
    if nbytes <= 0 or not route.segments:
        return fixed
    return fixed + nbytes / route.bandwidth


def _solo_group_seconds(group: _BaseGroup, ctx: ExecutionContext,
                        cache: dict) -> Optional[float]:
    """Duration of this collective alone on an idle fabric.

    Evaluates a one-collective plan through the fast-path engine (pure:
    no device or link state is touched), so intra-collective link
    sharing — ring pairs squeezing through one uplink — is *included*;
    only interference from other concurrent work counts as contention.
    """
    if group.barrier or group.nbytes <= 0 or ctx.comm is None:
        return 0.0
    world = ctx.comm.world_size
    key = (group.kind, group.nbytes, group.root, group.chunk, world)
    if key in cache:
        return cache[key]
    ops = [Collective(uid=f"r{r}:probe", rank=r, name="probe",
                      comm=group.kind, bytes=group.nbytes,
                      root=group.root, chunk_bytes=group.chunk)
           for r in range(world)]
    probe = StepPlan("solo-probe", world, ops)
    probe_ctx = ExecutionContext(
        env=ctx.env, comm=ctx.comm, gpus=ctx.gpus, topology=ctx.topology,
        host_node=ctx.host_node, storage=ctx.storage)
    try:
        solo = _Engine(probe, probe_ctx).run().makespan
    except FastPathUnsupported:
        solo = None  # e.g. watchdog refusal: skip the contention split
    cache[key] = solo
    return solo


# -- the critical path -------------------------------------------------------

@dataclass(frozen=True)
class PathSegment:
    """One tile of the critical-path window."""

    start: float
    end: float
    category: str
    #: Op whose span produced this tile (None for synthesized gaps).
    uid: Optional[str] = None
    #: For ``contention`` tiles: the category that paid the queueing.
    source: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """A gap-free tiling of ``window`` by measured-schedule segments."""

    segments: list
    window: tuple
    sink_uid: Optional[str]
    root_uid: Optional[str]

    @property
    def length(self) -> float:
        return sum(seg.duration for seg in self.segments)


def critical_path(plan: StepPlan, timing, ctx: Optional[ExecutionContext]
                  = None, window: Optional[tuple] = None,
                  sink_uid: Optional[str] = None,
                  gap_category: str = "stall",
                  probe_cache: Optional[dict] = None) -> CriticalPath:
    """Extract the measured critical path and tile ``window`` with it.

    Walks backward from the sink op: at each op, emit its exclusive
    tile, then jump to whichever predecessor *released* it — a DAG
    dependency whose end equals the op's admission, the previous kernel
    on the GPU stream, or (for rendezvous ops) the last-arriving peer.
    Any window prefix before the walk's root becomes a ``gap_category``
    tile, so the segments always sum to the window exactly.

    ``ctx`` enables contention splits (solo-cost probes need routes and
    the communicator); without it, measured durations attribute whole.
    ``timing`` may be relative (plan evaluation) or absolute (captured
    from a live run) — the walk only compares the times it is given.
    """
    times = _times_of(timing)
    if not times:
        return CriticalPath([], window or (0.0, 0.0), None, None)
    begins, stream_prevs = _stream_begins(plan, times)
    _groups, group_of = _rendezvous_groups(plan, times)
    probes = probe_cache if probe_cache is not None else {}

    if sink_uid is None:
        sink_uid = max(times, key=lambda uid: (times[uid][1], uid))
    t_end = times[sink_uid][1]
    t0 = window[0] if window else min(s for s, _e in times.values())
    t1 = window[1] if window else t_end

    rev: list = []          # segments, latest-first

    def emit(start, end, category, uid, source=None):
        if end - start > 0.0:
            rev.append(PathSegment(start, end, category, uid, source))

    def emit_split(start, end, category, uid, solo):
        """Tile [start, end] as base category + measured contention.

        ``rev`` collects segments latest-first, so the contention tail
        goes in before the base tile.
        """
        if solo is None or solo >= (end - start):
            emit(start, end, category, uid)
            return
        cut = start + max(solo, 0.0)
        emit(cut, end, "contention", uid, source=category)
        emit(start, cut, category, uid)

    op = plan.op(sink_uid)
    boundary = t_end
    root_uid = sink_uid
    for _guard in range(10 * len(plan.ops) + 10):
        root_uid = op.uid
        start, _end = times[op.uid]
        pred_source = op     # whose deps we follow next
        if isinstance(op, (Collective, Barrier)):
            group = group_of[op.uid]
            live = group.live
            if boundary > live:
                solo = _solo_group_seconds(group, ctx, probes) \
                    if ctx is not None else None
                emit_split(live, boundary, "comm" if not group.barrier
                           else "stall", op.uid, solo)
            pred_source = plan.op(group.latest_uid())
            boundary = live
        elif isinstance(op, Compute):
            begin = begins.get(op.uid, start)
            emit(begin, boundary, "compute", op.uid)
            boundary = begin
            prev = stream_prevs.get(op.uid)
            if prev is not None:
                # Stream-serialized: the releasing predecessor is the
                # prior kernel, whose end is this one's begin.
                op = plan.op(prev)
                if boundary <= t0:
                    root_uid = op.uid
                    break
                continue
        elif isinstance(op, _LEG_OPS):
            solo = _solo_seconds(op, ctx) if ctx is not None else None
            emit_split(start, boundary, _op_bucket(op), op.uid, solo)
            boundary = start
        else:  # Delay
            emit(start, boundary, _op_bucket(op), op.uid)
            boundary = start
        if boundary <= t0:
            break
        preds = [plan.op(dep) for dep in pred_source.deps
                 if dep in times]
        preds = [p for p in preds if _close(times[p.uid][1], boundary)
                 or times[p.uid][1] >= boundary]
        if not preds:
            break  # true root: the leading window prefix is a gap
        op = max(preds, key=lambda p: times[p.uid][1])
        boundary = min(boundary, times[op.uid][1])
    segments = list(reversed(rev))

    # Clip to the window and synthesize the gap tiles.
    clipped: list = []
    cursor = t0
    for seg in segments:
        s, e = max(seg.start, t0), min(seg.end, t1)
        if e <= s:
            continue
        if s > cursor:
            category = gap_category if not clipped else "stall"
            clipped.append(PathSegment(cursor, s, category, None))
        clipped.append(dataclasses.replace(seg, start=s, end=e))
        cursor = max(cursor, e)
    if cursor < t1:
        clipped.append(PathSegment(cursor, t1,
                                   gap_category if not clipped else
                                   "stall", None))
    return CriticalPath(clipped, (t0, t1), sink_uid, root_uid)


# -- attribution -------------------------------------------------------------

@dataclass
class Attribution:
    """Per-category seconds over a window; sums to the window exactly."""

    seconds: dict
    contention_by_source: dict
    window: tuple

    @property
    def wall(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def share(self, category: str) -> float:
        wall = self.wall
        return self.seconds.get(category, 0.0) / wall if wall else 0.0

    def as_dict(self) -> dict:
        return {
            "window": list(self.window),
            "wall_s": self.wall,
            "seconds": {k: self.seconds.get(k, 0.0)
                        for k in ATTRIBUTION_CATEGORIES
                        if self.seconds.get(k)},
            "contention_by_source": dict(self.contention_by_source),
        }


def attribution(path: CriticalPath) -> Attribution:
    """Fold a critical path's segments into per-category seconds."""
    seconds: dict = {}
    contention: dict = {}
    for seg in path.segments:
        seconds[seg.category] = seconds.get(seg.category, 0.0) \
            + seg.duration
        if seg.category == "contention" and seg.source:
            contention[seg.source] = contention.get(seg.source, 0.0) \
                + seg.duration
    return Attribution(seconds, contention, path.window)


def bottleneck_label(attr: Attribution) -> tuple:
    """``(label, shares)`` classifying a window as compute/comm/storage
    bound.  Contention folds into the category that queued; framework
    overhead counts as compute (it scales with kernel work)."""
    sec, con = attr.seconds, attr.contention_by_source
    grouped = {
        "compute": sec.get("compute", 0.0) + sec.get("framework", 0.0)
        + con.get("compute", 0.0) + con.get("framework", 0.0),
        "comm": sec.get("comm", 0.0) + con.get("comm", 0.0),
        "storage": sec.get("storage", 0.0) + sec.get("copy", 0.0)
        + con.get("storage", 0.0) + con.get("copy", 0.0),
    }
    wall = attr.wall or sum(grouped.values()) or 1.0
    shares = {k: v / wall for k, v in grouped.items()}
    top = max(shares, key=lambda k: shares[k])
    label = f"{top}-bound" if shares[top] >= 0.5 \
        else f"balanced({top}-leaning)"
    return label, shares


# -- utilization and imbalance -----------------------------------------------

def _interval_stats(intervals, window) -> dict:
    """Busy/contended seconds of one resource over ``window``."""
    t0, t1 = window
    span = max(t1 - t0, 0.0) or 1.0
    events: list = []
    for s, e in intervals:
        s, e = max(s, t0), min(e, t1)
        if e > s:
            events.append((s, 1))
            events.append((e, -1))
    events.sort()
    busy = contended = 0.0
    depth = 0
    last = t0
    for t, delta in events:
        if depth > 0:
            busy += t - last
        if depth > 1:
            contended += t - last
        depth += delta
        last = t
    return {"busy_s": busy, "busy_frac": busy / span,
            "contended_s": contended, "intervals": len(events) // 2}


def utilization(plan: StepPlan, timing, ctx: Optional[ExecutionContext]
                = None, window: Optional[tuple] = None) -> dict:
    """Per-resource busy intervals: GPU streams, directed fabric links,
    and the storage queue.  Link occupancy uses whole op windows (the
    fixed-latency prefix included), a deliberate upper bound."""
    times = _times_of(timing)
    if not times:
        return {}
    begins, _prevs = _stream_begins(plan, times)
    groups, _by_uid = _rendezvous_groups(plan, times)
    if window is None:
        window = (min(s for s, _e in times.values()),
                  max(e for _s, e in times.values()))
    resources: dict = {}

    def mark(name, start, end):
        resources.setdefault(name, []).append((start, end))

    for op in plan:
        if op.uid not in times:
            continue
        start, end = times[op.uid]
        if isinstance(op, Compute):
            mark(f"gpu:r{op.rank}", begins.get(op.uid, start), end)
        elif isinstance(op, (H2DCopy, D2HCopy, P2PCopy)) \
                and ctx is not None and ctx.topology is not None:
            for seg in ctx.route(*op_endpoints(op)).segments:
                mark(f"link:{seg.src}->{seg.dst}", start, end)
        elif isinstance(op, (StorageRead, StorageWrite)):
            mark("storage", start, end)
    if ctx is not None and ctx.comm is not None \
            and ctx.topology is not None:
        for group in groups:
            if group.barrier or group.nbytes <= 0 \
                    or group.end <= group.live:
                continue
            for i, j in group.rep.schedule(plan.world_size)[2]:
                for seg in ctx.route(("comm", i), ("comm", j)).segments:
                    mark(f"link:{seg.src}->{seg.dst}",
                         group.live, group.end)
    return {name: _interval_stats(intervals, window)
            for name, intervals in sorted(resources.items())}


def imbalance(plan: StepPlan, timing) -> dict:
    """Cross-rank straggler metrics from one plan's measured times."""
    times = _times_of(timing)
    begins, _prevs = _stream_begins(plan, times)
    _groups, by_uid = _rendezvous_groups(plan, times)
    per_rank: list = []
    for rank in range(plan.world_size):
        ops = [op for op in plan.by_rank(rank) if op.uid in times]
        end = max((times[op.uid][1] for op in ops), default=0.0)
        busy = sum(times[op.uid][1] - begins.get(op.uid, times[op.uid][0])
                   for op in ops if isinstance(op, Compute))
        wait = sum(by_uid[op.uid].live - times[op.uid][0]
                   for op in ops if op.uid in by_uid)
        per_rank.append({"rank": rank, "end": end, "compute_busy_s": busy,
                         "rendezvous_wait_s": wait})
    ends = [r["end"] for r in per_rank] or [0.0]
    straggler = max(range(len(ends)), key=lambda r: ends[r])
    spread = (max(ends) - min(ends)) / max(ends) if max(ends) > 0 else 0.0
    return {"per_rank": per_rank, "straggler_rank": straggler,
            "end_spread_frac": spread}


# -- what-if: rescale one category and re-time -------------------------------

def _scalable(op, bucket: str) -> bool:
    """Whether ``scale_plan(bucket)`` changes this op at all."""
    if bucket == "compute":
        return isinstance(op, Compute) and (op.flops > 0
                                            or op.hbm_bytes > 0)
    if bucket == "comm":
        return isinstance(op, (Collective, P2PCopy)) and op.bytes > 0
    if bucket == "copy":
        return isinstance(op, (H2DCopy, D2HCopy)) and op.bytes > 0
    if bucket == "storage":
        return isinstance(op, (StorageRead, StorageWrite)) \
            and op.bytes > 0
    if bucket == "framework":
        return isinstance(op, Delay) and op.elapsed_fraction > 0
    raise PlanError(f"unknown scale bucket {bucket!r}; "
                    f"one of {SCALE_BUCKETS}")


def scale_plan(plan: StepPlan, bucket: str, factor: float) -> StepPlan:
    """A copy of ``plan`` with one cost category rescaled by ``factor``.

    ``compute`` scales kernel FLOPs/HBM traffic but *not* fixed delays:
    DDP's bucket-readiness gates are compile-time constants mirroring
    the backward schedule, so the compute what-if is a kernel-speed
    ceiling under the compiled overlap schedule, not a recompilation.
    Conservation metadata is recomputed so the scaled plan revalidates.
    """
    if factor < 0:
        raise PlanError(f"scale factor must be >= 0, got {factor}")
    ops = []
    for op in plan:
        if not _scalable(op, bucket):
            ops.append(op)
        elif bucket == "compute":
            ops.append(dataclasses.replace(
                op, flops=op.flops * factor,
                hbm_bytes=op.hbm_bytes * factor))
        elif bucket == "framework":
            ops.append(dataclasses.replace(
                op, seconds=op.seconds * factor,
                elapsed_fraction=op.elapsed_fraction * factor))
        else:
            ops.append(dataclasses.replace(op, bytes=op.bytes * factor))
    meta = dict(plan.meta)
    declared = meta.get("conservation")
    if declared:
        totals: dict = {payload: 0.0 for payload in declared}
        for op in ops:
            if op.payload in totals:
                totals[op.payload] += op.bytes
        meta["conservation"] = totals
    return StepPlan(f"{plan.name}~{bucket}x{factor:g}", plan.world_size,
                    ops, meta)


def relaxation_is_exact(plan: StepPlan, bucket: str,
                        factor: float) -> bool:
    """Whether :func:`predict_scaled_timing` provably reproduces the
    engines on this (plan, bucket, factor).

    The relaxation replays the DAG with *measured* durations for every
    unscaled op.  That is exact when the rescaling shifts those ops
    rigidly (or removes flows without changing survivors' sharing):

    - ``factor == 1`` is the identity;
    - a bucket with nothing to scale is the identity;
    - zeroing ``comm``/``copy``/``storage`` removes that bucket's fabric
      flows — exact unless *another* bucket's flows shared links with
      them (their measured durations would embed vanished contention);
    - zeroing ``compute`` shifts every downstream launch uniformly when
      collectives are the only fabric users, preserving their overlap
      pattern bit-for-bit; interleaved point-to-point sends (pipeline
      parallelism) re-stagger instead, so that case is not exact;
    - partial factors rescale flow sizes, which perturbs the fluid
      water-filling solution nonlinearly — never certified.
    """
    if factor == 1.0:
        return True
    if not any(_scalable(op, bucket) for op in plan):
        return True
    if factor != 0.0:
        return False
    flow_buckets = set()
    world = plan.world_size
    for op in plan:
        if isinstance(op, Collective) and op.bytes > 0 and world > 1:
            flow_buckets.add("comm")
        elif isinstance(op, P2PCopy) and op.bytes > 0:
            flow_buckets.add("comm")
        elif isinstance(op, (H2DCopy, D2HCopy)) and op.bytes > 0:
            flow_buckets.add("copy")
        elif isinstance(op, (StorageRead, StorageWrite)) and op.bytes > 0:
            flow_buckets.add("storage")
    if bucket == "compute":
        return not any(isinstance(op, P2PCopy) and op.bytes > 0
                       for op in plan)
    if bucket == "framework":
        dependents = {dep for op in plan for dep in op.deps}
        terminal = all(op.uid not in dependents for op in plan
                       if _scalable(op, "framework"))
        return terminal or not flow_buckets
    return flow_buckets <= {bucket}


class _DurationModel:
    """Measured-duration oracle shared by the what-if replays.

    Precomputes the per-op *exclusive* durations from one base timing
    (stream admission and rendezvous grouping reconstructed from the
    measured times) and answers "how long does this op run under the
    rescaled bucket".
    """

    def __init__(self, plan: StepPlan, base: PlanTiming,
                 ctx: ExecutionContext, bucket: str, factor: float):
        if bucket not in SCALE_BUCKETS:
            raise PlanError(f"unknown scale bucket {bucket!r}; "
                            f"one of {SCALE_BUCKETS}")
        self.plan = plan
        self.ctx = ctx
        self.bucket = bucket
        self.factor = factor
        self.times = _times_of(base)
        self.begins, _prevs = _stream_begins(plan, self.times)
        base_groups, _by_uid = _rendezvous_groups(plan, self.times)
        self.group_by_members = {frozenset(g.uids.values()): g
                                 for g in base_groups}

    def exec_duration(self, op) -> float:
        start, end = self.times[op.uid]
        dur = end - self.begins.get(op.uid, start)
        if self.bucket == "compute" and _scalable(op, "compute"):
            dur *= self.factor
        return dur

    def _scaled_fixed(self, measured: float, fixed: float) -> float:
        fixed = min(fixed, measured)
        return fixed + self.factor * (measured - fixed)

    def leg_duration(self, op) -> float:
        """A transfer or storage op: only the streamed part scales."""
        measured = self.times[op.uid][1] - self.times[op.uid][0]
        if _op_bucket(op) != self.bucket or not _scalable(op, self.bucket):
            return measured
        return self._scaled_fixed(measured, _leg(op, self.ctx)[1])

    def delay_params(self, op) -> tuple:
        seconds, fraction = op.seconds, op.elapsed_fraction
        if self.bucket == "framework" and _scalable(op, "framework"):
            seconds, fraction = seconds * self.factor, \
                fraction * self.factor
        return seconds, fraction

    def group_duration(self, members: frozenset, rep) -> float:
        group = self.group_by_members.get(members)
        measured = group.duration if group is not None else 0.0
        if isinstance(rep, Barrier) or self.bucket != "comm" \
                or not _scalable(rep, "comm"):
            return measured
        phases, _divisor, pairs = rep.schedule(self.plan.world_size)
        if not pairs:
            return measured
        if self.factor == 0.0:
            return 0.0  # the engines short-circuit zero-byte groups
        if self.ctx.comm is None:
            return measured
        lat = max(self.ctx.route(("comm", i), ("comm", j)).latency
                  for i, j in pairs)
        return self._scaled_fixed(
            measured, phases * (self.ctx.topology.transfer_overhead + lat))


def _retime(plan: StepPlan, model: _DurationModel) -> dict:
    """Event-driven replay of the measured schedule: uid -> (start, end)."""
    indegree: dict = {}
    dependents: dict = {op.uid: [] for op in plan}
    for op in plan:
        indegree[op.uid] = len(op.deps)
        for dep in op.deps:
            dependents[dep].append(op)

    heap: list = []
    seq = 0

    def push(t, op):
        nonlocal seq
        seq += 1
        heappush(heap, (t, seq, op))

    for rank in range(plan.world_size):
        for op in plan.by_rank(rank):
            if indegree[op.uid] == 0:
                push(0.0, op)

    out: dict = {}
    ready_at: dict = {}
    stream_free: dict = {}
    join_seq: dict = {}
    open_groups: dict = {}

    def finish(op, start, end):
        out[op.uid] = (start, end)
        for dep in dependents[op.uid]:
            ready_at[dep.uid] = max(ready_at.get(dep.uid, 0.0), end)
            indegree[dep.uid] -= 1
            if indegree[dep.uid] == 0:
                push(ready_at[dep.uid], dep)

    while heap:
        t, _seq, op = heappop(heap)
        if isinstance(op, Compute):
            begin = max(t, stream_free.get(op.rank, 0.0))
            end = begin + model.exec_duration(op)
            stream_free[op.rank] = end
            finish(op, t, end)
        elif isinstance(op, (Collective, Barrier)):
            gkey = getattr(op, "group", None)
            expected = plan.world_size if gkey is None else len(gkey)
            opid = join_seq.get((gkey, op.rank), 0)
            join_seq[(gkey, op.rank)] = opid + 1
            group = open_groups.setdefault((gkey, opid), {})
            group[op.rank] = (op, t)
            if len(group) == expected:
                del open_groups[(gkey, opid)]
                live = max(arr for _op, arr in group.values())
                members = frozenset(m.uid for m, _t in group.values())
                end = live + model.group_duration(members, op)
                for member, arrival in group.values():
                    finish(member, arrival, end)
        elif isinstance(op, _LEG_OPS):
            finish(op, t, t + model.leg_duration(op))
        elif isinstance(op, Delay):
            seconds, fraction = model.delay_params(op)
            finish(op, t, t + seconds + fraction * t)
        else:  # pragma: no cover - taxonomy is closed
            raise PlanError(f"cannot replay op kind {op.kind!r}")
    if len(out) != len(plan.ops):
        raise PlanError(
            f"what-if replay stalled: {len(plan.ops) - len(out)} op(s) "
            "never became ready (asymmetric rendezvous?)")
    return out


def predict_scaled_timing(plan: StepPlan, base: PlanTiming,
                          ctx: ExecutionContext, bucket: str,
                          factor: float) -> PlanTiming:
    """Re-time the plan with one category's measured durations rescaled.

    An event-driven topological replay of the measured schedule: every
    op keeps its measured exclusive duration except the scaled bucket,
    whose durations become ``fixed + factor * (measured - fixed)`` (the
    fixed part being latencies/overheads that do not scale with bytes).
    GPU stream FIFOs and rendezvous grouping are re-derived, so slack
    created (or consumed) by the rescaling propagates exactly through
    the DAG.  ``base`` must be a plan-relative timing (starts at 0).
    """
    out = _retime(plan, _DurationModel(plan, base, ctx, bucket, factor))
    makespan = max((end for _s, end in out.values()), default=0.0)
    return PlanTiming(mode="predicted", op_times=out, makespan=makespan)


@dataclass
class WhatIf:
    """One what-if cell: category ``bucket`` rescaled by ``factor``."""

    bucket: str
    factor: float
    base_makespan: float
    predicted_makespan: float
    #: ``relaxation`` | ``fastpath-epsilon`` | ``identity``.
    method: str
    #: Whether the prediction provably equals an engine re-evaluation.
    predicted_exact: bool
    #: Amdahl bound: base minus the bucket's critical-path seconds.
    amdahl_makespan: Optional[float] = None
    evaluated_makespan: Optional[float] = None
    evaluated_mode: Optional[str] = None

    @staticmethod
    def _ceiling(base: float, new: Optional[float]) -> Optional[float]:
        if new is None:
            return None
        if new <= 0:
            return float("inf") if base > 0 else 1.0
        return base / new

    @property
    def predicted_ceiling(self) -> float:
        return self._ceiling(self.base_makespan, self.predicted_makespan)

    @property
    def amdahl_ceiling(self) -> Optional[float]:
        return self._ceiling(self.base_makespan, self.amdahl_makespan)

    @property
    def evaluated_ceiling(self) -> Optional[float]:
        return self._ceiling(self.base_makespan, self.evaluated_makespan)

    def as_dict(self) -> dict:
        return {
            "bucket": self.bucket, "factor": self.factor,
            "base_makespan_s": self.base_makespan,
            "predicted_makespan_s": self.predicted_makespan,
            "predicted_ceiling": self.predicted_ceiling,
            "method": self.method,
            "predicted_exact": self.predicted_exact,
            "amdahl_ceiling": self.amdahl_ceiling,
            "evaluated_makespan_s": self.evaluated_makespan,
            "evaluated_ceiling": self.evaluated_ceiling,
            "evaluated_mode": self.evaluated_mode,
        }


def what_if(plan: StepPlan, base: PlanTiming, ctx: ExecutionContext,
            bucket: str, factor: float = 0.0,
            cp_attr: Optional[Attribution] = None,
            evaluate: bool = False,
            evaluate_ctx: Optional[ExecutionContext] = None) -> WhatIf:
    """Speedup ceiling if ``bucket``'s cost were ``factor`` of measured.

    The *predicted* leg replays the measured schedule (see
    :func:`predict_scaled_timing`); where the relaxation is provably
    inexact it escalates to a pure fast-path probe of the rescaled plan
    (at ``_EPSILON_FACTOR`` in place of an exact zero).  The *evaluated*
    leg — enabled by ``evaluate`` — re-runs the rescaled plan through
    :func:`evaluate_plan`; pass a throwaway ``evaluate_ctx`` because a
    plan the fast path refuses runs on the executor, which advances the
    environment and device state.
    """
    exact = relaxation_is_exact(plan, bucket, factor)
    if not any(_scalable(op, bucket) for op in plan):
        predicted = base.makespan
        method = "identity"
    else:
        predicted = predict_scaled_timing(plan, base, ctx, bucket,
                                          factor).makespan
        method = "relaxation"
        if not exact:
            probe_factor = factor if factor > 0 else _EPSILON_FACTOR
            probe_ctx = ExecutionContext(
                env=ctx.env, comm=ctx.comm, gpus=ctx.gpus,
                topology=ctx.topology, host_node=ctx.host_node,
                storage=ctx.storage, jitter=ctx.jitter)
            try:
                predicted = _Engine(scale_plan(plan, bucket,
                                               probe_factor),
                                    probe_ctx).run().makespan
                method = "fastpath-epsilon"
            except FastPathUnsupported:
                pass  # keep the relaxation estimate
    amdahl = None
    if cp_attr is not None:
        on_path = cp_attr.seconds.get(bucket, 0.0) \
            + cp_attr.contention_by_source.get(bucket, 0.0)
        amdahl = max(base.makespan - (1.0 - factor) * on_path, 0.0)
    result = WhatIf(bucket=bucket, factor=factor,
                    base_makespan=base.makespan,
                    predicted_makespan=predicted, method=method,
                    predicted_exact=exact or method == "fastpath-epsilon",
                    amdahl_makespan=amdahl)
    if evaluate:
        from ..plan.fastpath import evaluate_plan
        scaled = scale_plan(plan, bucket, factor)
        timing = evaluate_plan(scaled, evaluate_ctx or ctx, mode="auto")
        result.evaluated_makespan = timing.makespan
        result.evaluated_mode = timing.mode
    return result


# -- plan-level profile ------------------------------------------------------

@dataclass
class PlanProfile:
    """Everything the profiler derives from one evaluated plan."""

    plan_name: str
    world_size: int
    makespan: float
    path: CriticalPath
    attr: Attribution
    label: str
    shares: dict
    utilization: dict
    imbalance: dict
    #: Collective/P2P seconds hidden under compute (total minus exposed).
    overlapped_comm_s: float

    def as_dict(self) -> dict:
        return {
            "plan": self.plan_name, "world_size": self.world_size,
            "makespan_s": self.makespan, "label": self.label,
            "shares": self.shares,
            "attribution": self.attr.as_dict(),
            "overlapped_comm_s": self.overlapped_comm_s,
            "utilization": self.utilization,
            "imbalance": self.imbalance,
        }


def _total_comm_seconds(plan, times, groups) -> float:
    total = sum(g.duration for g in groups if not g.barrier)
    total += sum(times[op.uid][1] - times[op.uid][0] for op in plan
                 if isinstance(op, P2PCopy) and op.uid in times)
    return total


def profile_plan(plan: StepPlan, timing=None,
                 ctx: Optional[ExecutionContext] = None,
                 probe_cache: Optional[dict] = None) -> PlanProfile:
    """Profile one plan: critical path, attribution, label, utilization.

    ``timing`` defaults to a fresh fast-path/auto evaluation (requires
    ``ctx``); pass an existing :class:`PlanTiming` to profile times you
    already have.
    """
    if timing is None:
        if ctx is None:
            raise PlanError("profile_plan needs a timing or a context")
        from ..plan.fastpath import evaluate_plan
        timing = evaluate_plan(plan, ctx, mode="auto")
    times = _times_of(timing)
    path = critical_path(plan, timing, ctx=ctx, probe_cache=probe_cache)
    attr = attribution(path)
    label, shares = bottleneck_label(attr)
    groups, _by_uid = _rendezvous_groups(plan, times)
    exposed = attr.seconds.get("comm", 0.0) \
        + attr.contention_by_source.get("comm", 0.0)
    overlapped = max(_total_comm_seconds(plan, times, groups) - exposed,
                     0.0)
    makespan = timing.makespan if isinstance(timing, PlanTiming) \
        else max((e for _s, e in times.values()), default=0.0)
    return PlanProfile(
        plan_name=plan.name, world_size=plan.world_size,
        makespan=makespan, path=path, attr=attr, label=label,
        shares=shares,
        utilization=utilization(plan, timing, ctx=ctx),
        imbalance=imbalance(plan, timing),
        overlapped_comm_s=overlapped)


# -- run-level profile (a live TrainingJob) ----------------------------------

@dataclass
class WindowProfile:
    """One profiled wall-clock window (an optimizer step or checkpoint)."""

    index: int
    start: float
    end: float
    path: CriticalPath
    attr: Attribution

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class RunProfile:
    """A full training run, profiled step by step against its result."""

    result: object
    steps: list
    checkpoints: list
    #: Mean per-category seconds over steady-state steps.
    steady_attr: Attribution
    label: str
    shares: dict
    utilization: dict
    imbalance: dict
    reconstructed_total_s: float = 0.0
    reconciliation_rel_err: float = 0.0

    def as_dict(self) -> dict:
        return {
            "steps_profiled": len(self.steps),
            "checkpoints_profiled": len(self.checkpoints),
            "label": self.label, "shares": self.shares,
            "steady_attribution": self.steady_attr.as_dict(),
            "reported_total_s": self.result.total_time,
            "reconstructed_total_s": self.reconstructed_total_s,
            "reconciliation_rel_err": self.reconciliation_rel_err,
            "utilization": self.utilization,
            "imbalance": self.imbalance,
        }


def _mean_attribution(windows: list) -> Attribution:
    """Average per-category seconds across windows (same-width mean)."""
    if not windows:
        return Attribution({}, {}, (0.0, 0.0))
    n = len(windows)
    seconds: dict = {}
    contention: dict = {}
    for w in windows:
        for cat, s in w.attr.seconds.items():
            seconds[cat] = seconds.get(cat, 0.0) + s / n
        for src, s in w.attr.contention_by_source.items():
            contention[src] = contention.get(src, 0.0) + s / n
    wall = sum(w.wall for w in windows) / n
    return Attribution(seconds, contention, (0.0, wall))


def profile_run(job, sink_rank: int = 0) -> RunProfile:
    """Run a :class:`~repro.training.loop.TrainingJob` under the profiler.

    Hooks the executor's completion callback to capture every plan
    execution's absolute op times, runs the job, then tiles each
    measured step window (rank 0's wall clock, data wait included) and
    checkpoint window with critical-path segments.  The reconstructed
    total — steady-step means pushed through the ``TrainingResult``
    extrapolation formula — reconciles with ``result.total_time`` by
    construction; the relative error is recorded on the profile.

    The job must not have been started yet; its ``on_plan_done`` hook
    and a step listener are installed by this call.
    """
    import numpy as np

    from ..training.loop import WARMUP_STEPS

    captures: list = []
    step_ends: list = []
    job._exec_ctx.on_plan_done = lambda execution: captures.append(
        (execution.plan, dict(execution._times)))
    job.add_step_listener(lambda _n, now: step_ends.append(now))
    result = job.run()

    ctx = job._exec_ctx
    probe_cache: dict = {}
    step_caps = [c for c in captures if c[0].name != "checkpoint"]
    ckpt_caps = [c for c in captures if c[0].name == "checkpoint"]

    steps: list = []
    for i, (plan, times) in enumerate(step_caps[:len(step_ends)]):
        end = step_ends[i]
        start = end - job.step_times[i]
        rank_ops = [op.uid for op in plan.by_rank(sink_rank)
                    if op.uid in times]
        sink = max(rank_ops, key=lambda uid: times[uid][1]) \
            if rank_ops else None
        root_op_rank: dict = {op.uid: op.rank for op in plan}
        path = critical_path(plan, times, ctx=ctx, window=(start, end),
                             sink_uid=sink, gap_category="data-wait",
                             probe_cache=probe_cache)
        if path.root_uid is not None and \
                root_op_rank.get(path.root_uid) not in job._input_ranks:
            path = dataclasses.replace(path, segments=[
                dataclasses.replace(s, category="stall")
                if s.category == "data-wait" else s
                for s in path.segments])
        steps.append(WindowProfile(i, start, end, path,
                                   attribution(path)))

    checkpoints: list = []
    for i, (plan, times) in enumerate(ckpt_caps[:len(job._ckpt_spans)]):
        start, end = job._ckpt_spans[i]
        write = [uid for uid in times if "ckpt-write" in uid]
        sink = write[0] if write else None
        path = critical_path(plan, times, ctx=ctx, window=(start, end),
                             sink_uid=sink, probe_cache=probe_cache)
        checkpoints.append(WindowProfile(i, start, end, path,
                                         attribution(path)))

    steady = steps[WARMUP_STEPS:] or steps
    steady_attr = _mean_attribution(steady)
    label, shares = bottleneck_label(steady_attr)

    # Reconcile: push the profiler's per-window walls through the exact
    # TrainingResult extrapolation formula.
    step_walls = [sum(s.duration for s in w.path.segments)
                  for w in steps]
    steady_walls = step_walls[WARMUP_STEPS:] or step_walls
    step_mean = float(np.mean(steady_walls)) if steady_walls else 0.0
    ckpt_walls = [sum(s.duration for s in w.path.segments)
                  for w in checkpoints]
    ckpt_mean = float(np.mean(ckpt_walls)) if ckpt_walls else 0.0
    reconstructed = result.extrapolated_total(step_mean, ckpt_mean)
    rel_err = abs(reconstructed - result.total_time) \
        / result.total_time if result.total_time else 0.0

    last = steps[-1] if steps else None
    util = utilization(step_caps[len(steps) - 1][0],
                       step_caps[len(steps) - 1][1], ctx=ctx,
                       window=(last.start, last.end)) if steps else {}
    imb = imbalance(step_caps[len(steps) - 1][0],
                    step_caps[len(steps) - 1][1]) if steps else {}
    return RunProfile(result=result, steps=steps,
                      checkpoints=checkpoints, steady_attr=steady_attr,
                      label=label, shares=shares, utilization=util,
                      imbalance=imb, reconstructed_total_s=reconstructed,
                      reconciliation_rel_err=rel_err)


# -- the bottleneck report ---------------------------------------------------

@dataclass
class BottleneckReport:
    """The profiler's verdict for one benchmark x strategy x backend cell."""

    benchmark: str
    strategy: str
    configuration: str
    world_size: int
    label: str
    shares: dict
    plan_profile: Optional[PlanProfile] = None
    run_profile: Optional[RunProfile] = None
    what_ifs: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "benchmark": self.benchmark,
            "strategy": self.strategy,
            "configuration": self.configuration,
            "world_size": self.world_size,
            "label": self.label,
            "shares": self.shares,
            "what_ifs": [w.as_dict() for w in self.what_ifs],
            "meta": dict(self.meta),
        }
        if self.plan_profile is not None:
            out["plan"] = self.plan_profile.as_dict()
        if self.run_profile is not None:
            out["run"] = self.run_profile.as_dict()
        return out

    # -- rendering --------------------------------------------------------
    def render_text(self) -> str:
        return render_report_text(self.to_json())

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)


def render_report_text(report: dict) -> str:
    """The text bottleneck report for a :meth:`BottleneckReport.to_json`
    value.

    Reads only the dict, so a value loaded back from the result cache
    renders the bytes the live report does.  Nothing depends on the
    dicts' key order (the cache stores them with ``sort_keys``):
    attribution rows and their total follow
    :data:`ATTRIBUTION_CATEGORIES`, and utilization ties break by
    resource name.
    """
    plan, run = report.get("plan"), report.get("run")
    lines = [
        f"bottleneck report: {report['benchmark']} / {report['strategy']} "
        f"on {report['configuration']} (world={report['world_size']})",
        f"verdict: {report['label']}  "
        + "  ".join(f"{k}={v:.1%}"
                    for k, v in sorted(report["shares"].items())),
    ]
    attr = None
    if run is not None:
        attr = run["steady_attribution"]
    elif plan is not None:
        attr = plan["attribution"]
    if attr is not None:
        seconds = [(cat, attr["seconds"].get(cat, 0.0))
                   for cat in ATTRIBUTION_CATEGORIES]
        wall = sum(s for _cat, s in seconds) or 1.0
        lines.append("")
        lines.append("critical-path attribution (per step):")
        for cat, s in seconds:
            if s <= 0:
                continue
            bar = "#" * max(1, int(round(40 * s / wall)))
            lines.append(f"  {cat:<11} {s * 1e3:>9.3f} ms "
                         f"{s / wall:>6.1%}  {bar}")
        lines.append(f"  {'total':<11} {wall * 1e3:>9.3f} ms")
    if run is not None:
        lines.append("")
        lines.append(
            f"reconciliation: reported total "
            f"{run['reported_total_s']:.6g} s, reconstructed "
            f"{run['reconstructed_total_s']:.6g} s "
            f"(rel err {run['reconciliation_rel_err']:.2e})")
    if report["what_ifs"]:
        lines.append("")
        lines.append("what-if speedup ceilings (category -> 0 cost):")
        lines.append(f"  {'bucket':<11} {'predicted':>10} "
                     f"{'evaluated':>10} {'amdahl':>8}  method")
        for w in report["what_ifs"]:
            ev = f"{w['evaluated_ceiling']:.3f}x" \
                if w["evaluated_ceiling"] is not None else "-"
            am = f"{w['amdahl_ceiling']:.3f}x" \
                if w["amdahl_ceiling"] is not None else "-"
            lines.append(
                f"  {w['bucket']:<11} {w['predicted_ceiling']:>9.3f}x "
                f"{ev:>10} {am:>8}  {w['method']}"
                + ("" if w["predicted_exact"] else " (approx)"))
    if plan is not None and plan["utilization"]:
        lines.append("")
        lines.append("resource utilization (plan window):")
        rows = sorted(plan["utilization"].items(),
                      key=lambda kv: (-kv[1]["busy_frac"], kv[0]))[:8]
        for name, stats in rows:
            lines.append(
                f"  {name:<28} busy {stats['busy_frac']:>6.1%}"
                f"  contended {stats['contended_s'] * 1e3:.3f} ms")
    imb = None
    if plan is not None:
        imb = plan["imbalance"]
    elif run is not None:
        imb = run["imbalance"]
    if imb and imb.get("per_rank"):
        lines.append(
            f"straggler: rank {imb['straggler_rank']} "
            f"(end spread {imb['end_spread_frac']:.2%})")
    return "\n".join(lines)
