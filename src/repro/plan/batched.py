"""Vectorized grid evaluation: many structurally-identical plans at once.

Sweep grids (Fig. 16 cells, autotune knob sweeps, what-if fans) are
dominated by *structurally identical* plans: the same op DAG, the same
rendezvous shape, the same storage queue — only the numeric costs
(FLOPs, bytes, chunk factors, latencies) differ.  The scalar fast path
(:mod:`repro.plan.fastpath`) still pays per-op Python for every cell.
This module pays it **once per structure**:

1. **Record.**  One *reference lane* of each structure group runs
   through the scalar fast-path engine with a :class:`_Recorder`
   attached, which, alongside the reference floats, emits a linear
   *tape*: one
   register per event time, one instruction per arithmetic step
   (``end = max(ready, stream) + dur``, fluid-epoch byte advances,
   drain horizons), and one *guard* per control decision the schedule
   took (stream FIFO order, rendezvous join order, storage admission
   order, fluid event order, drain membership, watchdog margins).
   Numeric inputs are recorded *symbolically* as column specs
   ("compute duration of op ``uid``", "transport-inflated flow bytes of
   pair *(i, j)*") rather than as the reference's values.

2. **Resolve.**  Every lane resolves the column specs against its own
   plan and context — real ``GPU.kernel_time`` calls, real
   ``Communicator._transport_factor`` inflation, real route latencies —
   producing a ``(n_columns, n_lanes)`` matrix.  Resolution also checks
   the *rate-invariance preconditions*: each lane's routes must be
   segment-isomorphic to the reference's with exactly equal link
   capacities, so the max-min water-fill assigns the same rates to
   every lane.  Lanes that fail any precondition are evaluated scalar.

3. **Replay.**  The tape executes once with numpy ``(n_lanes,)``
   registers — identical float arithmetic in identical order, so lanes
   whose guards all hold get **bit-identical** results to their own
   scalar fast-path run.  Guards evaluate as boolean masks; any lane
   whose control flow would have diverged (an order flip, a tie the
   scalar engine refuses, a watchdog race, a flow draining early) is
   flagged and transparently re-evaluated scalar.

Equivalence is therefore exact-by-construction for batched lanes and
delegated to :func:`~repro.plan.fastpath.evaluate_plan` semantics for
fallback lanes; ``assert_equivalence=True`` cross-checks every batched
lane against its scalar run at 1e-9 (the debug mode the tests run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..fabric.flows import _EPSILON_BYTES as _EPS_BYTES
from ..fabric.flows import _EPSILON_SECONDS as _EPS_SECONDS
from .executor import ExecutionContext
from .fastpath import (
    FastPathUnsupported,
    PlanTiming,
    _assert_equal,
    _Engine,
    evaluate_plan,
    fastpath_schedule,
    fastpath_support,
)
from .ir import (
    Collective,
    Compute,
    P2PCopy,
    StepPlan,
    op_endpoints,
    storage_leg,
)

__all__ = [
    "BatchResult",
    "LaneIncompatible",
    "evaluate_batch",
    "plan_structure_key",
]


class LaneIncompatible(Exception):
    """A lane cannot share the group's tape (falls back to scalar)."""


# -- structure keys ----------------------------------------------------------

def _op_structure(op) -> tuple:
    """The control-flow-relevant shape of one op (numeric costs elided).

    Two ops with equal structure take the same branches through the
    scalar engine *statically*; dynamic decisions (orderings, drains)
    are covered by replay guards instead.  ``bytes`` participates only
    through its zero/epsilon classification — zero-byte transfers and
    collectives short-circuit the fluid timeline entirely.
    """
    base = (type(op).__name__, op.uid, op.rank, op.deps,
            op.bytes > 0.0, op.bytes > _EPS_BYTES)
    if isinstance(op, Compute):
        return base + (op.jittered,)
    if isinstance(op, Collective):
        return base + (op.comm, op.root, op.group)
    if isinstance(op, P2PCopy):
        return base + (op.dst_rank,)
    return base


def _ctx_structure(ctx: ExecutionContext) -> tuple:
    """The control-flow-relevant shape of an execution context."""
    comm = ctx.comm
    storage = ctx.storage
    return (
        tuple(g.name for g in ctx.gpus),
        ctx.host_node,
        tuple(comm.ranks) if comm is not None else None,
        getattr(comm, "watchdog", None) if comm is not None else None,
        (storage.spec.queue_depth, storage.media_node)
        if storage is not None else None,
    )


def plan_structure_key(plan: StepPlan, ctx: ExecutionContext) -> tuple:
    """Hashable grouping key: lanes with equal keys may share one tape.

    Captures everything that steers the scalar engine's *static*
    control flow — op kinds, the dependency DAG, rendezvous groups,
    zero-byte short-circuits, communicator membership, the storage
    queue shape — while excluding all purely numeric costs.
    """
    return (plan.world_size,
            tuple(_op_structure(op) for op in plan.ops),
            _ctx_structure(ctx))


# -- tape representation -----------------------------------------------------

# Instruction opcodes.  The tape is a flat list of tuples; replay
# dispatches on the leading int.  Registers hold (n_lanes,) float64
# arrays of event times; REM holds per-flow remaining-bytes arrays.
_CONST = 0    # (out, value)
_MAX = 1      # (out, (regs...))
_COMPUTE = 2  # (out, ready_reg, stream_reg_or_-1, dur_col)
_ADD = 3      # (out, in_reg, col)
_DELAY = 4    # (out, in_reg, seconds_col, fraction_col)
_ORDER = 5    # (a, b, strict)           guard: T[a] < T[b]  (<= if lax)
_FLOW = 6     # (fidx, size_col)         REM[f] = C[size]
_BOUND = 7    # (arr_reg, base_reg, ((fidx, rate), ...))
              # guard: T[arr] <= T[base] + REM[f]/rate for each survivor
_TIMER = 8    # (out, base_reg, fmin, rate_min, ((fidx, rate), ...))
              # T[out] = T[base] + REM[fmin]/rate_min;
              # guard: that horizon is minimal among the active flows
_RECOMP = 9   # (last_reg, now_reg, ((fidx, rate), ...), (drained fidxs),
              #  ((survivor fidx, rate), ...))
              # advance all active flows by dt, then check the drain
              # membership the reference observed
_WATCHDOG = 10  # (end_reg, arr_reg, watchdog_seconds)

# Column spec tags (resolved per lane by _resolve_columns).
_C_COMPUTE = "compute"      # (tag, uid)
_C_DELAY_S = "delay_s"      # (tag, uid)
_C_DELAY_F = "delay_f"      # (tag, uid)
_C_FIXED = "fixed"          # (tag, src_spec, dst_spec)  overhead + latency
_C_OP_BYTES = "op_bytes"    # (tag, uid, streamed)
_C_IO_BYTES = "io_bytes"    # (tag, uid, streamed)
_C_IO_LAT = "io_latency"    # (tag, uid)
_C_COLL = "coll_flow"       # (tag, uid, divisor, src_spec, dst_spec,
                            #  streamed)

# src_spec/dst_spec are ir.op_endpoints specs; each lane resolves them
# with ExecutionContext.node.


@dataclass
class _Tape:
    """One structure group's recorded schedule, ready to replay."""

    instrs: list = field(default_factory=list)
    columns: list = field(default_factory=list)
    #: uid -> (start_reg, end_reg)
    op_regs: dict = field(default_factory=dict)
    #: (flow_index, route_use_index) pairs for rate-invariance checks.
    flow_routes: list = field(default_factory=list)
    #: route_use_index -> (src_spec, dst_spec, ref_seg_keys, ref_caps)
    route_uses: list = field(default_factory=list)
    #: Rendezvous member uid tuples (per group) whose (bytes, chunk)
    #: must match lane-wise, mirroring the engine's spec check.
    group_members: list = field(default_factory=list)
    n_regs: int = 0
    n_flows: int = 0
    #: Lazily-built index-array form of ``instrs`` (see :func:`_compile`).
    compiled: Optional[list] = None


# -- the recorder ------------------------------------------------------------

class _Recorder:
    """Writes a tape while :class:`~repro.plan.fastpath._Engine` runs.

    The engine calls these hooks only when a recorder is attached: each
    returns the register an event's time lands in, or appends the guard
    a control decision needs.  Numeric inputs go in as column specs, so
    every lane can resolve them against its own plan and context.
    Register 0 holds t = 0, the time every root op is scheduled at.
    """

    def __init__(self):
        self.tape = _Tape()
        self._columns: dict = {}        # spec -> column index
        self._route_uses: dict = {}     # (src_spec, dst_spec) -> index
        self._end_regs: dict = {}       # uid -> end reg
        self._last_update = self._reg()
        self._emit(_CONST, self._last_update, 0.0)
        self._last_io_event: Optional[int] = None
        self._last_io_enqueue: Optional[int] = None

    def _reg(self) -> int:
        r = self.tape.n_regs
        self.tape.n_regs += 1
        return r

    def _emit(self, *instr) -> None:
        self.tape.instrs.append(instr)

    def _col(self, *spec) -> int:
        idx = self._columns.get(spec)
        if idx is None:
            idx = self._columns[spec] = len(self.tape.columns)
            self.tape.columns.append(spec)
        return idx

    # -- registers and orderings ------------------------------------------
    def max(self, regs) -> int:
        """Register of the max over ``regs`` (commutative: no guard)."""
        regs = tuple(dict.fromkeys(regs))
        if len(regs) == 1:
            return regs[0]
        out = self._reg()
        self._emit(_MAX, out, regs)
        return out

    def after(self, last, reg: int) -> None:
        """Guard that ``reg`` strictly follows the ``(time, reg)`` event
        ``last`` on one FIFO: the scalar engine refuses ties, so a tying
        lane must fall back too."""
        if last is not None:
            self._emit(_ORDER, last[1], reg, True)

    def op_done(self, uid, start_reg: int, end_reg: int) -> None:
        self.tape.op_regs[uid] = (start_reg, end_reg)
        self._end_regs[uid] = end_reg

    def ready(self, op) -> int:
        return self.max(self._end_regs[dep] for dep in op.deps)

    def delay(self, reg: int, uid) -> int:
        out = self._reg()
        self._emit(_DELAY, out, reg, self._col(_C_DELAY_S, uid),
                   self._col(_C_DELAY_F, uid))
        return out

    def compute(self, reg: int, stream_reg: int, uid) -> int:
        out = self._reg()
        self._emit(_COMPUTE, out, reg, stream_reg, self._col(_C_COMPUTE, uid))
        return out

    def rendezvous(self, group) -> int:
        # Lane-wise the engine's spec check demands every member op
        # carry the same (bytes, chunk); record the membership so column
        # resolution can verify it per lane.
        self.tape.group_members.append(tuple(group.uids.values()))
        return self.max(r for _t, r in group.arrived.values())

    def watchdog(self, end_reg: int, arrival_reg: int,
                 seconds: float) -> None:
        self._emit(_WATCHDOG, end_reg, arrival_reg, seconds)

    # -- transfers ---------------------------------------------------------
    def _tag(self, size_spec, src_spec, dst_spec, nbytes, route) -> tuple:
        streamed = nbytes > _EPS_BYTES and bool(route.segments)
        return (self._col(*size_spec, streamed), src_spec, dst_spec, route)

    def op_transfer(self, op, ends, route) -> tuple:
        src, dst = ends
        return self._tag((_C_OP_BYTES, op.uid), src, dst, op.bytes, route)

    def coll_transfer(self, group, i: int, j: int, nbytes: float,
                      route) -> tuple:
        uid = next(iter(group.uids.values()))
        src, dst = ("comm", i), ("comm", j)
        return self._tag((_C_COLL, uid, group.divisor, src, dst),
                         src, dst, nbytes, route)

    def admit_io(self, op, reg: int, ends, nbytes: float, route) -> tuple:
        src, dst = ends
        launched = self._reg()
        self._emit(_ADD, launched, reg, self._col(_C_IO_LAT, op.uid))
        return launched, self._tag((_C_IO_BYTES, op.uid), src, dst,
                                   nbytes, route)

    def fixed(self, reg: int, tag) -> int:
        _size, src, dst, _route = tag
        out = self._reg()
        self._emit(_ADD, out, reg, self._col(_C_FIXED, src, dst))
        return out

    def io_event(self, reg: int, enqueue: bool) -> None:
        # Admission control is order-driven: guard the whole interleaved
        # sequence of storage events non-strictly (a completion landing
        # on an enqueue's instant commutes — the op is admitted at that
        # instant either way), and additionally keep consecutive
        # *enqueues* strictly ordered: two commands racing for the same
        # queue slot is exactly the ambiguity the engine refuses.
        last = self._last_io_event
        if last is not None and last != reg:
            self._emit(_ORDER, last, reg, False)
        self._last_io_event = reg
        if enqueue:
            if self._last_io_enqueue is not None:
                self._emit(_ORDER, self._last_io_enqueue, reg, True)
            self._last_io_enqueue = reg

    # -- the global fluid timeline ----------------------------------------
    def flow_arrives(self, reg: int, flows: dict) -> None:
        # The arrival must land inside the current fluid epoch: after
        # the previous fluid event, and before any active flow would
        # have drained (otherwise the lane's rate history differs).
        self._emit(_ORDER, self._last_update, reg, False)
        if flows:
            self._emit(_BOUND, reg, self._last_update,
                       tuple((fid, f.rate) for fid, f in flows.items()))

    def flow(self, fid: int, tag) -> None:
        size_col, src, dst, route = tag
        key = (src, dst)
        use = self._route_uses.get(key)
        if use is None:
            use = self._route_uses[key] = len(self.tape.route_uses)
            self.tape.route_uses.append(
                (src, dst, tuple(seg.key for seg in route.segments),
                 tuple(seg.capacity for seg in route.segments)))
        self.tape.n_flows = fid
        self.tape.flow_routes.append((fid, use))
        self._emit(_FLOW, fid, size_col)

    def recompute(self, reg: int, flows: dict, drained: list) -> None:
        """Advance every active flow to ``reg``, then check the drain
        membership the reference observed.  A flow added at this event
        still has rate 0, so the advance leaves it untouched."""
        active = tuple((fid, f.rate) for fid, f in flows.items())
        survivors = tuple((fid, rate) for fid, rate in active
                          if fid not in drained)
        self._emit(_RECOMP, self._last_update, reg, active,
                   tuple(drained), survivors)
        self._last_update = reg

    def timer(self, flows: dict) -> int:
        # A fired timer directly follows the fluid event that armed it
        # (anything in between would have bumped the generation), so
        # the flow state here *is* the arming state: the horizon to
        # replay is the argmin flow's remaining/rate, guarded minimal
        # against every other active flow's horizon lane-wise.
        fmin, rmin, best = None, 0.0, None
        others = []
        for fid, f in flows.items():
            if f.rate <= 0:
                continue
            h = f.remaining / f.rate
            if best is None or h < best:
                if fmin is not None:
                    others.append((fmin, rmin))
                fmin, rmin, best = fid, f.rate, h
            else:
                others.append((fid, f.rate))
        out = self._reg()
        self._emit(_TIMER, out, self._last_update, fmin, rmin,
                   tuple(others))
        return out


def _record(plan: StepPlan, ctx: ExecutionContext) -> tuple:
    """Run ``plan`` on the fast-path engine with a recorder attached.

    Returns ``(tape, timing)``; the timing is the scalar engine's own
    result, since recording only adds emission to the same run.
    """
    recorder = _Recorder()
    timing = _Engine(plan, ctx, recorder).run()
    return recorder.tape, timing


# -- column resolution -------------------------------------------------------

class _LaneResolver:
    """Resolves one lane's column values and rate preconditions."""

    def __init__(self, tape: _Tape, plan: StepPlan,
                 ctx: ExecutionContext):
        self.tape = tape
        self.plan = plan
        self.ctx = ctx
        self._routes: dict = {}
        self._factors: dict = {}

    def _route(self, src_spec, dst_spec):
        key = (src_spec, dst_spec)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self.ctx.route(src_spec, dst_spec)
        return route

    def _factor(self, src_spec, dst_spec, chunk) -> float:
        key = (src_spec, dst_spec, chunk)
        factor = self._factors.get(key)
        if factor is None:
            route = self._route(src_spec, dst_spec)
            factor = self._factors[key] = \
                self.ctx.comm._transport_factor(route, chunk)
        return factor

    def _streamed(self, nbytes: float, route, recorded: bool,
                  what: str) -> None:
        lane = nbytes > _EPS_BYTES and bool(route.segments)
        if lane != recorded:
            raise LaneIncompatible(
                f"{what}: lane {'streams' if lane else 'short-circuits'} "
                "where the reference does the opposite")

    def column(self, spec) -> float:
        tag = spec[0]
        plan, ctx = self.plan, self.ctx
        if tag == _C_COMPUTE:
            op = plan.op(spec[1])
            return ctx.gpus[op.rank].kernel_time(
                op.flops, op.hbm_bytes, op.precision, op.efficiency)
        if tag == _C_DELAY_S:
            return plan.op(spec[1]).seconds
        if tag == _C_DELAY_F:
            return plan.op(spec[1]).elapsed_fraction
        if tag == _C_FIXED:
            route = self._route(spec[1], spec[2])
            return ctx.topology.transfer_overhead + route.latency
        if tag == _C_OP_BYTES:
            op = plan.op(spec[1])
            route = self._route(*op_endpoints(op))
            self._streamed(op.bytes, route, spec[2], op.uid)
            return op.bytes
        if tag == _C_IO_BYTES:
            op = plan.op(spec[1])
            nbytes, _latency = storage_leg(op, ctx.storage.spec)
            route = self._route(*op_endpoints(op))
            self._streamed(nbytes, route, spec[2], op.uid)
            return nbytes
        if tag == _C_IO_LAT:
            return storage_leg(plan.op(spec[1]), ctx.storage.spec)[1]
        if tag == _C_COLL:
            _tag, uid, divisor, src_spec, dst_spec, streamed = spec
            op = plan.op(uid)
            per_transfer = op.bytes / divisor
            factor = self._factor(src_spec, dst_spec, op.chunk_bytes)
            nbytes = per_transfer * factor
            route = self._route(src_spec, dst_spec)
            self._streamed(nbytes, route, streamed, uid)
            return nbytes
        raise LaneIncompatible(f"unknown column spec {spec!r}")

    def check_rates(self) -> None:
        """Verify the max-min rate history is lane-invariant.

        The replay reuses the reference's solved rates verbatim, which
        is valid iff the lane's contention problem is isomorphic: each
        flow crosses the same-shaped segment sequence, the segment-key
        correspondence is one consistent bijection, and every mapped
        capacity is exactly equal.  Anything else (a different backend
        topology, a degraded link) changes the water-fill and the lane
        must run scalar.
        """
        ref_to_lane: dict = {}
        lane_to_ref: dict = {}
        for _fid, use in self.tape.flow_routes:
            src_spec, dst_spec, ref_keys, ref_caps = \
                self.tape.route_uses[use]
            route = self._route(src_spec, dst_spec)
            segs = route.segments
            if len(segs) != len(ref_keys):
                raise LaneIncompatible(
                    f"route {src_spec}->{dst_spec}: hop count differs "
                    "from the reference lane")
            for seg, ref_key, ref_cap in zip(segs, ref_keys, ref_caps):
                mapped = ref_to_lane.setdefault(ref_key, seg.key)
                if mapped != seg.key:
                    raise LaneIncompatible(
                        "segment correspondence is inconsistent "
                        f"({ref_key} -> {mapped} vs {seg.key})")
                back = lane_to_ref.setdefault(seg.key, ref_key)
                if back != ref_key:
                    raise LaneIncompatible(
                        "two reference segments map onto one lane "
                        f"segment ({seg.key})")
                if seg.capacity != ref_cap:
                    raise LaneIncompatible(
                        f"capacity of {seg.key} is {seg.capacity!r}, "
                        f"reference has {ref_cap!r}")

    def check_groups(self) -> None:
        """Lane-wise mirror of the engine's rendezvous spec check."""
        for members in self.tape.group_members:
            first = self.plan.op(members[0])
            for uid in members[1:]:
                op = self.plan.op(uid)
                if (op.bytes != first.bytes
                        or getattr(op, "chunk_bytes", None)
                        != getattr(first, "chunk_bytes", None)):
                    raise LaneIncompatible(
                        f"collective members {members[0]}/{uid} disagree "
                        "on payload (the engine would refuse)")

    def resolve(self) -> np.ndarray:
        self.check_rates()
        self.check_groups()
        return np.array([self.column(spec)
                         for spec in self.tape.columns])


# -- replay ------------------------------------------------------------------

def _flow_index(flows) -> Optional[tuple]:
    """Split ``((fid, rate), ...)`` into rate-class index/rate arrays.

    Returns ``(pos_idx, pos_rates, zero_idx)`` where ``pos_idx`` gathers
    the flows the scalar code would divide by (rate > 0, including
    ``inf`` — ``rem / inf == 0`` reproduces the scalar branch) and
    ``zero_idx`` the rate-0 flows it would test by bytes alone.  Rate
    arrays are ``(k, 1)`` so they broadcast against ``(k, n)`` REM rows.
    """
    pos = [(fid, rate) for fid, rate in flows if rate > 0]
    zero = [fid for fid, rate in flows if rate <= 0]
    pos_idx = np.array([f for f, _ in pos], dtype=np.intp) if pos else None
    pos_rates = (np.array([r for _, r in pos])[:, None] if pos else None)
    zero_idx = np.array(zero, dtype=np.intp) if zero else None
    if pos_idx is None and zero_idx is None:
        return None
    return pos_idx, pos_rates, zero_idx


def _compile(tape: _Tape) -> list:
    """Pre-resolve per-instruction flow lists into numpy index arrays.

    The recorded tape stores fluid state as ``(fid, rate)`` tuples; a
    naive replay loops over them with one tiny numpy op per flow, which
    dominates runtime on communication-heavy plans (thousands of flows
    per recompute epoch).  Compilation turns each _RECOMP/_BOUND/_TIMER
    into gather/scatter index arrays so replay touches the whole epoch
    with a handful of matrix ops.  Rates are reference scalars — the
    rate-invariance precondition (see :class:`_LaneResolver`) is what
    lets them be baked in per instruction rather than kept per lane.
    """
    out = []
    for instr in tape.instrs:
        opcode = instr[0]
        if opcode == _RECOMP:
            _o, last, now, active, drained, survivors = instr
            fin = [(fid, rate) for fid, rate in active
                   if 0.0 < rate < np.inf]
            inf = [fid for fid, rate in active if rate == np.inf]
            fin_idx = (np.array([f for f, _ in fin], dtype=np.intp)
                       if fin else None)
            fin_rates = (np.array([r for _, r in fin])[:, None]
                         if fin else None)
            inf_idx = np.array(inf, dtype=np.intp) if inf else None
            rate_of = dict(active)
            dr = _flow_index(tuple((fid, rate_of.get(fid, 0.0))
                                   for fid in drained))
            sv = _flow_index(survivors)
            out.append((_RECOMP, last, now, fin_idx, fin_rates, inf_idx,
                        dr, sv))
        elif opcode == _BOUND:
            _o, arr, base, flows = instr
            pos = [(fid, rate) for fid, rate in flows if rate > 0]
            if not pos:
                continue
            out.append((_BOUND, arr, base,
                        np.array([f for f, _ in pos], dtype=np.intp),
                        np.array([r for _, r in pos])[:, None]))
        elif opcode == _TIMER:
            _o, out_reg, base, fmin, rmin, others = instr
            pos = [(fid, rate) for fid, rate in others if rate > 0]
            o_idx = (np.array([f for f, _ in pos], dtype=np.intp)
                     if pos else None)
            o_rates = (np.array([r for _, r in pos])[:, None]
                       if pos else None)
            out.append((_TIMER, out_reg, base, fmin, rmin, o_idx,
                        o_rates))
        else:
            out.append(instr)
    return out


def _membership(REM: np.ndarray, spec: Optional[tuple],
                want_gone: bool) -> Optional[np.ndarray]:
    """Per-lane drain-membership check for one flow set.

    Mirrors the engine's drain test: a flow is gone when its bytes
    are within epsilon, or its horizon ``rem / rate`` is (rate > 0).
    Returns the per-lane mask where the set matches the reference
    (all gone for drained sets, none gone for survivor sets).
    """
    if spec is None:
        return None
    pos_idx, pos_rates, zero_idx = spec
    good = None
    if pos_idx is not None:
        rem = REM[pos_idx]
        gone = (rem <= _EPS_BYTES) | (rem / pos_rates <= _EPS_SECONDS)
        good = gone.all(axis=0) if want_gone else ~gone.any(axis=0)
    if zero_idx is not None:
        gone = REM[zero_idx] <= _EPS_BYTES
        g = gone.all(axis=0) if want_gone else ~gone.any(axis=0)
        good = g if good is None else good & g
    return good


def _replay(tape: _Tape, cols: np.ndarray, n: int):
    """Execute the tape over ``(n_cols, n_lanes)`` columns.

    Returns ``(T, ok)``: the register file (event-time arrays) and the
    per-lane guard mask.  Lanes where ``ok`` is False took a control
    path the reference did not record; their register values are
    unspecified and they must be re-evaluated scalar.
    """
    if tape.compiled is None:
        tape.compiled = _compile(tape)
    T: list = [None] * tape.n_regs
    # Remaining bytes per flow (fids are 1-based), dense so _RECOMP can
    # gather/scatter whole epochs; rows are written by _FLOW before any
    # instruction reads them.
    REM = np.zeros((tape.n_flows + 1, n))
    ok = np.ones(n, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for instr in tape.compiled:
            opcode = instr[0]
            if opcode == _COMPUTE:
                _o, out, ready, stream, col = instr
                t = T[ready]
                if stream >= 0:
                    t = np.maximum(t, T[stream])
                else:
                    t = np.maximum(t, 0.0)
                T[out] = t + cols[col]
            elif opcode == _ADD:
                _o, out, a, col = instr
                T[out] = T[a] + cols[col]
            elif opcode == _MAX:
                _o, out, regs = instr
                T[out] = np.maximum.reduce([T[r] for r in regs])
            elif opcode == _ORDER:
                _o, a, b, strict = instr
                if strict:
                    ok &= T[a] < T[b]
                else:
                    ok &= T[a] <= T[b]
            elif opcode == _RECOMP:
                (_o, last, now, fin_idx, fin_rates, inf_idx, drained,
                 survivors) = instr
                dt = T[now] - T[last]
                if fin_idx is not None:
                    rem = REM[fin_idx]
                    x = fin_rates * dt[None, :]
                    REM[fin_idx] = np.where(x < rem, rem - x, 0.0)
                if inf_idx is not None:
                    REM[inf_idx] = np.where(dt[None, :] > 0, 0.0,
                                            REM[inf_idx])
                good = _membership(REM, survivors, want_gone=False)
                if good is not None:
                    ok &= good
                good = _membership(REM, drained, want_gone=True)
                if good is not None:
                    ok &= good
            elif opcode == _FLOW:
                _o, fid, col = instr
                REM[fid] = cols[col]
            elif opcode == _TIMER:
                _o, out, base, fmin, rmin, o_idx, o_rates = instr
                h = REM[fmin] / rmin
                T[out] = T[base] + h
                if o_idx is not None:
                    ok &= (h[None, :] <= REM[o_idx] / o_rates).all(axis=0)
            elif opcode == _BOUND:
                _o, arr, base, idx, rates = instr
                bound = T[base][None, :] + REM[idx] / rates
                ok &= (T[arr][None, :] <= bound).all(axis=0)
            elif opcode == _DELAY:
                _o, out, a, scol, fcol = instr
                t = T[a]
                T[out] = t + (cols[scol] + cols[fcol] * t)
            elif opcode == _WATCHDOG:
                _o, end, arr, watchdog = instr
                ok &= (T[end] - T[arr]) < watchdog
            elif opcode == _CONST:
                _o, out, value = instr
                T[out] = np.full(n, value)
            else:  # pragma: no cover - opcode set is closed
                raise AssertionError(f"unknown opcode {opcode}")
    return T, ok


# -- public API --------------------------------------------------------------

@dataclass
class BatchResult:
    """Outcome of one :func:`evaluate_batch` call."""

    #: Per-lane timings, in input order.
    timings: list
    #: Number of structure groups the lanes partitioned into.
    groups: int
    #: Lanes whose results came from a vectorized tape replay.
    batched_lanes: int
    #: Lanes evaluated scalar (singleton group, precondition failure,
    #: recording refusal, or guard divergence).
    fallback_lanes: int
    #: Input indices whose guards fired during replay.
    diverged: list = field(default_factory=list)


def _lane_timing(tape: _Tape, T, lane: int) -> PlanTiming:
    op_times = {}
    makespan = 0.0
    for uid, (sreg, ereg) in tape.op_regs.items():
        start = float(T[sreg][lane])
        end = float(T[ereg][lane])
        op_times[uid] = (start, end)
        if end > makespan:
            makespan = end
    return PlanTiming(mode="batched", op_times=op_times,
                      makespan=makespan)


def evaluate_batch(lanes: Sequence[tuple],
                   fallback: str = "fastpath",
                   assert_equivalence: bool = False) -> BatchResult:
    """Evaluate many ``(plan, ctx)`` lanes, vectorizing within groups.

    Lanes are grouped by :func:`plan_structure_key`; each multi-lane
    group records one reference tape (one scalar-engine run) and
    replays it as a numpy array program over every lane's resolved
    cost columns.  Lanes a group cannot carry — rate preconditions
    violated, control-flow guards fired, recording refused — are
    evaluated with the scalar engine instead, so the result for every
    lane equals what that lane's own scalar evaluation produces.

    Parameters
    ----------
    fallback:
        Engine for scalar re-evaluation: ``"fastpath"`` (default; pure,
        raises :class:`FastPathUnsupported` for ineligible lanes),
        ``"auto"`` or ``"executor"`` (the executor leg advances the
        lane's ``ctx.env`` and device state — throwaway systems only).
    assert_equivalence:
        Debug mode: additionally run every *batched* lane through the
        scalar fast path and compare all op times and the makespan at
        1e-9 relative tolerance, raising ``AssertionError`` on drift.

    Returns a :class:`BatchResult` with per-lane
    :class:`~repro.plan.fastpath.PlanTiming` values in input order
    (batched lanes report ``mode="batched"``).
    """
    lanes = list(lanes)
    timings: list = [None] * len(lanes)
    groups: dict = {}
    fallback_idx: list = []
    diverged: list = []
    for idx, (plan, ctx) in enumerate(lanes):
        if fastpath_support(plan, ctx) is not None:
            fallback_idx.append(idx)
            continue
        key = plan_structure_key(plan, ctx)
        groups.setdefault(key, []).append(idx)

    batched = 0
    for members in groups.values():
        if len(members) == 1:
            fallback_idx.extend(members)
            continue
        ref_idx = members[0]
        ref_plan, ref_ctx = lanes[ref_idx]
        try:
            tape, _timing = _record(ref_plan, ref_ctx)
        except FastPathUnsupported:
            # The reference schedule itself is ambiguous; every lane
            # takes the scalar path (which applies its own refusals).
            fallback_idx.extend(members)
            continue
        cols = []
        replayable = []
        for idx in members:
            plan, ctx = lanes[idx]
            try:
                cols.append(_LaneResolver(tape, plan, ctx).resolve())
            except LaneIncompatible:
                fallback_idx.append(idx)
            else:
                replayable.append(idx)
        if not replayable:
            continue
        matrix = np.stack(cols, axis=1) if tape.columns \
            else np.zeros((0, len(replayable)))
        T, ok = _replay(tape, matrix, len(replayable))
        for lane, idx in enumerate(replayable):
            if not ok[lane]:
                diverged.append(idx)
                fallback_idx.append(idx)
                continue
            timing = _lane_timing(tape, T, lane)
            if assert_equivalence:
                plan, ctx = lanes[idx]
                _assert_equal(timing, fastpath_schedule(plan, ctx))
            timings[idx] = timing
            batched += 1

    for idx in fallback_idx:
        plan, ctx = lanes[idx]
        timings[idx] = evaluate_plan(plan, ctx, mode=fallback)
    return BatchResult(timings=timings, groups=len(groups),
                       batched_lanes=batched,
                       fallback_lanes=len(fallback_idx),
                       diverged=sorted(diverged))
