"""Fast-path plan evaluation: plan timing without the event loop.

:func:`fastpath_schedule` computes the exact per-op ``(start, end)``
times :class:`~repro.plan.executor.PlanExecution` would record for a
compiled :class:`~repro.plan.ir.StepPlan`, without spinning up
``Environment`` processes, generators, or callback chains.  It is a
specialized discrete-event engine with exactly three event kinds — op
readiness, flow arrival, and the fluid-timeline timer — instead of the
kernel's generic process machinery, so evaluating a plan touches an
order of magnitude fewer Python frames per op.

Bit-identity, not approximation
-------------------------------
The engine does **not** re-derive timing from a simplified cost model;
it replays the identical arithmetic the executor's device models apply,
in the identical order:

- compute kernels call the real ``GPU.kernel_time`` roofline and
  serialize on a per-rank stream cursor (the DES ``Resource`` FIFO);
- collectives mirror the communicator's rendezvous (per-rank arrival
  order assigns the op id), run the ring/star phases of
  :func:`~repro.plan.ir.collective_schedule`, and pay the real
  ``Communicator._transport_factor`` byte inflation per route;
- every transfer pays ``transfer_overhead + route.latency`` and then
  streams through a single global fluid timeline rated by the same
  incremental ``MaxMinSolver`` as ``FlowScheduler``, advancing
  deliveries with the same ``min(remaining, rate * dt)`` updates at the
  same recompute points (every flow arrival, every completion horizon);
- storage I/O mirrors the queue-depth admission of ``StorageDevice``
  and pays the fixed latency and streamed bytes of
  :func:`~repro.plan.ir.storage_leg`.

Because the recompute points and the arithmetic are the same floats in
the same order, the computed timeline *is* the event-loop timeline — not
merely close to it.  Where the engine cannot reconstruct the kernel's
tie-breaking order (two same-rank ops hitting one FIFO at the same
instant, a watchdog racing a completion), it refuses with
:class:`FastPathUnsupported` instead of guessing, and
:func:`evaluate_plan`'s ``auto`` mode falls back to the real executor.

The fast path is *pure*: it reads device specs, routes, and penalty
tables but mutates no device state, link counter, or communicator
sequence number, so it can be invoked any number of times on a live
system without perturbing it.

The same engine also drives :mod:`repro.plan.batched`: with a tape
recorder attached, the run additionally emits the register program that
replays its schedule over many lanes.  :func:`fastpath_schedule` runs it
without one, and then none of that emission happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Optional

from ..fabric.flows import _EPSILON_BYTES as _EPS_BYTES
from ..fabric.flows import _EPSILON_SECONDS as _EPS_SECONDS
from ..fabric.maxmin import MaxMinSolver
from .executor import ExecutionContext, PlanExecution
from .ir import (
    COLLECTIVE_KINDS,
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
    collective_schedule,
    op_endpoints,
    storage_leg,
)

__all__ = [
    "FastPathUnsupported",
    "PlanTiming",
    "fastpath_support",
    "fastpath_schedule",
    "evaluate_plan",
]

#: Relative tolerance for ``assert_equivalence`` comparisons.
EQUIVALENCE_RTOL = 1e-9
#: Absolute floor for comparisons of times at/near zero.
EQUIVALENCE_ATOL = 1e-12


class FastPathUnsupported(Exception):
    """The fast path cannot guarantee executor-identical timing here."""


@dataclass
class PlanTiming:
    """Per-op timing of one plan evaluation, relative to its start."""

    #: ``"fastpath"`` or ``"executor"``.
    mode: str
    #: uid -> (start, end), in seconds from evaluation start.
    op_times: dict = field(default_factory=dict)
    #: Completion time of the last op.
    makespan: float = 0.0

    def rank_end(self, plan: StepPlan, rank: int) -> float:
        """Finish time of ``rank``'s program."""
        ends = [self.op_times[op.uid][1] for op in plan.by_rank(rank)
                if op.uid in self.op_times]
        return max(ends) if ends else 0.0


def _jitter_is_deterministic(jitter: Callable[[], float]) -> bool:
    """Whether the context's jitter sampler always returns exactly 1.0.

    True for the :class:`ExecutionContext` default and for
    ``StepCosts.jitter_factor`` with jitter disabled (``rng is None``) —
    detected without calling the sampler, so an active RNG's stream is
    never perturbed by eligibility probing.
    """
    owner = getattr(jitter, "__self__", None)
    if owner is not None and hasattr(owner, "rng"):
        return owner.rng is None
    default = ExecutionContext.__dataclass_fields__["jitter"].default
    return jitter is default


def fastpath_support(plan: StepPlan, ctx: ExecutionContext
                     ) -> Optional[str]:
    """Static eligibility check; returns a reason string or ``None``.

    ``None`` means the fast path *may* run (dynamic ambiguities can
    still surface mid-evaluation and raise
    :class:`FastPathUnsupported`).
    """
    if ctx.tracer is not None and getattr(ctx.tracer, "enabled", False):
        return "a tracing collector is attached (spans need the executor)"
    if getattr(ctx.topology, "tracer", None) is not None:
        return "the topology is traced (fabric spans need the executor)"
    has_rendezvous = any(isinstance(op, (Collective, Barrier))
                         for op in plan)
    if has_rendezvous and ctx.comm is None:
        return "plan has collectives but the context has no communicator"
    if any(isinstance(op, (StorageRead, StorageWrite)) for op in plan) \
            and ctx.storage is None:
        return "plan has storage ops but the context has no storage device"
    if any(isinstance(op, Compute) and op.jittered for op in plan) \
            and not _jitter_is_deterministic(ctx.jitter):
        return "kernel jitter is stochastic (per-sample RNG draws)"
    return None


# -- the engine --------------------------------------------------------------

class _Flow:
    """Duck-typed flow rated by the same ``MaxMinSolver`` as the DES."""

    __slots__ = ("segments", "remaining", "rate", "on_done")

    def __init__(self, segments, nbytes: float, on_done):
        self.segments = segments
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.on_done = on_done


class _Group:
    """One rendezvoused collective/barrier across its communicator."""

    __slots__ = ("kind", "nbytes", "root", "chunk", "members", "arrived",
                 "uids", "phase", "phases", "divisor", "pairs", "inflight",
                 "done_regs")

    def __init__(self, kind, nbytes, root, chunk, members):
        #: IR collective kind, or ``"barrier"``.
        self.kind = kind
        self.nbytes = nbytes
        #: World-rank root (``None`` = the first member).
        self.root = root
        self.chunk = chunk
        #: Participating world ranks, in communicator order.
        self.members = members
        self.arrived = {}       # world rank -> (join time, reg)
        self.uids = {}          # world rank -> op uid
        self.phase = 0
        #: ``collective_schedule`` of a group that moves bytes.
        self.phases, self.divisor, self.pairs = 0, 1, ()
        self.inflight = 0
        self.done_regs = []     # this phase's flow-completion regs


#: Stream cursor of a rank that has not run a kernel yet.
_IDLE_STREAM = (0.0, -1)


class _Engine:
    """Specialized scheduler replaying a plan's exact DES timeline.

    Every event carries ``(time, reg)``: the reference float that orders
    the schedule, and the tape register holding that time lane-wise.
    Without a ``recorder`` every reg is 0 and nothing but the floats is
    computed.  With one (:class:`repro.plan.batched._Recorder`), each
    arithmetic step and control decision also calls the recorder hook
    that emits its instruction or guard, so the recorded reference lane
    *is* the scalar run — the arithmetic, the refusals and the solver
    calls exist once.
    """

    def __init__(self, plan: StepPlan, ctx: ExecutionContext,
                 recorder=None):
        self.plan = plan
        self.ctx = ctx
        self.rec = recorder
        self._heap: list = []
        self._seq = 0
        self.times: dict = {}
        self._start: dict = {}          # uid -> (time, reg)
        # Dependency bookkeeping.
        self._indegree: dict = {}
        self._dependents: dict = {}
        # Per-rank GPU stream cursor (DES Resource capacity-1 FIFO).
        self._stream_free: dict = {}    # rank -> (time, reg)
        self._last_compute_ready: dict = {}
        # Rendezvous state mirroring Communicator._join.
        self._world = range(plan.world_size)
        self._op_seq: dict = {}
        self._groups: dict = {}
        self._last_join: dict = {}      # (rank, gkey) -> (time, reg)
        # Storage queue-depth admission.
        self._io_active = 0
        self._io_queue: list = []
        self._last_io_ready: Optional[float] = None
        # Global fluid timeline (insertion-ordered, like FlowScheduler),
        # rated by the same incremental component solver.
        self._flows: dict = {}
        self._flow_ids = 0
        self._solver = MaxMinSolver()
        self._last_update = 0.0
        self._generation = 0

    # -- event plumbing ---------------------------------------------------
    def _schedule(self, time: float, reg: int, fn) -> None:
        self._seq += 1
        heappush(self._heap, (time, self._seq, reg, fn))

    def run(self) -> PlanTiming:
        plan = self.plan
        for op in plan:
            self._indegree[op.uid] = 0
            self._dependents.setdefault(op.uid, [])
        for op in plan:
            for dep in op.deps:
                if dep not in self._indegree:
                    raise FastPathUnsupported(
                        f"op {op.uid!r} depends on {dep!r} outside the plan")
                self._indegree[op.uid] += 1
                self._dependents[dep].append(op)
        # Seed roots in the executor's spawn order: run_rank(0..n-1),
        # each spawning its ops in program order, so same-instant root
        # ties resolve exactly as the kernel's FIFO would.
        for rank in range(plan.world_size):
            for op in plan.by_rank(rank):
                if self._indegree[op.uid] == 0:
                    self._schedule(0.0, 0, self._ready_fn(op))
        while self._heap:
            time, _seq, reg, fn = heappop(self._heap)
            fn(time, reg)
        if len(self.times) != len(plan.ops):
            missing = [op.uid for op in plan if op.uid not in self.times]
            raise FastPathUnsupported(
                f"plan stalled; {len(missing)} op(s) never completed "
                f"(first: {missing[0]!r})")
        makespan = max((end for _s, end in self.times.values()),
                       default=0.0)
        return PlanTiming(mode="fastpath", op_times=dict(self.times),
                          makespan=makespan)

    def _ready_fn(self, op):
        return lambda t, reg: self._op_ready(op, t, reg)

    # -- op lifecycle ------------------------------------------------------
    def _op_ready(self, op, t: float, reg: int) -> None:
        self._start[op.uid] = (t, reg)
        if isinstance(op, Compute):
            self._run_compute(op, t, reg)
        elif isinstance(op, (Collective, Barrier)):
            self._join_group(op, t, reg)
        elif isinstance(op, Delay):
            elapsed = t - 0.0
            if self.rec is not None:
                reg = self.rec.delay(reg, op.uid)
            self._finish_at(
                op, t + (op.seconds + op.elapsed_fraction * elapsed), reg)
        elif isinstance(op, (H2DCopy, D2HCopy, P2PCopy)):
            self._run_transfer(op, t, reg)
        elif isinstance(op, (StorageRead, StorageWrite)):
            self._enqueue_io(op, t, reg)
        else:  # pragma: no cover - taxonomy is closed
            raise PlanError(f"fast path cannot run op kind {op.kind!r}")

    def _finish_at(self, op, end: float, reg: int) -> None:
        self._schedule(end, reg, lambda t, r: self._op_done(op, t, r))

    def _op_done(self, op, t: float, reg: int) -> None:
        start, start_reg = self._start[op.uid]
        self.times[op.uid] = (start, t)
        rec = self.rec
        if rec is not None:
            rec.op_done(op.uid, start_reg, reg)
        for dependent in self._dependents[op.uid]:
            self._indegree[dependent.uid] -= 1
            if self._indegree[dependent.uid] == 0:
                ready = reg if rec is None else rec.ready(dependent)
                self._schedule(t, ready, self._ready_fn(dependent))

    # -- compute -----------------------------------------------------------
    def _run_compute(self, op, t: float, reg: int) -> None:
        rank = op.rank
        last = self._last_compute_ready.get(rank)
        if last is not None and last[0] == t:
            raise FastPathUnsupported(
                f"two computes ready on rank {rank} at t={t}: "
                "stream FIFO order is ambiguous")
        self._last_compute_ready[rank] = (t, reg)
        factor = self.ctx.jitter() if op.jittered else 1.0
        duration = self.ctx.gpus[rank].kernel_time(
            op.flops * factor, op.hbm_bytes, op.precision, op.efficiency)
        stream_free, stream_reg = self._stream_free.get(rank, _IDLE_STREAM)
        end = max(t, stream_free) + duration
        if self.rec is not None:
            self.rec.after(last, reg)
            reg = self.rec.compute(reg, stream_reg, op.uid)
        self._stream_free[rank] = (end, reg)
        self._finish_at(op, end, reg)

    # -- rendezvous (Communicator._join mirror) ----------------------------
    def _join_group(self, op, t: float, reg: int) -> None:
        rank = op.rank
        # Grouped collectives rendezvous on their own sub-communicator:
        # state is keyed by the group tuple (None = world), mirroring
        # Communicator.subgroup's per-child sequence numbers.
        gkey = getattr(op, "group", None)
        last = self._last_join.get((rank, gkey))
        if last is not None and last[0] == t:
            raise FastPathUnsupported(
                f"rank {rank} joins two collectives at t={t}: "
                "rendezvous order is ambiguous")
        if self.rec is not None:
            self.rec.after(last, reg)
        self._last_join[(rank, gkey)] = (t, reg)
        members = self._world if gkey is None else gkey
        if isinstance(op, Barrier):
            spec = ("barrier", 0.0, None, None)
        elif op.comm in COLLECTIVE_KINDS:
            spec = (op.comm, op.bytes, op.root, op.chunk_bytes)
        else:
            raise FastPathUnsupported(f"unknown collective kind {op.comm!r}")
        opid = self._op_seq.get((gkey, rank), 0)
        self._op_seq[(gkey, rank)] = opid + 1
        group = self._groups.get((gkey, opid))
        if group is None:
            group = self._groups[(gkey, opid)] = _Group(*spec, members)
        elif (group.kind, group.nbytes, group.root, group.chunk) != spec:
            raise FastPathUnsupported(
                f"collective mismatch at op {opid}: rank {rank} called "
                f"{spec} but op is {(group.kind, group.nbytes, group.root, group.chunk)}")
        group.arrived[rank] = (t, reg)
        group.uids[rank] = op.uid
        if len(group.arrived) == len(members):
            del self._groups[(gkey, opid)]
            self._execute_group(group, t)

    def _execute_group(self, group: _Group, t: float) -> None:
        live = 0 if self.rec is None else self.rec.rendezvous(group)
        if group.kind != "barrier" and group.nbytes != 0:
            group.phases, group.divisor, group.pairs = collective_schedule(
                group.kind, group.members, group.root)
        if not group.phases:
            self._schedule(t, live,
                           lambda now, r: self._group_done(group, now, r))
            return
        self._spawn_phase(group, t, live)

    def _spawn_phase(self, group: _Group, t: float, reg: int) -> None:
        comm = self.ctx.comm
        rec = self.rec
        ranks = comm.ranks
        per_transfer = group.nbytes / group.divisor
        pairs = group.pairs
        group.inflight = len(pairs)
        group.done_regs = []

        def flow_done(now, done_reg, group=group):
            group.inflight -= 1
            if rec is not None:
                group.done_regs.append(done_reg)
            if group.inflight:
                return
            # Lane-wise the slowest pair may differ: the phase ends at
            # the max over every pair's completion (commutative).
            end = done_reg if rec is None else rec.max(group.done_regs)
            group.phase += 1
            if group.phase >= group.phases:
                self._group_done(group, now, end)
            else:
                self._spawn_phase(group, now, end)

        topo = comm.topology
        for i, j in pairs:
            route = topo.route(ranks[i], ranks[j])
            factor = comm._transport_factor(route, group.chunk)
            nbytes = per_transfer * factor
            tag = None if rec is None \
                else rec.coll_transfer(group, i, j, nbytes, route)
            self._launch_transfer(t, reg, route, nbytes, flow_done, tag)

    def _group_done(self, group: _Group, t: float, reg: int) -> None:
        watchdog = getattr(self.ctx.comm, "watchdog", None)
        for rank, uid in group.uids.items():
            arrival, arrival_reg = group.arrived[rank]
            if watchdog is not None:
                if t - arrival >= watchdog:
                    raise FastPathUnsupported(
                        "collective completion races the watchdog timeout")
                if self.rec is not None:
                    self.rec.watchdog(reg, arrival_reg, watchdog)
            self._start[uid] = (arrival, arrival_reg)
            self._op_done(self.plan.op(uid), t, reg)

    # -- transfers (Topology.transfer mirror) ------------------------------
    def _launch_transfer(self, t: float, reg: int, route, nbytes: float,
                         on_done, tag=None) -> None:
        """Mirror ``Topology._transfer``: fixed latency, then the flow.

        ``tag`` is the recorder's handle on the transfer's columns
        (``None`` when not recording).
        """
        topo = self.ctx.topology
        arrival = t + (topo.transfer_overhead + route.latency)
        if tag is not None:
            reg = self.rec.fixed(reg, tag)
        segments = route.segments
        if nbytes > 0 and segments:
            self._schedule(
                arrival, reg,
                lambda now, r: self._flow_arrives(segments, nbytes, on_done,
                                                  tag, now, r))
        else:
            self._schedule(arrival, reg, on_done)

    def _run_transfer(self, op, t: float, reg: int) -> None:
        ends = op_endpoints(op)
        route = self.ctx.route(*ends)
        tag = None if self.rec is None \
            else self.rec.op_transfer(op, ends, route)
        self._launch_transfer(t, reg, route, op.bytes,
                              lambda now, r: self._op_done(op, now, r),
                              tag)

    # -- storage I/O (StorageDevice._io mirror) ----------------------------
    def _enqueue_io(self, op, t: float, reg: int) -> None:
        if self.rec is not None:
            self.rec.io_event(reg, enqueue=True)
        if self._io_active < self.ctx.storage.spec.queue_depth:
            self._io_active += 1
            self._admit_io(op, t, reg)
        else:
            if self._last_io_ready == t:
                raise FastPathUnsupported(
                    f"two storage commands queue at t={t}: "
                    "admission order is ambiguous")
            self._last_io_ready = t
            self._io_queue.append(op)

    def _admit_io(self, op, t: float, reg: int) -> None:
        nbytes, latency = storage_leg(op, self.ctx.storage.spec)
        ends = op_endpoints(op)
        route = self.ctx.route(*ends)
        tag = None
        if self.rec is not None:
            reg, tag = self.rec.admit_io(op, reg, ends, nbytes, route)

        def done(now, done_reg):
            if self.rec is not None:
                self.rec.io_event(done_reg, enqueue=False)
            self._io_active -= 1
            if self._io_queue:
                self._io_active += 1
                self._admit_io(self._io_queue.pop(0), now, done_reg)
            self._op_done(op, now, done_reg)

        self._launch_transfer(t + latency, reg, route, nbytes, done, tag)

    # -- the global fluid timeline (FlowScheduler mirror) ------------------
    def _flow_arrives(self, segments, nbytes: float, on_done, tag,
                      now: float, reg: int) -> None:
        """Mirror ``start_flow``: advance, add, recompute."""
        if nbytes <= _EPS_BYTES or not segments:
            self._schedule(now, reg, on_done)
            return
        rec = self.rec
        if rec is not None:
            rec.flow_arrives(reg, self._flows)
        flow = _Flow(segments, nbytes, on_done)
        self._advance(now)
        self._flow_ids += 1
        self._flows[self._flow_ids] = flow
        self._solver.add(flow)
        if rec is not None:
            rec.flow(self._flow_ids, tag)
        self._recompute(now, reg)

    def _advance(self, now: float) -> None:
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        for flow in self._flows.values():
            delivered = min(flow.remaining, flow.rate * dt)
            if delivered > 0:
                flow.remaining -= delivered

    def _recompute(self, now: float, reg: int) -> None:
        # Complete drained flows under the *current* rates, then
        # water-fill the affected components — the FlowScheduler update
        # order, with the same incremental solver.  A flow is drained
        # when its bytes, or its horizon at a positive rate, are within
        # epsilon.
        drained = [fid for fid, f in self._flows.items()
                   if f.remaining <= _EPS_BYTES
                   or (f.rate > 0 and f.remaining / f.rate <= _EPS_SECONDS)]
        if self.rec is not None:
            self.rec.recompute(reg, self._flows, drained)
        for fid in drained:
            flow = self._flows.pop(fid)
            self._solver.remove(flow)
            self._schedule(now, reg, flow.on_done)
        self._solver.solve()
        self._arm_timer(now, reg)

    def _arm_timer(self, now: float, reg: int) -> None:
        self._generation += 1
        if not self._flows:
            return
        gen = self._generation
        horizon = min(f.remaining / f.rate for f in self._flows.values()
                      if f.rate > 0)
        self._schedule(now + horizon, reg,
                       lambda t, _r: self._on_timer(t, gen))

    def _on_timer(self, now: float, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a later recompute
        reg = 0 if self.rec is None else self.rec.timer(self._flows)
        self._advance(now)
        self._recompute(now, reg)


def fastpath_schedule(plan: StepPlan, ctx: ExecutionContext) -> PlanTiming:
    """Evaluate ``plan`` on the fast path; raises
    :class:`FastPathUnsupported` when equivalence cannot be guaranteed.
    """
    reason = fastpath_support(plan, ctx)
    if reason is not None:
        raise FastPathUnsupported(reason)
    return _Engine(plan, ctx).run()


def _executor_timing(plan: StepPlan, ctx: ExecutionContext) -> PlanTiming:
    """Run the plan through the real executor and normalize its times.

    This advances ``ctx.env`` and mutates device state — callers own a
    throwaway system (or accept the side effects).
    """
    env = ctx.env
    base = env.now
    execution = PlanExecution(plan, ctx)
    procs = [env.process(execution.run_rank(rank))
             for rank in range(plan.world_size)]
    env.run(env.all_of(procs))
    times = {uid: (start - base, end - base)
             for uid, (start, end) in execution._times.items()}
    makespan = max((end for _s, end in times.values()), default=0.0)
    return PlanTiming(mode="executor", op_times=times, makespan=makespan)


def _assert_equal(fast: PlanTiming, slow: PlanTiming) -> None:
    if set(fast.op_times) != set(slow.op_times):
        only_fast = set(fast.op_times) - set(slow.op_times)
        only_slow = set(slow.op_times) - set(fast.op_times)
        raise AssertionError(
            f"op coverage differs: fastpath-only={sorted(only_fast)[:5]} "
            f"executor-only={sorted(only_slow)[:5]}")
    for uid, (f0, f1) in fast.op_times.items():
        s0, s1 = slow.op_times[uid]
        for label, a, b in (("start", f0, s0), ("end", f1, s1)):
            if not math.isclose(a, b, rel_tol=EQUIVALENCE_RTOL,
                                abs_tol=EQUIVALENCE_ATOL):
                raise AssertionError(
                    f"op {uid!r} {label} diverges: fastpath={a!r} "
                    f"executor={b!r}")
    if not math.isclose(fast.makespan, slow.makespan,
                        rel_tol=EQUIVALENCE_RTOL,
                        abs_tol=EQUIVALENCE_ATOL):
        raise AssertionError(
            f"makespan diverges: fastpath={fast.makespan!r} "
            f"executor={slow.makespan!r}")


def evaluate_plan(plan: StepPlan, ctx: ExecutionContext,
                  mode: str = "auto",
                  assert_equivalence: bool = False) -> PlanTiming:
    """Compute a plan's timing, choosing the engine automatically.

    Parameters
    ----------
    mode:
        ``"auto"`` (fast path when eligible, executor otherwise),
        ``"fastpath"`` (raise :class:`FastPathUnsupported` if not
        eligible), or ``"executor"``.
    assert_equivalence:
        Debug mode: run *both* engines and compare every op's start/end
        and the makespan at ``1e-9`` relative tolerance, raising
        ``AssertionError`` on any drift.  Returns the fast-path timing.
        The executor leg advances ``ctx.env`` and device state, so use a
        throwaway system.
    """
    if mode not in ("auto", "fastpath", "executor"):
        raise ValueError(f"unknown mode {mode!r}")
    if assert_equivalence:
        fast = fastpath_schedule(plan, ctx)
        slow = _executor_timing(plan, ctx)
        _assert_equal(fast, slow)
        return fast
    if mode == "executor":
        return _executor_timing(plan, ctx)
    if mode == "fastpath":
        return fastpath_schedule(plan, ctx)
    try:
        return fastpath_schedule(plan, ctx)
    except FastPathUnsupported:
        return _executor_timing(plan, ctx)
