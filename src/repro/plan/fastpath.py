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
  streams through one global
  :class:`~repro.fabric.flows.FluidTimeline` — the same timeline class
  ``FlowScheduler`` runs — retired at the same points (every flow
  arrival, every completion horizon) and solved once per instant, after
  the instant's last event, as the event loop's lowest priority does;
- storage I/O mirrors the queue-depth admission of ``StorageDevice``
  and pays the fixed latency and streamed bytes of
  :func:`~repro.plan.ir.storage_leg`.

Because the retire and solve points and the arithmetic are the same
floats in the same order, the computed timeline *is* the event-loop
timeline — not merely close to it.  Where the kernel may order a same-instant tie
otherwise and the order would change a time (see
:meth:`_Engine._check_ties`), or a watchdog races a completion, the
engine refuses with :class:`FastPathUnsupported` instead of guessing, and
:func:`evaluate_plan`'s ``auto`` mode falls back to the real executor.

The fast path is *pure*: it reads device specs, routes, and penalty
tables but mutates no device state, link counter (its timeline accounts
no traffic), or communicator sequence number, so it can be invoked any
number of times on a live system without perturbing it.  Sweeps over
many candidate plans (``repro autotune``) evaluate each candidate with
its own run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Optional

from ..fabric.flows import FluidTimeline
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

class _Group:
    """One rendezvoused collective/barrier across its communicator.

    ``legs`` holds the ``(route, bytes)`` of each pair's transfer,
    resolved by the first phase and launched again by every later one:
    the pairs do not change between phases, and the fast path never
    mutates the fabric, so a route and its transport factor cannot go
    stale within a collective.
    """

    __slots__ = ("kind", "nbytes", "root", "chunk", "members", "arrived",
                 "uids", "phase", "phases", "divisor", "pairs", "legs",
                 "inflight")

    def __init__(self, kind, nbytes, root, chunk, members):
        #: IR collective kind, or ``"barrier"``.
        self.kind = kind
        self.nbytes = nbytes
        #: World-rank root (``None`` = the first member).
        self.root = root
        self.chunk = chunk
        #: Participating world ranks, in communicator order.
        self.members = members
        self.arrived = {}       # world rank -> join time
        self.uids = {}          # world rank -> op uid
        self.phase = 0
        #: ``collective_schedule`` of a group that moves bytes.
        self.phases, self.divisor, self.pairs = 0, 1, ()
        #: ``(route, bytes)`` per pair, from the first phase on.
        self.legs = None
        self.inflight = 0


class _Engine:
    """Specialized scheduler replaying a plan's exact DES timeline.

    Every event is a ``(time, seq, callback)`` heap entry; the sequence
    number keeps same-instant events in the order they were scheduled,
    which is the kernel's FIFO order.  The callbacks apply the device
    models' arithmetic and refuse, with :class:`FastPathUnsupported`,
    where the kernel may order a tie otherwise (:meth:`_check_ties`,
    storage admission) or a watchdog races a completion.
    """

    def __init__(self, plan: StepPlan, ctx: ExecutionContext):
        self.plan = plan
        self.ctx = ctx
        self._heap: list = []
        self._seq = 0
        self.times: dict = {}
        self._start: dict = {}          # uid -> ready time
        # uid -> the op whose completion released it (absent: a root).
        self._released_by: dict = {}
        # (ordered resource, time) -> [(uid, shape), ...] arriving then.
        self._arrivals: dict = {}
        # Dependency bookkeeping.
        self._indegree: dict = {}
        self._dependents: dict = {}
        # Per-rank GPU stream cursor (DES Resource capacity-1 FIFO).
        self._stream_free: dict = {}    # rank -> time the stream frees
        # Rendezvous state mirroring Communicator._join.
        self._world = range(plan.world_size)
        self._op_seq: dict = {}
        self._groups: dict = {}
        # Storage queue-depth admission.
        self._io_active = 0
        self._io_queue: list = []
        self._last_io_ready: Optional[float] = None
        # Global fluid timeline; it accounts no link traffic.
        self._timeline = FluidTimeline()
        # Whether the instant's solve is queued, and the heap slot its
        # drain timer takes.
        self._resolving = False
        self._slot = 0

    # -- event plumbing ---------------------------------------------------
    def _schedule(self, time: float, fn) -> None:
        self._seq += 1
        heappush(self._heap, (time, self._seq, fn))

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
                    self._schedule(0.0, self._ready_fn(op))
        while self._heap:
            time, _seq, fn = heappop(self._heap)
            fn(time)
        if len(self.times) != len(plan.ops):
            missing = [op.uid for op in plan if op.uid not in self.times]
            raise FastPathUnsupported(
                f"plan stalled; {len(missing)} op(s) never completed "
                f"(first: {missing[0]!r})")
        self._check_ties()
        makespan = max((end for _s, end in self.times.values()),
                       default=0.0)
        return PlanTiming(mode="fastpath", op_times=dict(self.times),
                          makespan=makespan)

    def _ready_fn(self, op):
        return lambda t: self._op_ready(op, t)

    # -- op lifecycle ------------------------------------------------------
    def _op_ready(self, op, t: float) -> None:
        self._start[op.uid] = t
        if isinstance(op, Compute):
            self._run_compute(op, t)
        elif isinstance(op, (Collective, Barrier)):
            self._join_group(op, t)
        elif isinstance(op, Delay):
            elapsed = t - 0.0
            self._finish_at(
                op, t + (op.seconds + op.elapsed_fraction * elapsed))
        elif isinstance(op, (H2DCopy, D2HCopy, P2PCopy)):
            self._run_transfer(op, t)
        elif isinstance(op, (StorageRead, StorageWrite)):
            self._enqueue_io(op, t)
        else:  # pragma: no cover - taxonomy is closed
            raise PlanError(f"fast path cannot run op kind {op.kind!r}")

    def _finish_at(self, op, end: float) -> None:
        self._schedule(end, lambda t: self._op_done(op, t))

    def _op_done(self, op, t: float) -> None:
        self.times[op.uid] = (self._start[op.uid], t)
        for dependent in self._dependents[op.uid]:
            self._indegree[dependent.uid] -= 1
            if self._indegree[dependent.uid] == 0:
                self._released_by[dependent.uid] = op.uid
                self._schedule(t, self._ready_fn(dependent))

    # -- same-instant ties -------------------------------------------------
    def _check_ties(self) -> None:
        """Refuse a same-instant tie that the kernel may serve in
        another order, where the order would change a time.

        Ops reaching one ordered resource (a rank's GPU stream, or its
        seat on one communicator) at one instant are served in the
        order they were released.  That order is the plan's on both
        engines when one event released both (the seed, or one op's
        completion), or when releases within the instant lead from one
        to the other.  The kernel orders any other pair by how many
        events each release chain took, which this engine does not
        model.  Such a pair is harmless when both ops have one shape
        (kernel seconds, or collective spec) and one end time:
        zero-second kernels, like collectives whose groups finish
        together.
        """
        times = self.times
        for (*_resource, t), arrivals in self._arrivals.items():
            outcomes = [(shape, times[uid][1]) for uid, shape in arrivals]
            if len(set(outcomes)) < 2:
                continue
            for i, (first, _shape) in enumerate(arrivals):
                for j in range(i + 1, len(arrivals)):
                    later = arrivals[j][0]
                    if outcomes[i] != outcomes[j] \
                            and not self._ordered(first, later, t):
                        raise FastPathUnsupported(
                            f"{first} and {later} tie at t={t}, released "
                            "by different events: the event loop's "
                            "order decides their times")

    def _releaser(self, uid: str):
        """What released ``uid``: ``None`` (the seed), the op whose
        completion did, or ``uid`` itself when several of its deps
        ended together (the kernel may release it from any of them)."""
        start = self._start[uid]
        tied = sum(self.times[dep][1] == start
                   for dep in self.plan.op(uid).deps)
        return uid if tied > 1 else self._released_by.get(uid)

    def _ordered(self, first: str, later: str, t: float) -> bool:
        """Whether both engines serve ``first`` before ``later``."""
        if self._releaser(first) == self._releaser(later):
            return True
        while self._start[later] == t:
            releaser = self._releaser(later)
            if releaser == first:
                return True
            if releaser in (None, later):
                return False
            later = releaser
        return False

    # -- compute -----------------------------------------------------------
    def _run_compute(self, op, t: float) -> None:
        rank = op.rank
        factor = self.ctx.jitter() if op.jittered else 1.0
        duration = self.ctx.gpus[rank].kernel_time(
            op.flops * factor, op.hbm_bytes, op.precision, op.efficiency)
        self._arrivals.setdefault((rank, t), []).append((op.uid, duration))
        end = max(t, self._stream_free.get(rank, 0.0)) + duration
        self._stream_free[rank] = end
        self._finish_at(op, end)

    # -- rendezvous (Communicator._join mirror) ----------------------------
    def _join_group(self, op, t: float) -> None:
        rank = op.rank
        # Grouped collectives rendezvous on their own sub-communicator:
        # state is keyed by the group tuple (None = world), mirroring
        # Communicator.subgroup's per-child sequence numbers.
        gkey = getattr(op, "group", None)
        members = self._world if gkey is None else gkey
        if isinstance(op, Barrier):
            spec = ("barrier", 0.0, None, None)
        elif op.comm in COLLECTIVE_KINDS:
            spec = (op.comm, op.bytes, op.root, op.chunk_bytes)
        else:
            raise FastPathUnsupported(f"unknown collective kind {op.comm!r}")
        self._arrivals.setdefault((rank, gkey, t), []).append(
            (op.uid, spec))
        opid = self._op_seq.get((gkey, rank), 0)
        self._op_seq[(gkey, rank)] = opid + 1
        group = self._groups.get((gkey, opid))
        if group is None:
            group = self._groups[(gkey, opid)] = _Group(*spec, members)
        elif (group.kind, group.nbytes, group.root, group.chunk) != spec:
            raise FastPathUnsupported(
                f"collective mismatch at op {opid}: rank {rank} called "
                f"{spec} but op is {(group.kind, group.nbytes, group.root, group.chunk)}")
        group.arrived[rank] = t
        group.uids[rank] = op.uid
        if len(group.arrived) == len(members):
            del self._groups[(gkey, opid)]
            self._execute_group(group, t)

    def _execute_group(self, group: _Group, t: float) -> None:
        if group.kind != "barrier" and group.nbytes != 0:
            group.phases, group.divisor, group.pairs = collective_schedule(
                group.kind, group.members, group.root)
        if not group.phases:
            self._schedule(t, lambda now: self._group_done(group, now))
            return
        self._spawn_phase(group, t)

    def _spawn_phase(self, group: _Group, t: float) -> None:
        legs = group.legs
        if legs is None:
            legs = group.legs = self._legs(group)
        group.inflight = len(legs)

        def flow_done(now, group=group):
            group.inflight -= 1
            if group.inflight:
                return
            group.phase += 1
            if group.phase >= group.phases:
                self._group_done(group, now)
            else:
                self._spawn_phase(group, now)

        for route, nbytes in legs:
            self._launch_transfer(t, route, nbytes, flow_done)

    def _legs(self, group: _Group) -> list:
        """Each pair's route and bytes, inflated by the real
        ``Communicator._transport_factor``."""
        comm = self.ctx.comm
        ranks = comm.ranks
        topo = comm.topology
        per_transfer = group.nbytes / group.divisor
        legs = []
        for i, j in group.pairs:
            route = topo.route(ranks[i], ranks[j])
            legs.append((route, per_transfer
                         * comm._transport_factor(route, group.chunk)))
        return legs

    def _group_done(self, group: _Group, t: float) -> None:
        watchdog = getattr(self.ctx.comm, "watchdog", None)
        for rank, uid in group.uids.items():
            arrival = group.arrived[rank]
            if watchdog is not None and t - arrival >= watchdog:
                raise FastPathUnsupported(
                    "collective completion races the watchdog timeout")
            self._start[uid] = arrival
            self._op_done(self.plan.op(uid), t)

    # -- transfers (Topology.transfer mirror) ------------------------------
    def _launch_transfer(self, t: float, route, nbytes: float,
                         on_done) -> None:
        """Mirror ``Topology.transfer_route``: fixed latency, then the
        flow, whose completion releases the waiter directly."""
        topo = self.ctx.topology
        arrival = t + (topo.transfer_overhead + route.latency)
        segments = route.segments
        if nbytes > 0 and segments:
            self._schedule(
                arrival,
                lambda now: self._flow_arrives(segments, nbytes, on_done,
                                               now))
        else:
            self._schedule(arrival, on_done)

    def _run_transfer(self, op, t: float) -> None:
        route = self.ctx.route(*op_endpoints(op))
        self._launch_transfer(t, route, op.bytes,
                              lambda now: self._op_done(op, now))

    # -- storage I/O (StorageDevice._io mirror) ----------------------------
    def _enqueue_io(self, op, t: float) -> None:
        tied = self._last_io_ready == t
        self._last_io_ready = t
        if self._io_active < self.ctx.storage.commands.capacity:
            self._io_active += 1
            self._admit_io(op, t)
        elif tied:
            raise FastPathUnsupported(
                f"a storage command queues behind one that arrived at "
                f"t={t}: admission order is ambiguous")
        else:
            self._io_queue.append(op)

    def _admit_io(self, op, t: float) -> None:
        nbytes, latency = storage_leg(op, self.ctx.storage.spec)
        route = self.ctx.route(*op_endpoints(op))

        def done(now):
            self._io_active -= 1
            if self._io_queue:
                self._io_active += 1
                self._admit_io(self._io_queue.pop(0), now)
            self._op_done(op, now)

        self._launch_transfer(t + latency, route, nbytes, done)

    # -- the global fluid timeline (the class FlowScheduler runs) --------
    def _flow_arrives(self, segments, nbytes: float, on_done,
                      now: float) -> None:
        """Mirror ``start_flow``: stream the bytes, or finish at once."""
        if self._timeline.add(segments, nbytes, on_done, now) is None:
            self._schedule(now, on_done)
        else:
            self._settle(now)

    def _settle(self, now: float) -> None:
        """Complete drained flows and queue the instant's solve, after
        every other event at ``now``; its drain timer takes the heap
        slot of the instant's last settle."""
        for flow in self._timeline.retire():
            self._schedule(now, flow.done)
        self._seq += 1
        self._slot = self._seq
        if not self._resolving:
            self._resolving = True
            heappush(self._heap, (now, math.inf, self._resolve))

    def _resolve(self, now: float) -> None:
        """Solve once for the instant and arm the next drain timer."""
        self._resolving = False
        timer = self._timeline.resolve()
        if timer is not None:
            generation, seconds = timer
            heappush(self._heap, (now + seconds, self._slot,
                                  lambda t: self._on_timer(t, generation)))

    def _on_timer(self, now: float, generation: int) -> None:
        if self._timeline.current(generation):
            self._timeline.advance(now)
            self._settle(now)


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
