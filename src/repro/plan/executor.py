"""The generic plan executor: replay a StepPlan on the DES environment.

One :class:`PlanExecution` instance is shared by every rank of one step.
Each rank calls :meth:`PlanExecution.run_rank` from its own process; the
executor spawns one lightweight process per op, wires dependencies
through per-op done events (cross-rank deps included), and drives the
same device models the hand-written strategy generators used to call:

- ``Compute``  -> ``gpu.compute`` (roofline kernel, stream-serialized)
- ``Collective``/``Barrier`` -> the ``Communicator`` rendezvous
- ``H2DCopy``/``D2HCopy``/``P2PCopy`` -> ``topology.transfer``
- ``StorageRead``/``StorageWrite`` -> the storage device
- ``Delay``    -> ``env.timeout`` (plus the elapsed-fraction overhead)

Telemetry is derived *mechanically* from op identities: when a rank's
program finishes, its recorded op intervals become spans.  Exclusive ops
emit under their own names; where communication overlapped compute
(DDP's bucketed allreduce under backward, pipeline sends under the next
micro-batch), the compute kernels emit directly and the non-hidden
remainder of the communication emits as ``exposed-sync`` — exactly the
compute/exposed-comm split the hand-instrumented loop produced.

Failure semantics match the legacy loop: a fault inside an op (link
pulled, collective timeout) fails that op's done event (pre-defused) and
propagates out of ``run_rank`` into the trainer's fault handler; the
training runtime then calls :meth:`PlanExecution.cancel` so no op
process outlives the job and corrupts a successor's device state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..sim import Environment, Interrupt
from ..telemetry.trace import NULL_TRACER, Category, Tracer
from .ir import (
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
)

__all__ = ["ExecutionContext", "PlanExecution", "exposed_comm_seconds"]

#: Ignore sub-picosecond slivers when deriving exposed-comm segments.
_EPS = 1e-12


@dataclass
class ExecutionContext:
    """Everything a plan needs to run: devices, fabric, comm, telemetry."""

    env: Environment
    comm: object = None
    gpus: list = field(default_factory=list)
    topology: object = None
    #: Host DRAM node name (H2D/D2H endpoints).
    host_node: Optional[str] = None
    storage: object = None
    tracer: Tracer = NULL_TRACER
    #: rank -> telemetry Track (None disables span derivation).
    track_for: Optional[Callable] = None
    #: Multiplicative kernel-noise sampler for ``jittered`` computes.
    jitter: Callable[[], float] = lambda: 1.0
    #: Called with the :class:`PlanExecution` when its last rank
    #: finishes — the profiler's capture point for per-op absolute
    #: times (``None`` disables the callback).
    on_plan_done: Optional[Callable] = None

    def node(self, spec) -> str:
        """Topology node of an endpoint spec (see ``ir.op_endpoints``)."""
        kind = spec[0]
        if kind == "gpu":
            return self.gpus[spec[1]].name
        if kind == "comm":
            return self.comm.ranks[spec[1]]
        if kind == "host":
            return self.host_node
        if kind == "media":
            return self.storage.media_node
        raise PlanError(f"unknown endpoint spec {spec!r}")

    def route(self, src, dst):
        """Fabric route between two endpoint specs."""
        return self.topology.route(self.node(src), self.node(dst))


class PlanExecution:
    """One in-flight instance of a plan (one optimizer step, all ranks)."""

    def __init__(self, plan: StepPlan, ctx: ExecutionContext):
        if not plan.validated:
            # Validate each distinct plan once; assert_valid stamps the
            # plan so the next step's execution skips this entirely.
            from .validate import assert_valid
            assert_valid(plan)
        self.plan = plan
        self.ctx = ctx
        self._done: dict = {}          # uid -> done Event
        self._times: dict = {}         # uid -> (start, end)
        self._procs: list = []
        self._rank_start: dict = {}
        self._ranks_finished = 0

    # -- introspection -----------------------------------------------------
    def op_times(self, uid: str):
        """(start, end) of a completed op; raises if it has not run."""
        try:
            return self._times[uid]
        except KeyError:
            raise PlanError(f"op {uid!r} has not completed") from None

    @property
    def all_ranks_done(self) -> bool:
        return self._ranks_finished >= self.plan.world_size

    # -- execution ---------------------------------------------------------
    def _event(self, uid: str):
        event = self._done.get(uid)
        if event is None:
            event = self._done[uid] = self.ctx.env.event()
        return event

    def run_rank(self, rank: int):
        """Generator: run this rank's program to completion.

        Spawns one process per op (dependencies gate their start), then
        waits for all of them.  Any op failure propagates out of the
        ``yield`` here, exactly as the hand-written schedules raised out
        of their ``yield`` s.
        """
        env = self.ctx.env
        self._rank_start[rank] = env.now
        ops = self.plan.by_rank(rank)
        procs = [env.process(self._run_op(op)) for op in ops]
        self._procs.extend(procs)
        if procs:
            yield env.all_of(procs)
        self._ranks_finished += 1
        self._emit_rank_spans(rank)
        if self._ranks_finished == self.plan.world_size:
            hook = self.ctx.on_plan_done
            if hook is not None:
                hook(self)

    def cancel(self, cause=None) -> None:
        """Interrupt every still-running op process (fault teardown)."""
        for proc in self._procs:
            if proc.is_alive and proc._target is not None:
                proc.interrupt(cause)

    def _run_op(self, op):
        env = self.ctx.env
        try:
            if op.deps:
                yield env.all_of([self._event(dep) for dep in op.deps])
            start = env.now
            yield from self._perform(op)
            self._times[op.uid] = (start, env.now)
        except Interrupt:
            return
        except BaseException as exc:
            # Fail the done event (pre-defused: dependents may already be
            # gone) so cross-rank waiters unwind instead of hanging.
            done = self._event(op.uid)
            if not done.triggered:
                done.defused = True
                done.fail(exc)
            raise
        done = self._event(op.uid)
        if not done.triggered:
            done.succeed()

    # -- op dispatch -------------------------------------------------------
    def _perform(self, op):
        ctx = self.ctx
        if isinstance(op, Compute):
            factor = ctx.jitter() if op.jittered else 1.0
            yield ctx.gpus[op.rank].compute(
                op.flops * factor, op.hbm_bytes, op.precision,
                op.efficiency)
        elif isinstance(op, Collective):
            yield self._join_collective(op)
        elif isinstance(op, Barrier):
            yield ctx.comm.barrier(op.rank)
        elif isinstance(op, H2DCopy):
            yield ctx.topology.transfer(ctx.host_node,
                                        ctx.gpus[op.rank].name,
                                        op.bytes, label=op.label)
        elif isinstance(op, D2HCopy):
            yield ctx.topology.transfer(ctx.gpus[op.rank].name,
                                        ctx.host_node, op.bytes,
                                        label=op.label)
        elif isinstance(op, P2PCopy):
            yield ctx.topology.transfer(ctx.gpus[op.rank].name,
                                        ctx.gpus[op.dst_rank].name,
                                        op.bytes, label=op.label)
        elif isinstance(op, StorageRead):
            yield ctx.storage.read_to(ctx.host_node, op.bytes)
        elif isinstance(op, StorageWrite):
            yield ctx.storage.write_from(ctx.host_node, op.bytes)
        elif isinstance(op, Delay):
            elapsed = self.ctx.env.now - self._rank_start[op.rank]
            yield self.ctx.env.timeout(
                op.seconds + op.elapsed_fraction * elapsed)
        else:  # pragma: no cover - taxonomy is closed
            raise PlanError(f"executor cannot run op kind {op.kind!r}")

    def _join_collective(self, op):
        comm = self.ctx.comm
        rank, root = op.rank, op.root
        if op.group is not None:
            # Grouped collective: rendezvous on the sub-communicator,
            # with rank/root translated to group-local indices.
            comm = comm.subgroup(op.group)
            rank = op.group.index(op.rank)
            root = op.group.index(op.root) if op.root is not None else None
        chunk = op.chunk_bytes
        if op.comm == "allreduce":
            return comm.allreduce(rank, op.bytes, chunk_bytes=chunk)
        if op.comm == "reduce_scatter":
            return comm.reduce_scatter(rank, op.bytes,
                                       chunk_bytes=chunk)
        if op.comm == "all_gather":
            return comm.allgather(rank, op.bytes, chunk_bytes=chunk)
        if op.comm == "broadcast":
            return comm.broadcast(rank, op.bytes, root=root or 0,
                                  chunk_bytes=chunk)
        if op.comm == "reduce":
            return comm.reduce(rank, op.bytes, root=root or 0,
                               chunk_bytes=chunk)
        raise PlanError(f"unknown collective {op.comm!r}")

    # -- mechanical span derivation ---------------------------------------
    def _emit_rank_spans(self, rank: int) -> None:
        tracer = self.ctx.tracer
        if not tracer.enabled or self.ctx.track_for is None:
            return
        track = self.ctx.track_for(rank)
        if track is None:
            return
        records = _traced_records(self.plan, self._times, rank)
        for cluster in _overlap_clusters(records):
            if len(cluster) == 1:
                op, start, end = cluster[0]
                tracer.complete(op.name, op.category, track, start, end,
                                **_span_attrs(op))
                continue
            computes, others, exposed = _split_cluster(cluster)
            for op, start, end in computes:
                tracer.complete(op.name, op.category, track, start, end,
                                overlapped_comm=bool(others),
                                **_span_attrs(op))
            total_bytes = sum(op.bytes for op, _, _ in others)
            for start, end in exposed:
                tracer.complete("exposed-sync", Category.COMM, track,
                                start, end, bytes=total_bytes)


def exposed_comm_seconds(plan: StepPlan, op_times: dict,
                         rank: int = 0) -> float:
    """Seconds of ``rank``'s communication that no compute hides.

    ``op_times`` maps op uid to ``(start, end)``, as
    :class:`~repro.plan.fastpath.PlanTiming` carries it.  The result is
    the summed duration of the ``exposed-sync`` spans a traced
    execution with these op times emits on ``rank``'s track, computed
    from the same overlap clusters, so no trace is needed.
    """
    total = 0.0
    for cluster in _overlap_clusters(_traced_records(plan, op_times, rank)):
        if len(cluster) > 1:
            for start, end in _split_cluster(cluster)[2]:
                total += end - start
    return total


def _traced_records(plan: StepPlan, op_times: dict, rank: int) -> list:
    """(op, start, end) of ``rank``'s traced ops that have times."""
    return [(op, *op_times[op.uid]) for op in plan.by_rank(rank)
            if op.traced and op.uid in op_times]


def _split_cluster(cluster):
    """An overlap cluster's compute records, its other records, and the
    intervals of the others that no compute hides (slivers of at most
    :data:`_EPS` dropped)."""
    computes = [r for r in cluster if r[0].category is Category.COMPUTE]
    others = [r for r in cluster if r[0].category is not Category.COMPUTE]
    if not others:
        return computes, others, []
    hidden = _merge_intervals([(s, e) for _, s, e in computes])
    exposed = _subtract_intervals(
        _merge_intervals([(s, e) for _, s, e in others]), hidden)
    return computes, others, [(s, e) for s, e in exposed if e - s > _EPS]


def _span_attrs(op) -> dict:
    attrs = {}
    if op.bytes:
        attrs["bytes"] = op.bytes
    if op.fused:
        attrs["fused"] = op.fused
    if getattr(op, "chunk_bytes", None) is not None:
        attrs["chunk_bytes"] = op.chunk_bytes
    return attrs


def _overlap_clusters(records):
    """Group (op, start, end) records into interval-overlap clusters.

    Records touching only at endpoints are *not* overlapping; each
    cluster's spans would violate the tracer's per-track nesting
    invariant if emitted verbatim, so clusters of size > 1 get the
    compute/exposed-comm treatment.
    """
    ordered = sorted(records, key=lambda r: (r[1], r[2]))
    clusters = []
    current: list = []
    current_end = float("-inf")
    for record in ordered:
        _, start, end = record
        if current and start >= current_end - _EPS:
            clusters.append(current)
            current = []
            current_end = float("-inf")
        current.append(record)
        current_end = max(current_end, end)
    if current:
        clusters.append(current)
    return clusters


def _merge_intervals(intervals):
    """Union of [start, end) intervals, as a sorted disjoint list."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1] + _EPS:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _subtract_intervals(base, holes):
    """Set-difference of two disjoint sorted interval lists."""
    out = []
    for start, end in base:
        cursor = start
        for h0, h1 in holes:
            if h1 <= cursor or h0 >= end:
                continue
            if h0 > cursor:
                out.append((cursor, min(h0, end)))
            cursor = max(cursor, h1)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out
