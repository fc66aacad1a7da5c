"""Fault-tolerant training: checkpoint-restart, backoff, elastic recovery.

:class:`FaultTolerantTrainingJob` wraps :class:`~repro.training.loop.
TrainingJob` in the recovery state machine a production trainer runs:

1. **Detect** — the job's workers convert fabric faults (link pulled,
   GPU dropped, collective watchdog) into :class:`TrainingInterrupted`.
2. **Reattach with backoff** — transient degradations (a flapping host
   port, a link mid-retrain) heal on their own; the runtime polls device
   reachability with jittered exponential backoff (bounded by an
   optional total retry budget) before touching the ring.
3. **Recompose the ring** — devices still dead afterwards are either
   *hot-swapped* for a chassis spare through the management plane
   (:class:`~repro.management.inventory.Inventory` — the composable
   system's unique recovery lever) or *dropped* from the ring.  Both are
   degenerate cases of one resize path (:meth:`_recompose`): the new
   membership gets a state-redistribution plan
   (:func:`~repro.plan.reshard.compile_reshard`) spliced in front of the
   resumed job's first step, so replica restores run as real fabric
   traffic on the executor's timeline.
4. **Restart from checkpoint** — a fresh attempt resumes from the last
   durable checkpoint and replays the lost steps.  (The elastic
   subclass in :mod:`repro.elastic` relaxes this: replicated state
   survives on living ranks, so resize resumes from the last *completed*
   step.)

Every transition is recorded both in the local recovery log and, when a
management :class:`~repro.management.events.EventLog` is wired in, as
audit events — recovery is an *operator-visible* activity, not a silent
retry loop.

Accounting follows the fault-tolerance literature: **goodput** is
first-time-useful samples over total wall time (recovery stalls, replays
and checkpoint overhead all tax it), versus the fault-free **raw
throughput**; **MTTR** is detection-to-restart time averaged over
faults.  Sweeping ``checkpoint_interval_steps`` against a given fault
rate traces the Young/Daly optimal-interval trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..devices.gpu import GPU
from ..devices.host import HostServer
from ..devices.storage import StorageDevice
from ..fabric.topology import Topology
from ..management.events import EventLog
from ..management.inventory import Inventory, InventoryError
from ..plan import ExecutionContext, FastPathUnsupported, fastpath_schedule
from ..plan.reshard import compile_reshard, is_rendezvous_only
from ..sim import Environment
from ..telemetry import MetricsCollector
from ..telemetry.trace import NULL_TRACER, Category, Tracer, Track
from .collectives import Communicator
from .loop import (
    TrainingConfig,
    TrainingInterrupted,
    TrainingJob,
    TrainingResult,
)

__all__ = ["ResilienceConfig", "RecoveryAction", "ResizeEvent",
           "FaultTolerantResult", "FaultTolerantTrainingJob"]


@dataclass
class ResilienceConfig:
    """Recovery policy knobs."""

    #: Restart attempts after the first (attempt count = max_restarts + 1).
    #: Controlled resizes (elastic grow/shrink) do not consume restarts.
    max_restarts: int = 4
    #: Reachability polls per fault before declaring devices dead.
    reattach_attempts: int = 3
    #: First backoff sleep, seconds; doubles (``backoff_factor``) per poll.
    backoff_initial: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    #: Fractional jitter on each backoff sleep: a sleep of ``b`` becomes
    #: uniform in ``[b * (1 - jitter), b]``, decorrelating retry storms
    #: when many jobs poll the same management plane.  0 = deterministic.
    backoff_jitter: float = 0.0
    #: Seed for the backoff-jitter RNG (runs reproduce at a fixed seed).
    jitter_seed: int = 0xB0FF
    #: Cap on *cumulative* backoff sleep per recovery, seconds; when the
    #: budget runs out the reattach loop stops polling early and the
    #: runtime proceeds straight to ring surgery (or gives up, with the
    #: exhaustion called out in ``interrupted_reason``).  None = no cap.
    retry_budget_s: Optional[float] = None
    #: Replace dead chassis GPUs with spares via the management plane.
    allow_hot_spare: bool = True
    #: Drop dead GPUs from the ring (N-1) when no spare can stand in.
    allow_shrink: bool = True


@dataclass(frozen=True)
class RecoveryAction:
    """One recovery-state-machine transition, timestamped."""

    time: float
    kind: str
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ResizeEvent:
    """One ring recomposition: membership delta + recompose telemetry."""

    time: float
    #: "swap" (hot spare), "shrink", "grow", or "repair".
    kind: str
    old_world: int
    new_world: int
    joined: tuple[str, ...]
    departed: tuple[str, ...]
    #: Attached but left out of the ring (virtual-node divisibility).
    parked: tuple[str, ...]
    #: Total bytes the spliced reshard plan moves over the fabric.
    reshard_bytes: float
    #: Estimated seconds the reshard traffic adds to the resumed job's
    #: first step (fast-path evaluation; None when ineligible).
    reshard_seconds: Optional[float]
    #: Detection-to-recomposition stall, seconds (time-to-recompose).
    recompose_seconds: float


@dataclass
class FaultTolerantResult:
    """Outcome + resilience telemetry of a fault-tolerant run."""

    completed: bool
    attempts: int
    faults: int
    total_steps: int
    #: Steps computed but rolled back (work after the last checkpoint).
    lost_steps: int
    #: First-time-useful samples trained (replays not double-counted).
    samples: float
    wall_time: float
    #: Mean detection-to-restart time over faults, seconds.
    mttr: float
    #: samples / wall_time — what the cluster actually delivered.
    goodput: float
    #: Fault-free samples/s of the final ring (None until one attempt
    #: finishes cleanly).
    raw_throughput: Optional[float]
    final_world_size: int
    recovery_log: list[RecoveryAction] = field(default_factory=list)
    #: Ring recompositions (hot-swap, shrink, grow) in order.
    resize_log: list[ResizeEvent] = field(default_factory=list)
    #: Why the run ended incomplete (None when it completed).
    interrupted_reason: Optional[str] = None
    result: Optional[TrainingResult] = None

    @property
    def resizes(self) -> int:
        return len(self.resize_log)


class FaultTolerantTrainingJob:
    """Checkpoint-restart training with elastic ring repair."""

    def __init__(self, env: Environment, topology: Topology,
                 host: HostServer, gpus: list[GPU],
                 storage: StorageDevice, config: TrainingConfig,
                 resilience: Optional[ResilienceConfig] = None,
                 inventory: Optional[Inventory] = None,
                 event_log: Optional[EventLog] = None,
                 tracer: Optional[Tracer] = None):
        if not gpus:
            raise ValueError("training needs at least one GPU")
        self.env = env
        self.topology = topology
        self.host = host
        self.gpus = list(gpus)
        self.storage = storage
        self.config = config
        self.resilience = resilience or ResilienceConfig()
        self.inventory = inventory
        self.event_log = event_log
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.recovery_log: list[RecoveryAction] = []
        self.resize_log: list[ResizeEvent] = []
        #: The job currently (or last) running — chaos hooks attach here.
        self.current_job: Optional[TrainingJob] = None
        #: Called with each freshly-built attempt's TrainingJob before it
        #: starts (lets experiments re-arm step-hook fault triggers).
        self.on_attempt: list = []
        world = len(gpus)
        global_batch = config.resolved_global_batch()
        if global_batch % world != 0:
            raise ValueError(
                f"global batch {global_batch} not divisible by world "
                f"size {world}")
        #: Held constant across ring shrinks (global batch scales).
        self.batch_per_gpu = global_batch // world
        self._model = config.benchmark.build()
        import numpy as np
        self._rng = np.random.default_rng(self.resilience.jitter_seed)
        #: Reshard plan spliced into the next attempt's first step.
        self._pending_prologue = None
        self._gave_up_reason: Optional[str] = None
        self._budget_note: Optional[str] = None
        self._detected_at: Optional[float] = None

    # -- bookkeeping ------------------------------------------------------
    def _record(self, kind: str, **detail) -> None:
        self.recovery_log.append(
            RecoveryAction(self.env.now, kind, dict(detail)))
        if self.event_log is not None:
            self.event_log.record(self.env.now, kind, "ft-runtime",
                                  **detail)

    def _give_up(self, reason: str, **detail) -> bool:
        """Record terminal recovery failure with a clear reason."""
        if self._budget_note:
            reason = f"{self._budget_note}; {reason}"
        self._gave_up_reason = reason
        self._record("recovery_gave_up", reason=reason, **detail)
        return False

    def _sleep(self, seconds: float) -> None:
        self.env.run(until=self.env.timeout(seconds))

    def _jittered(self, backoff: float) -> float:
        """Apply fractional jitter: uniform in ``[b*(1-jitter), b]``."""
        jitter = self.resilience.backoff_jitter
        if jitter > 0:
            backoff *= 1.0 - jitter * float(self._rng.random())
        return backoff

    def _backoff_sleep(self, backoff: float) -> float:
        """Sleep one (jittered) backoff interval; returns the sleep."""
        sleep = self._jittered(backoff)
        self._sleep(sleep)
        return sleep

    def _reachable(self, gpu: GPU) -> bool:
        return self.topology.reachable(self.host.dram_node, gpu.name)

    # -- subclass hooks (elastic overrides these) -------------------------
    def _attempt_config(self, remaining: int) -> TrainingConfig:
        """The next attempt's config at the current ring size.

        The base runtime holds *per-GPU* batch constant, so the global
        batch scales with the ring; the elastic runtime inverts this
        (virtual-node semantics hold the effective global batch
        invariant instead).
        """
        world = len(self.gpus)
        return replace(self.config, sim_steps=remaining,
                       global_batch=self.batch_per_gpu * world)

    def _is_resize(self, exc: TrainingInterrupted) -> bool:
        """Whether the interrupt is a controlled resize, not a fault."""
        return False

    def _durable_steps(self, exc: TrainingInterrupted) -> int:
        """Steps that survive the interrupt (base: checkpointed only)."""
        return 0 if exc.last_checkpoint_step is None \
            else exc.last_checkpoint_step + 1

    def _admit_ring(self, gpus: list) -> tuple[list, list]:
        """Split a candidate membership into (ring, parked)."""
        return list(gpus), []

    def _release_parked(self, parked: list) -> None:
        """Hand GPUs parked out of the ring back to the pool."""

    # -- main loop --------------------------------------------------------
    def run(self) -> FaultTolerantResult:
        """Train to completion (or exhaustion of the restart budget)."""
        res = self.resilience
        total = self.config.sim_steps
        done_steps = 0
        samples = 0.0
        lost_steps = 0
        faults = 0
        attempts = 0
        resizes = 0
        mttr: list[float] = []
        result: Optional[TrainingResult] = None
        completed = False
        wall_t0 = self.env.now

        while done_steps < total:
            if attempts - resizes > res.max_restarts:
                self._give_up(
                    f"restart budget exhausted: {attempts} attempts, "
                    f"{done_steps}/{total} steps durable",
                    attempts=attempts, steps_done=done_steps,
                    steps_total=total)
                break
            attempts += 1
            remaining = total - done_steps
            cfg = self._attempt_config(remaining)
            job = TrainingJob(self.env, self.topology, self.host,
                              list(self.gpus), self.storage, cfg,
                              collector=MetricsCollector(
                                  self.env, cfg.sample_interval),
                              prologue_plan=self._pending_prologue)
            self._pending_prologue = None
            self.current_job = job
            for hook in list(self.on_attempt):
                hook(job, attempts)
            try:
                self.env.run(until=job.start())
            except TrainingInterrupted as exc:
                resize = self._is_resize(exc)
                if resize:
                    resizes += 1
                else:
                    faults += 1
                detected_at = exc.at
                self._detected_at = detected_at
                durable = self._durable_steps(exc)
                rolled_back = exc.steps_completed - durable
                done_steps += durable
                samples += durable * cfg.resolved_global_batch()
                lost_steps += rolled_back
                self._record(
                    "resize_requested" if resize else "fault_detected",
                    cause=type(exc.cause).__name__,
                    message=str(exc.cause),
                    steps_completed=exc.steps_completed,
                    durable_steps=durable)
                if rolled_back:
                    self._record("checkpoint_rollback",
                                 rolled_back_steps=rolled_back,
                                 resume_step=done_steps)
                if not self._recover(exc.cause):
                    mttr.append(self.env.now - detected_at)
                    break
                if not resize:
                    mttr.append(self.env.now - detected_at)
                self._record("job_restarted", attempt=attempts + 1,
                             resume_step=done_steps,
                             world_size=len(self.gpus))
                continue
            result = job.collect()
            done_steps += remaining
            samples += remaining * cfg.resolved_global_batch()
            completed = True

        import numpy as np
        wall = self.env.now - wall_t0
        return FaultTolerantResult(
            completed=completed,
            attempts=attempts,
            faults=faults,
            total_steps=total,
            lost_steps=lost_steps,
            samples=samples,
            wall_time=wall,
            mttr=float(np.mean(mttr)) if mttr else 0.0,
            goodput=samples / wall if wall > 0 else 0.0,
            raw_throughput=result.throughput if result is not None else None,
            final_world_size=len(self.gpus),
            recovery_log=list(self.recovery_log),
            resize_log=list(self.resize_log),
            interrupted_reason=None if completed else self._gave_up_reason,
            result=result,
        )

    # -- recovery ---------------------------------------------------------
    def _recover(self, cause: Optional[BaseException] = None) -> bool:
        """Repair the ring; returns False when out of options.

        Transient-first: reachability is re-polled under jittered
        exponential backoff (a flapping port or mid-retrain link heals
        without any topology surgery, and checkpoint-restart alone
        suffices), bounded by the optional total retry budget.  Devices
        still dead afterwards are resolved through the single resize
        path: hot-swap joins a spare, shrink drops the dead rank, and
        either way :meth:`_recompose` splices the matching
        state-redistribution plan into the resumed timeline.
        """
        res = self.resilience
        backoff = res.backoff_initial
        spent = 0.0
        budget = res.retry_budget_s
        self._budget_note = None
        for attempt in range(res.reattach_attempts):
            dead = [g for g in self.gpus if not self._reachable(g)]
            if not dead:
                return True
            if budget is not None and spent >= budget:
                self._budget_note = (
                    f"reattach retry budget ({budget:.2f}s) exhausted "
                    f"after {attempt} poll(s)")
                self._record("reattach_budget_exhausted",
                             spent_s=spent, budget_s=budget,
                             polls=attempt,
                             unreachable=[g.name for g in dead])
                break
            nominal = backoff
            if budget is not None:
                nominal = min(nominal, budget - spent)
            sleep = self._jittered(nominal)
            self._record("recovery_backoff",
                         wait_s=sleep, nominal_s=nominal,
                         poll=attempt + 1,
                         unreachable=[g.name for g in dead])
            self._sleep(sleep)
            spent += sleep
            backoff = min(backoff * res.backoff_factor, res.backoff_max)

        dead = [g for g in self.gpus if not self._reachable(g)]
        if not dead:
            return True

        dead_set = {g.name for g in dead}
        new_ring: list[GPU] = []
        swapped = 0
        removed = 0
        for gpu in self.gpus:  # preserve ring positions where possible
            if gpu.name not in dead_set:
                new_ring.append(gpu)
                continue
            replacement = self._hot_swap(gpu) if res.allow_hot_spare \
                else None
            if replacement is not None:
                swapped += 1
                new_ring.append(replacement)
                continue
            if not res.allow_shrink:
                return self._give_up(
                    f"{gpu.name} is dead with no spare and shrink "
                    "disabled", device=gpu.name)
            removed += 1
            self._record("ring_shrunk", removed=gpu.name,
                         world_size=len(self.gpus) - removed)
        if not new_ring:
            return self._give_up("no GPUs left in the ring")
        kind = "swap" if swapped and not removed else "shrink"
        return self._recompose(new_ring, kind,
                               detected_at=self._detected_at)

    def _recompose(self, new_gpus: list, kind: str,
                   detected_at: Optional[float] = None) -> bool:
        """The one resize path: adopt a new membership + splice reshard.

        Hot-spare swap and N-1 shrink are degenerate cases (one joiner /
        no joiners); elastic grow and preemption shrink route through
        the same code.  Builds the state-redistribution plan for the
        membership delta, queues it as the next attempt's prologue, and
        records the resize in the log, the audit stream, and (when a
        tracer is attached) as a ``recompose`` span.
        """
        ring, parked = self._admit_ring(new_gpus)
        if not ring:
            return self._give_up("no GPUs left in the ring")
        old_names = [g.name for g in self.gpus]
        new_names = [g.name for g in ring]
        if new_names == old_names:
            return True  # membership unchanged: nothing to redistribute
        self._release_parked(parked)
        replica = self.state_bytes
        shard = replica / len(ring) \
            if self.config.strategy.sharded and len(ring) > 1 else 0.0
        plan = compile_reshard(new_names, old_names, replica, shard)
        self._pending_prologue = plan
        reshard_bytes = sum(op.bytes for op in plan)
        estimate = self._estimate_reshard_seconds(plan, ring)
        now = self.env.now
        event = ResizeEvent(
            time=now, kind=kind,
            old_world=len(old_names), new_world=len(new_names),
            joined=tuple(n for n in new_names if n not in old_names),
            departed=tuple(n for n in old_names if n not in new_names),
            parked=tuple(g.name for g in parked),
            reshard_bytes=reshard_bytes,
            reshard_seconds=estimate,
            recompose_seconds=(now - detected_at
                               if detected_at is not None else 0.0),
        )
        self.resize_log.append(event)
        self.gpus = list(ring)
        self._record("ring_resized", resize=kind,
                     old_world=event.old_world,
                     new_world=event.new_world,
                     joined=list(event.joined),
                     departed=list(event.departed),
                     parked=list(event.parked),
                     reshard_mb=reshard_bytes / 1e6,
                     reshard_s=estimate,
                     recompose_s=event.recompose_seconds)
        self.tracer.complete(
            "recompose", Category.MANAGEMENT,
            Track(self.host.name, "ft-runtime"),
            detected_at if detected_at is not None else now, now,
            kind=kind, old_world=event.old_world,
            new_world=event.new_world,
            reshard_bytes=reshard_bytes)
        return True

    @property
    def state_bytes(self) -> float:
        """Serialized per-rank training state a joiner must receive
        (FP32 master weights + optimizer moments, checkpoint-sized)."""
        return self._model.params * 12.0

    def _estimate_reshard_seconds(self, plan, ring) -> Optional[float]:
        """Fast-path estimate of the reshard plan's makespan.

        Pure (no env advance, no device mutation), so it is safe to run
        mid-recovery; returns None when the fast path is ineligible
        (e.g. a traced topology).
        """
        if is_rendezvous_only(plan):
            return 0.0  # pure quiesce: no bytes move
        try:
            comm = Communicator(
                self.env, self.topology, [g.name for g in ring],
                gpus=list(ring),
                transport_penalty=self.config.transport_penalty)
            ctx = ExecutionContext(
                env=self.env, comm=comm, gpus=list(ring),
                topology=self.topology, host_node=self.host.dram_node,
                storage=self.storage)
            return fastpath_schedule(plan, ctx).makespan
        except FastPathUnsupported:
            return None

    def _hot_swap(self, gpu: GPU) -> Optional[GPU]:
        """Swap a dead chassis GPU for a spare; None when impossible."""
        if self.inventory is None:
            return None
        try:
            spare = self.inventory.replace_gpu(gpu.name, self.host.name)
        except InventoryError as exc:
            self._record("hotplug_unavailable", device=gpu.name,
                         reason=str(exc))
            return None
        if not self._reachable(spare):
            self._record("hotplug_unavailable", device=spare.name,
                         reason="spare unreachable")
            return None
        self._record("gpu_hotplug", failed=gpu.name,
                     replacement=spare.name)
        return spare

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FaultTolerantTrainingJob world={len(self.gpus)} "
                f"steps={self.config.sim_steps}>")
