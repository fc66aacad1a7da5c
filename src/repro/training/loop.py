"""The data-parallel training loop (paper Fig. 8's workflow).

Per optimizer step, the simulation executes the paper's data workflow
end to end:

1. the **dataloader** reads a global batch from storage (unless the
   dataset is page-cached in host DRAM), preprocesses it on CPU worker
   cores, and enqueues per-rank micro-batches (bounded prefetch queues
   give natural pipelining and backpressure);
2. each **rank process** copies its micro-batch host-to-device over the
   PCIe/fabric path, then executes its program of the strategy's
   *compiled step plan* (forward, backward with overlapped gradient
   synchronization, optimizer) through the generic plan executor;
3. periodically rank 0 **checkpoints**: all ranks synchronize, the
   weights stream device-to-host and onto storage, and the other GPUs sit
   idle — producing the sharp utilization dips of the paper's Fig. 9.

Because full training runs take hours of simulated time, a job simulates
a configurable number of steps plus checkpoints at steady state and
extrapolates total training time from measured averages (the per-step
pattern is strictly repetitive, which is the same argument the paper
makes for training fewer epochs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..devices.gpu import GPU
from ..devices.host import HostServer
from ..devices.storage import StorageDevice
from ..fabric.topology import (
    DeviceFailure,
    LinkFailure,
    NoRouteError,
    Topology,
)
from ..plan import ExecutionContext, PlanBuilder, PlanExecution
from ..sim import Environment, Interrupt, Store
from ..telemetry import MetricsCollector
from ..telemetry.trace import NULL_TRACER, Category, Tracer, Track
from ..workloads.registry import Benchmark
from .collectives import CollectiveTimeout, Communicator
from .parallel import (
    CompileContext,
    DistributedDataParallel,
    ParallelStrategy,
    StepCosts,
)
from .precision import AMP_POLICY, PrecisionPolicy

__all__ = ["TrainingConfig", "TrainingInterrupted", "TrainingJob",
           "TrainingResult", "clear_plan_compile_cache",
           "plan_compile_stats"]

#: Host-side framework footprint (CUDA pinned buffers, Python runtime...).
HOST_FRAMEWORK_BYTES = 12e9
#: Warmup steps excluded from step-time statistics.
WARMUP_STEPS = 2

# Compiling a step plan is pure: its output depends only on the strategy
# (and its knobs), the cost model scalars, and the device roster.  Sweeps
# instantiate hundreds of jobs over a handful of distinct cells, so the
# compiled (pre-pass) plan is memoized process-wide.  Plans are immutable
# after construction, which makes sharing one instance across jobs safe;
# pass pipelines run per-job on the shared input and produce new plans.
_PLAN_COMPILE_CACHE: dict = {}
_plan_compile_stats = {"hits": 0, "misses": 0}


def _plan_compile_key(strategy, costs: StepCosts, world_size: int,
                      accumulation: int, gpus) -> tuple:
    policy = costs.policy
    model = costs.model
    return (
        type(strategy).__name__,
        tuple(sorted((k, repr(v)) for k, v in vars(strategy).items())),
        (model.name, model.params, model.depth,
         model.activation_bytes_per_sample(policy.compute)),
        (policy.name, policy.compute, policy.communication,
         policy.master_weights, policy.step_overhead),
        costs.efficiency,
        costs.batch_per_gpu,
        costs.forward_flops,
        costs.backward_flops,
        costs.forward_hbm_bytes,
        costs.backward_hbm_bytes,
        costs.gradient_bytes,
        costs.weight_bytes,
        world_size,
        accumulation,
        # Membership, not just shape: elastic resize recompiles at the
        # same world size but a different rank roster (a hot-swapped
        # spare, a parked straggler), and rank identity feeds the
        # execution context — a recompiled post-resize plan must never
        # alias a stale entry keyed only by GPU specs.
        tuple((g.name, repr(g.spec)) for g in gpus),
    )


def clear_plan_compile_cache() -> None:
    """Drop all memoized step plans and reset the hit/miss counters."""
    _PLAN_COMPILE_CACHE.clear()
    _plan_compile_stats["hits"] = 0
    _plan_compile_stats["misses"] = 0


def plan_compile_stats() -> dict:
    """``{"hits": int, "misses": int}`` for the step-plan compile memo."""
    return dict(_plan_compile_stats)


class TrainingInterrupted(Exception):
    """A fault tore the job down before it completed its steps.

    Raised out of the job's completion event after an orderly teardown
    (workers interrupted, collectives aborted, memory reconciled).  The
    attributes carry everything a checkpoint-restart runtime needs to
    resume: how far training got, and the last step whose checkpoint hit
    storage (``None`` if no checkpoint completed).
    """

    def __init__(self, cause: BaseException, steps_completed: int,
                 last_checkpoint_step: Optional[int], at: float):
        super().__init__(
            f"training interrupted after {steps_completed} steps: {cause}")
        self.cause = cause
        self.steps_completed = steps_completed
        self.last_checkpoint_step = last_checkpoint_step
        #: Simulation time at which the fault was detected.
        self.at = at


@dataclass
class TrainingConfig:
    """Everything that defines one training run."""

    benchmark: Benchmark
    strategy: ParallelStrategy = field(default_factory=DistributedDataParallel)
    policy: PrecisionPolicy = AMP_POLICY
    #: Global batch size; defaults to the paper's per-benchmark value.
    global_batch: Optional[int] = None
    #: Epochs; defaults to the paper's per-benchmark value.
    epochs: Optional[int] = None
    #: Steps actually simulated (statistics extrapolate the rest).
    sim_steps: int = 24
    #: Checkpoints actually simulated.
    sim_checkpoints: int = 1
    #: Real checkpoint cadence, as a fraction of an epoch.
    checkpoint_every_epoch_fraction: float = 0.25
    #: Dataloader worker threads (4 per rank on the 8-GPU host).
    dataloader_workers: int = 32
    #: Prefetch queue depth (global batches).
    prefetch_batches: int = 3
    #: Telemetry sampling interval, seconds.
    sample_interval: float = 0.25
    #: Force dataset (non-)residency in the host page cache; None = auto
    #: (resident when the dataset fits in host DRAM, as ImageNet/COCO/
    #: SQuAD all do on the 756 GB hosts).
    dataset_cached: Optional[bool] = None
    #: Per-protocol NCCL transport byte inflation; None = calibrated
    #: defaults (sensitivity-study knob).
    transport_penalty: Optional[dict] = None
    #: Gradient-accumulation micro-steps per optimizer step.  The global
    #: batch is split into this many micro-batches per rank (PyTorch
    #: ``no_sync()`` pattern), trading step latency for activation
    #: memory — e.g. BERT-large at an effective 96 global batch fits DDP
    #: with ``accumulation_steps=2``.
    accumulation_steps: int = 1
    #: Lognormal sigma of per-kernel time noise (0 = deterministic).
    kernel_jitter: float = 0.0
    #: Seed for the jitter RNG (runs are reproducible at fixed seed).
    jitter_seed: int = 0x5EED
    #: Checkpoint every N optimizer steps instead of ``sim_checkpoints``
    #: evenly-spaced ones — the knob a fault-tolerance study sweeps to
    #: trade checkpoint overhead against lost work (Young/Daly).
    checkpoint_interval_steps: Optional[int] = None
    #: NCCL-watchdog timeout for collectives, seconds of simulated time;
    #: ``None`` disables the watchdog (a rank stuck on a dead peer hangs,
    #: as NCCL does without a timeout configured).
    collective_timeout: Optional[float] = None
    #: Optimization passes applied to the compiled step plan, as a spec
    #: accepted by :func:`repro.plan.passes.resolve_passes` — a comma
    #: string ("bucketing,overlap"), "all", or a sequence mixing names
    #: and PlanPass instances.  ``None`` (default) runs the compiler's
    #: plan untouched, byte-for-byte identical to pre-pass behaviour.
    #: The checkpoint plan is never rewritten: it is latency-bound
    #: sequential drain with nothing to overlap or bucket.
    plan_passes: Optional[object] = None

    def __post_init__(self):
        if self.sim_steps <= 0:
            raise ValueError(
                f"sim_steps must be a positive step count, "
                f"got {self.sim_steps}")
        if self.global_batch is not None and self.global_batch < 1:
            raise ValueError(
                f"global_batch must be None (the benchmark's) or >= 1, "
                f"got {self.global_batch}")
        if self.accumulation_steps < 1:
            raise ValueError(
                f"accumulation_steps must be >= 1, "
                f"got {self.accumulation_steps}")
        if self.checkpoint_interval_steps is not None \
                and self.checkpoint_interval_steps < 0:
            raise ValueError(
                "checkpoint_interval_steps must be None (auto), "
                "0 (disabled), or a positive cadence, got "
                f"{self.checkpoint_interval_steps}")

    def resolved_global_batch(self) -> int:
        if self.global_batch is None:
            return self.benchmark.global_batch
        return self.global_batch

    def resolved_epochs(self) -> int:
        return self.epochs or self.benchmark.epochs


@dataclass
class TrainingResult:
    """Measured and extrapolated outcomes of a training run."""

    benchmark_key: str
    strategy_name: str
    policy_name: str
    world_size: int
    global_batch: int
    steps_simulated: int
    #: Steady-state seconds per optimizer step (mean over measured steps).
    step_time: float
    step_time_std: float
    #: Seconds per checkpoint (device->host->storage, ranks idle).
    checkpoint_time: float
    #: First-epoch dataset staging overhead beyond compute, seconds.
    staging_overhead: float
    steps_per_epoch: int
    epochs: int
    checkpoints_per_epoch: int
    #: Simulation window over which telemetry was collected.
    t_start: float
    t_end: float
    collector: MetricsCollector
    #: (start, end) spans spent inside checkpoints (ranks stalled).
    checkpoint_spans: list[tuple[float, float]] = field(default_factory=list)
    gpus: list[GPU] = field(repr=False, default_factory=list)

    def steady_windows(self) -> list[tuple[float, float]]:
        """The measurement window minus checkpoint stalls — the spans over
        which steady-state traffic and utilization should be averaged."""
        windows: list[tuple[float, float]] = []
        cursor = self.t_start
        for c0, c1 in sorted(self.checkpoint_spans):
            if c0 > cursor:
                windows.append((cursor, min(c0, self.t_end)))
            cursor = max(cursor, c1)
        if cursor < self.t_end:
            windows.append((cursor, self.t_end))
        return windows or [(self.t_start, self.t_end)]

    @property
    def epoch_time(self) -> float:
        """Estimated wall seconds per steady-state epoch."""
        return self._epoch_seconds(self.step_time, self.checkpoint_time)

    @property
    def total_time(self) -> float:
        """Estimated wall seconds for the full training run."""
        return self.extrapolated_total(self.step_time, self.checkpoint_time)

    def extrapolated_total(self, step: float, checkpoint: float) -> float:
        """Full-run wall seconds at the given step and checkpoint means:
        ``epochs * (steps/epoch * step + ckpts/epoch * checkpoint) +
        staging``.  Span- and profile-derived means go through this
        same formula to reconcile against :attr:`total_time`."""
        return (self.epochs * self._epoch_seconds(step, checkpoint)
                + self.staging_overhead)

    def _epoch_seconds(self, step: float, checkpoint: float) -> float:
        return (self.steps_per_epoch * step
                + self.checkpoints_per_epoch * checkpoint)

    @property
    def throughput(self) -> float:
        """Steady-state samples per second."""
        return self.global_batch / self.step_time if self.step_time else 0.0

    def summary(self) -> dict:
        return {
            "benchmark": self.benchmark_key,
            "strategy": self.strategy_name,
            "policy": self.policy_name,
            "world_size": self.world_size,
            "global_batch": self.global_batch,
            "step_time_s": self.step_time,
            "throughput_samples_s": self.throughput,
            "epoch_time_s": self.epoch_time,
            "total_time_s": self.total_time,
        }


class TrainingJob:
    """One data-parallel training run on a composed system."""

    def __init__(self, env: Environment, topology: Topology,
                 host: HostServer, gpus: list[GPU],
                 storage: StorageDevice, config: TrainingConfig,
                 collector: Optional[MetricsCollector] = None,
                 tracer: Optional[Tracer] = None,
                 prologue_plan=None):
        if not gpus:
            raise ValueError("training needs at least one GPU")
        self.env = env
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.topology = topology
        self.host = host
        self.gpus = gpus
        self.storage = storage
        self.config = config
        self.benchmark = config.benchmark
        self.model = self.benchmark.build()
        self.world_size = len(gpus)
        self.global_batch = config.resolved_global_batch()
        # Strategies own batch placement: data-parallel splits the global
        # batch across ranks, pipeline parallelism streams the full batch
        # through every stage.
        self.batch_per_gpu = config.strategy.rank_batch(
            self.global_batch, self.world_size)
        self._input_ranks = tuple(sorted(
            config.strategy.input_ranks(self.world_size)))
        if self.batch_per_gpu % config.accumulation_steps != 0:
            raise ValueError(
                f"per-GPU batch {self.batch_per_gpu} not divisible by "
                f"accumulation_steps {config.accumulation_steps}")
        self.micro_batch_per_gpu = self.batch_per_gpu \
            // config.accumulation_steps
        self.comm = Communicator(env, topology, [g.name for g in gpus],
                                 gpus=gpus,
                                 transport_penalty=config.transport_penalty,
                                 watchdog=config.collective_timeout,
                                 tracer=self.tracer)
        self.costs = StepCosts.for_benchmark(
            self.model, config.policy,
            self._batch_adjusted_efficiency(),
            self.micro_batch_per_gpu,
            jitter=config.kernel_jitter,
            seed=config.jitter_seed)
        self.collector = collector or MetricsCollector(
            env, config.sample_interval)
        self.collector.watch_host(host)
        for gpu in gpus:
            self.collector.watch_gpu(gpu)

        # Validate device memory up front (the lever behind Fig. 16's
        # sharded batch-size increase).  Activations are sized by the
        # micro-batch: accumulation frees memory between micro-steps.
        per_gpu = config.strategy.memory_per_gpu(
            self.model, config.policy, self.micro_batch_per_gpu,
            self.world_size)
        capacity = min(g.spec.memory_bytes for g in gpus)
        if per_gpu > capacity:
            raise MemoryError(
                f"{self.model.name} with batch {self.batch_per_gpu}/GPU "
                f"needs {per_gpu / 1e9:.1f} GB > {capacity / 1e9:.1f} GB "
                f"device memory under {config.strategy.name}")
        self._gpu_resident_bytes = per_gpu

        # Compile the strategy's step into a plan once; the generic
        # executor replays it every optimizer step.  The checkpoint path
        # compiles the same way, so every device interaction the job
        # performs (outside data loading) is visible as a static op DAG.
        # Identical (strategy, workload, device) cells share one compiled
        # plan via the process-wide memo — jitter is applied at execution
        # time, so the plan is independent of it.
        memo_key = _plan_compile_key(
            config.strategy, self.costs, self.world_size,
            config.accumulation_steps, gpus)
        cached_plan = _PLAN_COMPILE_CACHE.get(memo_key)
        if cached_plan is not None:
            _plan_compile_stats["hits"] += 1
            self.step_plan = cached_plan
        else:
            _plan_compile_stats["misses"] += 1
            self.step_plan = config.strategy.compile_step(CompileContext(
                costs=self.costs, world_size=self.world_size,
                accumulation=config.accumulation_steps, gpus=gpus))
            _PLAN_COMPILE_CACHE[memo_key] = self.step_plan
        #: Per-pass reports when ``config.plan_passes`` is set (else []).
        self.pass_reports: list = []
        if config.plan_passes:
            from ..plan.passes import (
                PassContext,
                PassManager,
                resolve_passes,
            )
            manager = PassManager(resolve_passes(config.plan_passes))
            self.step_plan = manager.run(self.step_plan, PassContext(
                topology=topology,
                rank_nodes=[g.name for g in gpus],
                host_node=host.dram_node))
            self.pass_reports = manager.reports
        # Elastic resume: a state-redistribution plan spliced in front of
        # the first optimizer step, so resharding traffic and the new
        # ring's first step share one op DAG on the executor's timeline.
        if prologue_plan is not None:
            from ..plan import splice_plans
            if prologue_plan.world_size != self.world_size:
                raise ValueError(
                    f"prologue plan world {prologue_plan.world_size} != "
                    f"job world {self.world_size}")
            self._step0_plan = splice_plans(prologue_plan, self.step_plan)
        else:
            self._step0_plan = self.step_plan
        self.checkpoint_plan, self._ckpt_uids = self._compile_checkpoint()
        self._exec_ctx = ExecutionContext(
            env=env, comm=self.comm, gpus=gpus, topology=topology,
            host_node=host.dram_node, storage=storage, tracer=self.tracer,
            track_for=lambda rank: Track(host.name, gpus[rank].name),
            jitter=self.costs.jitter_factor)
        #: In-flight plan executions, keyed ("step"|"ckpt", step index);
        #: shared across ranks and reaped when the last rank finishes.
        self._executions: dict = {}

        # Step bookkeeping.
        self.steps_per_epoch = self.benchmark.dataset.steps_per_epoch(
            self.global_batch)
        frac = config.checkpoint_every_epoch_fraction
        self.checkpoints_per_epoch = max(1, int(round(1.0 / frac))) \
            if frac > 0 else 0
        self._queues = [Store(env, capacity=config.prefetch_batches)
                        for _ in gpus]
        self._device_queues = [Store(env, capacity=2) for _ in gpus]
        self._step_times: list[float] = []
        self._ckpt_times: list[float] = []
        self._ckpt_spans: list[tuple[float, float]] = []
        self._dataset_cached = self._resolve_cached()
        # Fault handling: the first fault any worker observes succeeds
        # this event (value = the exception); _main then tears down.
        self._failure = env.event()
        self._step_listeners: list = []
        self._ckpt_listeners: list = []
        self._steps_completed = 0
        self._last_checkpoint_step: Optional[int] = None
        # Host bytes the dataloader allocated that feeders have not yet
        # freed; reconciled at teardown so a killed job leaks nothing.
        self._transient_host_bytes = 0.0

    # -- derived quantities ----------------------------------------------------
    def _batch_adjusted_efficiency(self) -> float:
        """Sustained efficiency with mild per-GPU batch saturation.

        Larger micro-batches run GEMMs at better tensor-core occupancy;
        the ``b / (b + 1)`` saturation is anchored at the benchmark's
        reference per-GPU batch so the registry's calibrated efficiencies
        apply unchanged at the paper's batch sizes.  This is the lever
        that makes sharded training's 6 -> 10 batch increase a real
        per-sample win (paper §V-C.4).
        """
        table_eff = self.benchmark.efficiency[self.config.policy.compute]
        ref_b = max(1.0, self.benchmark.global_batch / 8.0)
        b = self.micro_batch_per_gpu
        return table_eff * ((ref_b + 1.0) / ref_b) * (b / (b + 1.0))

    def _resolve_cached(self) -> bool:
        if self.config.dataset_cached is not None:
            return self.config.dataset_cached
        dataset_bytes = self.benchmark.dataset.epoch_disk_bytes()
        return dataset_bytes + HOST_FRAMEWORK_BYTES \
            < 0.8 * self.host.spec.memory_bytes

    @property
    def checkpoint_bytes(self) -> float:
        """Serialized training state: FP32 weights + optimizer moments."""
        return self.model.params * 12.0

    def _compile_checkpoint(self):
        """Compile the periodic checkpoint into a plan.

        All ranks rendezvous, rank 0 drains the serialized state
        device-to-host and persists it to storage, then everyone
        rendezvous again — the other GPUs sit idle for the whole window
        (the sharp utilization dips of the paper's Fig. 9).  Returns the
        plan plus the uids the trainer needs for durability bookkeeping.
        """
        nbytes = self.checkpoint_bytes
        b = PlanBuilder("checkpoint", self.world_size,
                        meta={"strategy": "checkpoint"})
        b.declare_conservation("checkpoint-state", 2.0 * nbytes)
        uids = {}
        for rank in range(self.world_size):
            enter = b.barrier(rank, "ckpt-enter", traced=False)
            if rank == 0:
                d2h = b.d2h(rank, "ckpt-d2h", nbytes, deps=[enter],
                            label="d2h-ckpt", payload="checkpoint-state")
                write = b.storage_write(rank, "ckpt-write", nbytes,
                                        deps=[d2h],
                                        payload="checkpoint-state",
                                        category=Category.CHECKPOINT)
                b.barrier(rank, "ckpt-exit", deps=[write], traced=False)
                uids = {"enter": enter, "write": write}
            else:
                b.barrier(rank, "ckpt-exit", deps=[enter], traced=False)
        return b.build(), uids

    def _execution(self, key, plan) -> PlanExecution:
        """The shared in-flight execution for ``key``, created on first
        use (whichever rank gets there first)."""
        execution = self._executions.get(key)
        if execution is None:
            execution = self._executions[key] = PlanExecution(
                plan, self._exec_ctx)
        return execution

    def effective_read_bandwidth(self) -> float:
        """Storage read bandwidth after the random-access penalty."""
        return self.storage.spec.read_bandwidth

    def staging_time(self) -> float:
        """Time to pull the dataset from storage once (first epoch)."""
        dataset_bytes = self.benchmark.dataset.epoch_disk_bytes() \
            * self.benchmark.disk_read_factor
        return dataset_bytes / self.effective_read_bandwidth()

    # -- public progress API ---------------------------------------------------
    @property
    def step_times(self) -> list[float]:
        """Per-step wall times measured so far (rank 0's view)."""
        return list(self._step_times)

    def add_step_listener(self, fn) -> None:
        """Call ``fn(steps_completed, time)`` after each optimizer step.

        The public alternative to polling private step counters: chaos
        injectors and experiments use this to trigger a fault at a
        precise training-progress point without busy-waiting.
        """
        self._step_listeners.append(fn)

    def add_checkpoint_listener(self, fn) -> None:
        """Call ``fn(step, time)`` once a checkpoint is durable."""
        self._ckpt_listeners.append(fn)

    # -- run ---------------------------------------------------------------------
    def start(self):
        """Launch the job's processes; returns the completion event.

        Use this (instead of :meth:`run`) to execute several jobs
        concurrently on a shared environment — e.g. two hosts sharing a
        Falcon drawer in advanced mode — then :meth:`collect` the results
        once the environment has run past completion.
        """
        if getattr(self, "_done", None) is not None:
            raise RuntimeError("job already started")
        self._done = self.env.process(self._main())
        return self._done

    def run(self) -> TrainingResult:
        """Execute the simulation and return measured + extrapolated data."""
        done = self.start()
        self.env.run(until=done)
        return self.collect()

    def collect(self) -> TrainingResult:
        """Assemble the result after the completion event has fired."""
        if getattr(self, "_done", None) is None or not self._done.processed:
            raise RuntimeError("job has not finished; run() or env.run() "
                               "past the event returned by start()")
        import numpy as np
        steady = self._step_times[WARMUP_STEPS:] or self._step_times
        step_mean = float(np.mean(steady))
        step_std = float(np.std(steady))
        ckpt_mean = float(np.mean(self._ckpt_times)) \
            if self._ckpt_times else 0.0
        # First-epoch staging beyond what steady-state compute hides.
        if self._dataset_cached:
            epoch_compute = self.steps_per_epoch * step_mean
            staging = max(0.0, self.staging_time() - epoch_compute)
        else:
            staging = 0.0  # loader reads storage in-band; already in steps
        return TrainingResult(
            benchmark_key=self.benchmark.key,
            strategy_name=self.config.strategy.name,
            policy_name=self.config.policy.name,
            world_size=self.world_size,
            global_batch=self.global_batch,
            steps_simulated=len(self._step_times),
            step_time=step_mean,
            step_time_std=step_std,
            checkpoint_time=ckpt_mean,
            staging_overhead=staging,
            steps_per_epoch=self.steps_per_epoch,
            epochs=self.config.resolved_epochs(),
            checkpoints_per_epoch=self.checkpoints_per_epoch,
            t_start=self._t_start,
            t_end=self._t_end,
            collector=self.collector,
            checkpoint_spans=list(self._ckpt_spans),
            gpus=self.gpus,
        )

    # -- processes ------------------------------------------------------------------
    #: Fabric/collective faults a worker converts into a job failure (as
    #: opposed to programming errors, which propagate and crash the run).
    _FAULTS = (LinkFailure, DeviceFailure, NoRouteError, CollectiveTimeout)

    def _report_failure(self, exc: BaseException) -> None:
        """First fault wins; _main picks it up and tears the job down."""
        if not self._failure.triggered:
            self._failure.succeed(exc)

    def _main(self):
        cfg = self.config
        # Resident allocations: device memory per GPU, host framework +
        # page-cached dataset (what Fig. 14's memory utilization shows).
        for gpu in self.gpus:
            yield gpu.alloc(self._gpu_resident_bytes)
        host_resident = HOST_FRAMEWORK_BYTES
        if self._dataset_cached:
            host_resident += self.benchmark.dataset.epoch_disk_bytes()
        host_resident = min(host_resident,
                            0.95 * self.host.spec.memory_bytes
                            - self.host.memory.level)
        if host_resident > 0:
            yield self.host.alloc_memory(host_resident)

        self.collector.start()
        self._t_start = self.env.now

        loader = self.env.process(self._dataloader(cfg.sim_steps))
        feeders = [self.env.process(self._feeder(rank, cfg.sim_steps))
                   for rank in self._input_ranks]
        trainers = [self.env.process(self._trainer(rank, cfg.sim_steps))
                    for rank in range(self.world_size)]
        workers = [loader] + feeders + trainers
        yield self.env.any_of([self.env.all_of(workers), self._failure])

        fault = self._failure.value if self._failure.triggered else None
        if fault is not None:
            # Orderly teardown: stop every surviving worker, cancel every
            # in-flight plan op (a bucket timer that outlives the job
            # would join an aborted collective and launch real kernels
            # into a successor's stream), abort the communicator so
            # nothing waits on a collective that will never complete,
            # then let the interrupts unwind (they are URGENT events; a
            # zero-delay NORMAL timeout runs after all of them) before
            # reconciling memory.
            for proc in workers:
                if proc.is_alive:
                    proc.interrupt(fault)
            for execution in list(self._executions.values()):
                execution.cancel(fault)
            self._executions.clear()
            self.comm.abort()
            yield self.env.timeout(0.0)

        self._t_end = self.env.now
        self.collector.stop()
        # Release resident memory so back-to-back jobs can share devices.
        for gpu in self.gpus:
            yield gpu.free(self._gpu_resident_bytes)
        if host_resident > 0:
            yield self.host.free_memory(host_resident)
        if self._transient_host_bytes > 0:
            # Staging buffers whose feeder died before freeing them.
            yield self.host.free_memory(self._transient_host_bytes)
            self._transient_host_bytes = 0.0
        if fault is not None:
            raise TrainingInterrupted(fault, self._steps_completed,
                                      self._last_checkpoint_step,
                                      self.env.now)

    def _dataloader(self, steps: int):
        """Read + preprocess global batches; feed per-rank queues."""
        ds = self.benchmark.dataset
        disk_bytes = ds.disk_bytes_per_sample * self.global_batch \
            * self.benchmark.disk_read_factor
        h2d_bytes = ds.h2d_bytes_per_sample * self.global_batch
        cpu_seconds = ds.preprocess_core_seconds * self.global_batch
        try:
            for step in range(steps):
                if not self._dataset_cached:
                    yield self.storage.read_to(self.host.dram_node,
                                               disk_bytes)
                alloc = self.host.alloc_memory(h2d_bytes)
                try:
                    yield alloc
                except Interrupt:
                    alloc.cancel()  # withdraw the queued allocation
                    return
                self._transient_host_bytes += h2d_bytes
                if cpu_seconds > 0:
                    yield self.host.cpu.run(cpu_seconds,
                                            self.config.dataloader_workers)
                puts = [self._queues[rank].put(step)
                        for rank in self._input_ranks]
                yield self.env.all_of(puts)
        except self._FAULTS as exc:
            self._report_failure(exc)
        except Interrupt:
            return

    def _feeder(self, rank: int, steps: int):
        """Pinned-memory prefetch: copy the next micro-batch to the device
        while the current step computes (PyTorch's non_blocking H2D)."""
        gpu = self.gpus[rank]
        # Input ranks split the loader's staging buffer between them
        # (equal to ``batch_per_gpu`` under data parallelism, the whole
        # batch for a pipeline's single ingest stage).
        h2d_rank = self.benchmark.dataset.h2d_bytes_per_sample \
            * (self.global_batch // len(self._input_ranks))
        try:
            for _ in range(steps):
                item = yield self._queues[rank].get()
                yield self.topology.transfer(self.host.dram_node, gpu.name,
                                             h2d_rank, label="h2d")
                free = self.host.free_memory(h2d_rank)
                try:
                    yield free
                except Interrupt:
                    free.cancel()  # teardown reconciles these bytes
                    return
                self._transient_host_bytes -= h2d_rank
                yield self._device_queues[rank].put(item)
        except self._FAULTS as exc:
            self._report_failure(exc)
        except Interrupt:
            return

    def _trainer(self, rank: int, steps: int):
        """One rank: await the prefetched batch, run its program of the
        compiled step plan, take periodic checkpoints."""
        ckpt_steps = self._resolve_checkpoint_steps(steps)
        tracer = self.tracer
        track = Track(self.host.name, self.gpus[rank].name)
        try:
            for step in range(steps):
                step_t0 = self.env.now
                step_span = tracer.span("step", Category.OTHER, track,
                                        step=step, rank=rank)
                if rank in self._input_ranks:
                    with tracer.span("wait-data", Category.STALL, track):
                        yield self._device_queues[rank].get()
                plan = self._step0_plan if step == 0 else self.step_plan
                execution = self._execution(("step", step), plan)
                yield from execution.run_rank(rank)
                if execution.all_ranks_done:
                    self._executions.pop(("step", step), None)
                step_span.close()
                if rank == 0:
                    self._step_times.append(self.env.now - step_t0)
                    self._steps_completed = step + 1
                    for fn in list(self._step_listeners):
                        fn(self._steps_completed, self.env.now)
                if step in ckpt_steps:
                    yield from self._checkpoint(rank, step)
        except self._FAULTS as exc:
            self._report_failure(exc)
        except Interrupt:
            return

    def _resolve_checkpoint_steps(self, steps: int) -> frozenset[int]:
        """Checkpoint positions: fixed cadence if configured, else the
        ``sim_checkpoints`` evenly-spaced ones."""
        interval = self.config.checkpoint_interval_steps
        if interval is not None:
            if interval <= 0:
                return frozenset()
            return frozenset(range(interval - 1, steps, interval))
        return self._checkpoint_steps(steps, self.config.sim_checkpoints)

    @staticmethod
    def _checkpoint_steps(steps: int, count: int) -> frozenset[int]:
        """Deterministic checkpoint positions, identical on every rank."""
        if count <= 0 or steps <= 0:
            return frozenset()
        every = max(1, steps // (count + 1))
        positions = [(i + 1) * every - 1 for i in range(count)]
        return frozenset(p for p in positions if p < steps)

    def _checkpoint(self, rank: int, step: int):
        """All ranks synchronize; rank 0 streams state to storage.

        The checkpoint is *durable* — and only then counts for restart —
        once the storage write returns; a fault mid-write rolls back to
        the previous checkpoint.
        """
        tracer = self.tracer
        track = Track(self.host.name, self.gpus[rank].name)
        execution = self._execution(("ckpt", step), self.checkpoint_plan)
        if rank == 0:
            yield from execution.run_rank(rank)
            # Durability bookkeeping off the executed ops' timestamps:
            # the checkpoint window opens when the entry rendezvous
            # completes and is durable when the storage write returns.
            t0 = execution.op_times(self._ckpt_uids["enter"])[1]
            t_durable = execution.op_times(self._ckpt_uids["write"])[1]
            tracer.complete("checkpoint", Category.CHECKPOINT, track,
                            t0, t_durable, step=step,
                            bytes=self.checkpoint_bytes)
            self._ckpt_times.append(t_durable - t0)
            self._ckpt_spans.append((t0, t_durable))
            self._last_checkpoint_step = step
            for fn in list(self._ckpt_listeners):
                fn(step, self.env.now)
        else:
            # Non-root ranks idle (GPUs drained) for the whole window —
            # the sharp utilization dips of the paper's Fig. 9.
            with tracer.span("checkpoint-wait", Category.STALL, track,
                             step=step):
                yield from execution.run_rank(rank)
        if execution.all_ranks_done:
            self._executions.pop(("ckpt", step), None)
