"""Parallel training strategies as *plan compilers*: DP, DDP, sharded,
pipeline, tensor, 2D (tensor x data) and fully sharded.

These reproduce the software-level optimization axis of the paper's
§V-C.4 / Fig. 16, and extend it to the strategy matrix:

- :class:`DataParallel` (PyTorch ``nn.DataParallel``): one master GPU
  broadcasts parameters every iteration and gathers all gradients back —
  the master's links bottleneck the step, GPUs idle during the funnel-in,
  and utilization suffers, "especially for large models".
- :class:`DistributedDataParallel` (PyTorch DDP): one process per GPU,
  bucketed ring allreduce overlapped with the backward pass.
- :class:`ShardedDataParallel` (ZeRO-style): DDP communication restructured
  as reduce-scatter + all-gather with optimizer state, master weights, and
  gradients partitioned across replicas — the memory saving is what lets
  the paper push BERT-large's per-GPU batch from 6 to 10.
- :class:`PipelineParallel` (GPipe-style): the model's layers are
  partitioned into one stage per GPU and micro-batches flow through the
  stages; it exists here to prove the compiler/executor split pays — the
  strategy is *only* a plan compiler, and the generic executor runs it
  unchanged.
- :class:`TwoDParallel` (Megatron-style): tensor parallelism inside
  rank blocks, data parallelism across them; :class:`TensorParallel` is
  its one-block case.
- :class:`FullyShardedDataParallel` (ZeRO-3): parameters all-gathered
  per unit before use, gradients reduce-scattered per unit.

Each strategy provides a *memory model* (what fits on a 16 GB V100) and a
*step compiler* (:meth:`ParallelStrategy.compile_step`), which emits a
:class:`repro.plan.StepPlan` — a typed op DAG the generic plan executor
replays on the DES environment.  Bucket scheduling, overlap, and
synchronization structure are therefore plan-construction decisions, not
hand-threaded generator code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..devices.gpu import Precision
from ..plan import PlanBuilder, StepPlan
from ..workloads.layers import ModelGraph
from .precision import PrecisionPolicy

__all__ = [
    "StepCosts",
    "CompileContext",
    "ParallelStrategy",
    "DataParallel",
    "DistributedDataParallel",
    "ShardedDataParallel",
    "PipelineParallel",
    "TensorParallel",
    "TwoDParallel",
    "FullyShardedDataParallel",
    "STRATEGY_REGISTRY",
    "FRAMEWORK_OVERHEAD_BYTES",
    "activation_factor",
]

#: CUDA context + cuDNN/cuBLAS workspaces + allocator fragmentation.
FRAMEWORK_OVERHEAD_BYTES = 3.0e9
#: Autograd keeps saved tensors beyond layer outputs; transformers hold
#: attention probabilities and per-head intermediates, CNNs benefit from
#: in-place activations.  Multipliers on the per-sample activation bytes.
_TRANSFORMER_ACTIVATION_FACTOR = 3.2
_CNN_ACTIVATION_FACTOR = 1.2

#: DDP default gradient bucket size (PyTorch's 25 MB).
DEFAULT_BUCKET_BYTES = 25e6
#: Fraction of backward time after which the first bucket is ready.
_FIRST_BUCKET_FRACTION = 0.25


def activation_factor(model: ModelGraph) -> float:
    """Autograd activation-memory multiplier for a model family."""
    if model.family == "transformer":
        return _TRANSFORMER_ACTIVATION_FACTOR
    return _CNN_ACTIVATION_FACTOR


def _optimizer_state_bytes(model: ModelGraph,
                           policy: PrecisionPolicy) -> float:
    """Unsharded Adam state: an FP32 master copy plus two moments under
    FP16 with master weights, else (weights already FP32) two moments."""
    if policy.compute is Precision.FP16 and policy.master_weights:
        return model.params * 12.0
    return model.params * 8.0


@dataclass(frozen=True)
class StepCosts:
    """Per-rank, per-step analytic costs handed to a strategy."""

    model: ModelGraph
    policy: PrecisionPolicy
    efficiency: float
    batch_per_gpu: int
    #: FLOPs for forward / backward of this rank's micro-batch.
    forward_flops: float
    backward_flops: float
    #: HBM traffic for forward / backward of this rank's micro-batch.
    forward_hbm_bytes: float
    backward_hbm_bytes: float
    #: Gradient bytes on the wire for this replica.
    gradient_bytes: float
    #: Weight bytes at compute precision (all-gather volume for sharded).
    weight_bytes: float
    #: Multiplicative kernel-time noise (sigma of a lognormal).  0 keeps
    #: the simulation fully deterministic; >0 models real-system variance
    #: (clock throttling, cache effects, OS noise) and lets the
    #: straggler-amplification study quantify how collectives propagate
    #: the slowest rank's jitter to everyone.
    jitter: float = 0.0
    #: Seeded RNG backing the jitter (shared across ranks of one job).
    rng: object = None

    @classmethod
    def for_benchmark(cls, model: ModelGraph, policy: PrecisionPolicy,
                      efficiency: float, batch_per_gpu: int,
                      jitter: float = 0.0,
                      seed: int = 0x5EED) -> "StepCosts":
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        fwd = model.forward_flops_per_sample * batch_per_gpu
        bwd = 2.0 * fwd
        hbm = model.hbm_bytes_per_sample(policy.compute) * batch_per_gpu
        rng = None
        if jitter > 0:
            import numpy as np
            rng = np.random.default_rng(seed)
        return cls(
            model=model,
            policy=policy,
            efficiency=efficiency,
            batch_per_gpu=batch_per_gpu,
            forward_flops=fwd,
            backward_flops=bwd,
            forward_hbm_bytes=hbm / 3.0,
            backward_hbm_bytes=2.0 * hbm / 3.0,
            gradient_bytes=policy.gradient_bytes(model),
            weight_bytes=model.weight_bytes(policy.compute),
            jitter=jitter,
            rng=rng,
        )

    def jitter_factor(self) -> float:
        """One multiplicative noise sample (1.0 when jitter is off)."""
        if self.rng is None:
            return 1.0
        return float(self.rng.lognormal(mean=0.0, sigma=self.jitter))


@dataclass
class CompileContext:
    """What a strategy needs to compile one step into a plan."""

    costs: StepCosts
    world_size: int
    accumulation: int = 1
    #: The actual rank GPUs; lets compilers place schedule anchors that
    #: depend on kernel *time* (DDP's bucket readiness points) without
    #: hard-coding a device model.
    gpus: Optional[list] = None

    def backward_seconds(self, rank: int) -> float:
        """Deterministic backward kernel time on this rank's GPU."""
        c = self.costs
        return self.gpus[rank].kernel_time(
            c.backward_flops, c.backward_hbm_bytes, c.policy.compute,
            c.efficiency)


class ParallelStrategy:
    """Base strategy: memory model + step-plan compiler."""

    name = "base"
    #: Whether optimizer state / master weights / gradients are sharded.
    sharded = False

    # -- batch placement ---------------------------------------------------
    def rank_batch(self, global_batch: int, world_size: int) -> int:
        """Samples one rank processes per step (data-parallel default)."""
        if global_batch % world_size != 0:
            raise ValueError(
                f"global batch {global_batch} not divisible by "
                f"world size {world_size}")
        return global_batch // world_size

    def input_ranks(self, world_size: int) -> tuple:
        """Ranks the dataloader must feed (all of them under DP)."""
        return tuple(range(world_size))

    # -- memory model ------------------------------------------------------
    def memory_per_gpu(self, model: ModelGraph, policy: PrecisionPolicy,
                       batch_per_gpu: int, world_size: int) -> float:
        """Bytes of device memory one replica needs."""
        weights = model.weight_bytes(policy.compute)
        grads = model.gradient_bytes(policy.compute)
        opt = _optimizer_state_bytes(model, policy)
        if self.sharded and world_size > 1:
            opt /= world_size
            grads /= world_size
        activations = (model.activation_bytes_per_sample(policy.compute)
                       * batch_per_gpu * activation_factor(model))
        return (FRAMEWORK_OVERHEAD_BYTES + weights + grads + opt
                + activations)

    def max_batch_per_gpu(self, model: ModelGraph, policy: PrecisionPolicy,
                          gpu_memory_bytes: float, world_size: int) -> int:
        """Largest per-GPU batch that fits in device memory."""
        fixed = self.memory_per_gpu(model, policy, 0, world_size)
        free = gpu_memory_bytes - fixed
        # Marginal activation cost of one sample under *this* strategy's
        # memory model (pipeline stages, e.g., hold only their share).
        per_sample = self.memory_per_gpu(model, policy, 1,
                                         world_size) - fixed
        if free <= 0 or per_sample <= 0:
            return 0
        return int(free / per_sample)

    # -- step compiler -----------------------------------------------------
    def compile_step(self, ctx: CompileContext) -> StepPlan:
        """Compile one optimizer step into a :class:`StepPlan`.

        ``ctx.costs`` describes one *micro-batch*; with
        ``ctx.accumulation > 1`` the plan contains that many
        forward/backward passes, synchronizing gradients only on the
        last one (PyTorch's ``no_sync()`` pattern).  The plan starts
        after the rank's H2D input copy has completed.
        """
        raise NotImplementedError

    # -- shared plan fragments ---------------------------------------------
    def _compute_op(self, b: PlanBuilder, rank: int, name: str,
                    costs: StepCosts, flops: float, hbm_bytes: float,
                    deps=()) -> str:
        return b.compute(rank, name, flops=flops, hbm_bytes=hbm_bytes,
                         precision=costs.policy.compute,
                         efficiency=costs.efficiency, jittered=True,
                         deps=deps)

    def _forward_op(self, b, rank, costs, deps=()) -> str:
        return self._compute_op(b, rank, "forward", costs,
                                costs.forward_flops,
                                costs.forward_hbm_bytes, deps)

    def _backward_op(self, b, rank, costs, deps=()) -> str:
        return self._compute_op(b, rank, "backward", costs,
                                costs.backward_flops,
                                costs.backward_hbm_bytes, deps)

    def _optimizer_op(self, b: PlanBuilder, rank: int, costs: StepCosts,
                      deps=(), shard: float = 1.0) -> str:
        params = costs.model.params * shard
        # Adam: read/update weights, master, moments (~20 bytes/param);
        # trivially few FLOPs, so the kernel is HBM-bound.
        return b.compute(rank, "optimizer", flops=5.0 * params,
                         hbm_bytes=20.0 * params,
                         precision=Precision.FP32, efficiency=0.9,
                         deps=deps)

    def _overhead_op(self, b: PlanBuilder, rank: int, costs: StepCosts,
                     deps=()) -> str:
        # PyTorch's per-step framework overhead scales with step length;
        # the executor resolves the elapsed fraction at run time.
        return b.delay(rank, "step-overhead",
                       elapsed_fraction=costs.policy.step_overhead,
                       deps=deps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class DataParallel(ParallelStrategy):
    """Single-process DP: master GPU broadcasts weights and gathers grads."""

    name = "dp"

    def __init__(self, master_rank: int = 0):
        self.master_rank = master_rank

    def compile_step(self, ctx: CompileContext) -> StepPlan:
        costs = ctx.costs
        b = PlanBuilder(f"{self.name}-step", ctx.world_size,
                        meta={"strategy": self.name})
        b.declare_conservation("weights",
                               ctx.world_size * costs.weight_bytes)
        b.declare_conservation("gradients",
                               ctx.world_size * costs.gradient_bytes)
        for rank in range(ctx.world_size):
            # Master replicates parameters to every GPU, every iteration.
            prev = b.collective(rank, "broadcast-wait", "broadcast",
                                costs.weight_bytes, root=self.master_rank,
                                payload="weights")
            for _ in range(ctx.accumulation):
                prev = self._forward_op(b, rank, costs, deps=[prev])
                prev = self._backward_op(b, rank, costs, deps=[prev])
            # All gradients funnel into the master (no overlap in DP).
            prev = b.collective(rank, "grad-reduce", "reduce",
                                costs.gradient_bytes,
                                root=self.master_rank, deps=[prev],
                                payload="gradients")
            if rank == self.master_rank:
                prev = self._optimizer_op(b, rank, costs, deps=[prev])
            # Everyone waits for the master's update before continuing.
            prev = b.barrier(rank, "sync-barrier", deps=[prev])
            self._overhead_op(b, rank, costs, deps=[prev])
        return b.build()


class DistributedDataParallel(ParallelStrategy):
    """DDP: bucketed ring allreduce overlapped with the backward pass."""

    name = "ddp"
    #: Collective the gradient buckets use.
    _bucket_collective = "allreduce"

    def __init__(self, bucket_bytes: float = DEFAULT_BUCKET_BYTES):
        if bucket_bytes <= 0:
            raise ValueError("bucket_bytes must be positive")
        self.bucket_bytes = bucket_bytes

    def _bucket_plan(self, costs: StepCosts,
                     backward_time: float) -> list[tuple[float, float]]:
        """(ready_time, bucket_bytes) pairs across the backward pass."""
        total = costs.gradient_bytes
        n = max(1, math.ceil(total / self.bucket_bytes))
        per = total / n
        plan = []
        for i in range(n):
            frac = _FIRST_BUCKET_FRACTION \
                + (1.0 - _FIRST_BUCKET_FRACTION) * (i + 1) / n
            plan.append((frac * backward_time, per))
        return plan

    def compile_step(self, ctx: CompileContext) -> StepPlan:
        costs = ctx.costs
        b = PlanBuilder(f"{self.name}-step", ctx.world_size,
                        meta={"strategy": self.name,
                              "bucket_bytes": self.bucket_bytes,
                              "buckets": len(self._bucket_plan(
                                  ctx.costs, 1.0))})
        self._declare_conservation(b, ctx)
        for rank in range(ctx.world_size):
            prev = None
            # Accumulation micro-steps run without gradient sync
            # (no_sync()).
            for _ in range(max(0, ctx.accumulation - 1)):
                prev = self._forward_op(b, rank, costs,
                                        deps=[prev] if prev else ())
                prev = self._backward_op(b, rank, costs, deps=[prev])
            fwd = self._forward_op(b, rank, costs,
                                   deps=[prev] if prev else ())
            bwd = self._backward_op(b, rank, costs, deps=[fwd])
            # Bucket i's gradients exist a known fraction into the
            # backward kernel; each bucket's collective is gated on an
            # untraced delay anchored at the same instant backward
            # starts, so the allreduce overlaps the kernel exactly as
            # DDP's autograd hooks make it.
            joins = [bwd]
            backward_time = ctx.backward_seconds(rank)
            for i, (ready, nbytes) in enumerate(
                    self._bucket_plan(costs, backward_time)):
                gate = b.delay(rank, f"bucket{i}-ready", seconds=ready,
                               deps=[fwd], traced=False)
                joins.append(
                    b.collective(rank, "grad-bucket",
                                 self._bucket_collective, nbytes,
                                 deps=[gate], payload="gradients"))
            prev = self._compile_post_sync(b, rank, ctx, deps=joins)
            self._overhead_op(b, rank, costs, deps=[prev])
        return b.build()

    def _declare_conservation(self, b: PlanBuilder,
                              ctx: CompileContext) -> None:
        b.declare_conservation(
            "gradients", ctx.world_size * ctx.costs.gradient_bytes)

    def _compile_post_sync(self, b: PlanBuilder, rank: int,
                           ctx: CompileContext, deps) -> str:
        return self._optimizer_op(b, rank, ctx.costs, deps=deps)


class ShardedDataParallel(DistributedDataParallel):
    """ZeRO-style sharding: reduce-scatter + all-gather, partitioned state."""

    name = "sharded"
    sharded = True
    _bucket_collective = "reduce_scatter"

    def _declare_conservation(self, b: PlanBuilder,
                              ctx: CompileContext) -> None:
        super()._declare_conservation(b, ctx)
        b.declare_conservation(
            "weights", ctx.world_size * ctx.costs.weight_bytes)

    def _compile_post_sync(self, b: PlanBuilder, rank: int,
                           ctx: CompileContext, deps) -> str:
        # Each rank updates only its 1/N shard, then re-materializes the
        # full parameter set via all-gather.
        opt = self._optimizer_op(b, rank, ctx.costs, deps=deps,
                                 shard=1.0 / ctx.world_size)
        return b.collective(rank, "allgather-wait", "all_gather",
                            ctx.costs.weight_bytes, deps=[opt],
                            payload="weights")


class PipelineParallel(ParallelStrategy):
    """GPipe-style pipeline parallelism, expressed purely as a compiler.

    The model's layers are split into one *stage* per GPU; the global
    batch is split into micro-batches that flow through the stages
    (all forwards, then all backwards in reverse — GPipe's schedule, with
    its characteristic (S-1)/(M+S-1) bubble).  Stage-boundary activation
    and gradient hand-offs are explicit :class:`~repro.plan.P2PCopy` ops
    with cross-rank dependencies — nothing here touches the executor,
    which is the point: a scheduling idea is a plan-construction pass.
    """

    name = "pipeline"

    def __init__(self, microbatches: int = 8):
        if microbatches < 1:
            raise ValueError("microbatches must be >= 1")
        self.microbatches = microbatches

    # -- batch placement ---------------------------------------------------
    def rank_batch(self, global_batch: int, world_size: int) -> int:
        """Every sample visits every stage: ranks see the full batch."""
        if global_batch % self.microbatches != 0:
            raise ValueError(
                f"global batch {global_batch} not divisible by "
                f"{self.microbatches} microbatches")
        return global_batch

    def input_ranks(self, world_size: int) -> tuple:
        """Only the first stage ingests data."""
        return (0,)

    # -- memory model ------------------------------------------------------
    def memory_per_gpu(self, model: ModelGraph, policy: PrecisionPolicy,
                       batch_per_gpu: int, world_size: int) -> float:
        """One stage's share: 1/S of weights, grads, optimizer state, and
        of the batch's activations (GPipe stashes every micro-batch's
        activations until its backward, so the full batch's worth is live
        across the pipeline — each stage holding its layers' slice)."""
        stages = max(1, world_size)
        weights = model.weight_bytes(policy.compute)
        grads = model.gradient_bytes(policy.compute)
        opt = _optimizer_state_bytes(model, policy)
        activations = (model.activation_bytes_per_sample(policy.compute)
                       * batch_per_gpu * activation_factor(model))
        return (FRAMEWORK_OVERHEAD_BYTES
                + (weights + grads + opt + activations) / stages)

    # -- step compiler -----------------------------------------------------
    def compile_step(self, ctx: CompileContext) -> StepPlan:
        costs = ctx.costs
        stages = ctx.world_size
        # Accumulation folds into the schedule: it is just more
        # micro-batches through the same pipeline flush.
        mb_total = self.microbatches * ctx.accumulation
        # ``costs`` covers one accumulation micro-batch of the full
        # model; one pipeline micro-batch on one stage is 1/(S*M) of the
        # full-batch work (the accumulation factor cancels).
        f_flops = costs.forward_flops / (stages * self.microbatches)
        f_hbm = costs.forward_hbm_bytes / (stages * self.microbatches)
        b_flops = costs.backward_flops / (stages * self.microbatches)
        b_hbm = costs.backward_hbm_bytes / (stages * self.microbatches)
        samples_mb = (costs.batch_per_gpu * ctx.accumulation) / mb_total
        boundary = _boundary_activation_bytes(costs, samples_mb)

        b = PlanBuilder(f"{self.name}-step", stages,
                        meta={"strategy": self.name,
                              "microbatches": mb_total})
        if stages > 1:
            b.declare_conservation(
                "activations", 2.0 * (stages - 1) * mb_total * boundary)

        # Pass 1: forwards flow down the pipeline; each stage's kernels
        # serialize on its stream, each hand-off gates the next stage.
        fwd: dict = {}
        send_act: dict = {}
        for rank in range(stages):
            prev = None
            for j in range(mb_total):
                deps = [prev] if prev else []
                if rank > 0:
                    deps.append(send_act[rank - 1, j])
                prev = self._compute_op(b, rank, f"forward-mb{j}", costs,
                                        f_flops, f_hbm, deps=deps)
                fwd[rank, j] = prev
                if rank < stages - 1:
                    send_act[rank, j] = b.p2p(
                        rank, f"send-act-mb{j}", rank + 1, boundary,
                        deps=[prev], label="pipe-act",
                        payload="activations")

        # Pass 2: backwards flow back up, last micro-batch first (GPipe);
        # then each stage updates its own 1/S parameter shard.
        send_grad: dict = {}
        for rank in reversed(range(stages)):
            prev = fwd[rank, mb_total - 1]
            for j in reversed(range(mb_total)):
                deps = [prev]
                if rank < stages - 1:
                    deps.append(send_grad[rank + 1, j])
                prev = self._compute_op(b, rank, f"backward-mb{j}", costs,
                                        b_flops, b_hbm, deps=deps)
                if rank > 0:
                    send_grad[rank, j] = b.p2p(
                        rank, f"send-grad-mb{j}", rank - 1, boundary,
                        deps=[prev], label="pipe-grad",
                        payload="activations")
            opt = self._optimizer_op(b, rank, costs, deps=[prev],
                                     shard=1.0 / stages)
            flush = b.barrier(rank, "pipeline-flush", deps=[opt])
            self._overhead_op(b, rank, costs, deps=[flush])
        return b.build()


def _boundary_activation_bytes(costs: StepCosts, samples: float) -> float:
    """Activation bytes of one layer's output for ``samples`` samples —
    what crosses a pipeline stage boundary per micro-batch, and the
    tensor a TP all-gather assembles (and the input broadcast moves):
    per-sample activations spread over the model's depth."""
    model = costs.model
    per_layer = model.activation_bytes_per_sample(
        costs.policy.compute) / max(1, model.depth)
    return per_layer * samples


class TwoDParallel(ParallelStrategy):
    """Tensor x data hybrid over a ``tp_degree x dp`` rank grid.

    World ranks map to a grid: rank ``r`` has tensor coordinate
    ``r % tp_degree`` and data coordinate ``r // tp_degree``.  TP groups
    are *contiguous* rank blocks — on the local chassis those are
    NVLink-adjacent GPUs, so the per-layer activation collectives stay
    on the fast mesh while the lower-volume cross-DP gradient
    all-reduce (1/tp of the gradients per rank) strides across the
    chassis/fleet fabric.  Both flavours are emitted as *grouped*
    plan-IR collectives, each rendezvousing on its own
    sub-communicator; a group of every rank is the world communicator.

    Inside a TP group (Megatron-LM §3) each member holds ``1/tp`` of
    every layer and runs its replica's whole batch slice, which the
    group's leader ingests and broadcasts.  Each of ``layer_groups``
    blocks ends its forward in an **all-gather** of the sharded outputs
    and its backward in an **all-reduce** of the input gradients.
    Weights, grads and optimizer state divide by ``tp``; layer outputs
    stay replicated.
    """

    name = "2d"
    sharded = True

    def __init__(self, tp_degree: int = 2, layer_groups: int = 4):
        if tp_degree < 1:
            raise ValueError("tp_degree must be >= 1")
        if layer_groups < 1:
            raise ValueError("layer_groups must be >= 1")
        self.tp_degree = tp_degree
        self.layer_groups = layer_groups

    # -- the rank grid -----------------------------------------------------
    def _grid(self, world_size: int) -> tuple:
        """``(tp, dp)``: ranks per TP group (``tp_degree=None`` puts
        every rank in one) and the number of TP groups."""
        tp = self.tp_degree or world_size
        if world_size % tp != 0:
            raise ValueError(
                f"world size {world_size} not divisible by tp_degree {tp}")
        return tp, world_size // tp

    def tp_group(self, rank: int, world_size: int) -> tuple:
        """The contiguous TP block this rank belongs to."""
        tp, _ = self._grid(world_size)
        d = rank // tp
        return tuple(range(d * tp, (d + 1) * tp))

    def dp_group(self, rank: int, world_size: int) -> tuple:
        """The strided cross-replica group this rank belongs to."""
        tp, dp = self._grid(world_size)
        return tuple(rank % tp + d * tp for d in range(dp))

    # -- batch placement ---------------------------------------------------
    def rank_batch(self, global_batch: int, world_size: int) -> int:
        """Each DP replica (one TP group) takes its slice of the batch."""
        _, dp = self._grid(world_size)
        if global_batch % dp != 0:
            raise ValueError(f"global batch {global_batch} not divisible "
                             f"by dp degree {dp}")
        return global_batch // dp

    def input_ranks(self, world_size: int) -> tuple:
        """Each TP group's leader ingests its replica's batch slice."""
        tp, dp = self._grid(world_size)
        return tuple(d * tp for d in range(dp))

    # -- memory model ------------------------------------------------------
    def memory_per_gpu(self, model: ModelGraph, policy: PrecisionPolicy,
                       batch_per_gpu: int, world_size: int) -> float:
        tp, _ = self._grid(world_size)
        weights = model.weight_bytes(policy.compute) / tp
        grads = model.gradient_bytes(policy.compute) / tp
        opt = _optimizer_state_bytes(model, policy) / tp
        # Layer outputs are assembled on every rank (replicated); the
        # autograd extras beyond them shard with the weights.
        factor = 1.0 + (activation_factor(model) - 1.0) / tp
        activations = (model.activation_bytes_per_sample(policy.compute)
                       * batch_per_gpu * factor)
        return (FRAMEWORK_OVERHEAD_BYTES + weights + grads + opt
                + activations)

    # -- step compiler -----------------------------------------------------
    def compile_step(self, ctx: CompileContext) -> StepPlan:
        costs = ctx.costs
        world = ctx.world_size
        tp, dp = self._grid(world)
        groups = self.layer_groups
        boundary = _boundary_activation_bytes(costs, costs.batch_per_gpu)
        grad_shard = costs.gradient_bytes / tp
        b = PlanBuilder(f"{self.name}-step", world,
                        meta={"strategy": self.name, "tp_degree": tp,
                              "dp_degree": dp, "layer_groups": groups})
        b.declare_conservation("input", ctx.accumulation * world * boundary)
        b.declare_conservation(
            "activations", ctx.accumulation * world * groups * 2.0 * boundary)
        if dp > 1:
            b.declare_conservation("gradients", world * grad_shard)
        for rank in range(world):
            tgroup = self.tp_group(rank, world)
            prev = None
            for _ in range(ctx.accumulation):
                prev = b.collective(
                    rank, "input-bcast", "broadcast", boundary,
                    root=tgroup[0], group=tgroup,
                    deps=[prev] if prev else (), payload="input")
                for g in range(groups):
                    fwd = self._compute_op(
                        b, rank, f"forward-g{g}", costs,
                        costs.forward_flops / (groups * tp),
                        costs.forward_hbm_bytes / (groups * tp),
                        deps=[prev])
                    # Column-parallel output assembly.
                    prev = b.collective(rank, "act-gather", "all_gather",
                                        boundary, group=tgroup, deps=[fwd],
                                        payload="activations")
                for g in reversed(range(groups)):
                    bwd = self._compute_op(
                        b, rank, f"backward-g{g}", costs,
                        costs.backward_flops / (groups * tp),
                        costs.backward_hbm_bytes / (groups * tp),
                        deps=[prev])
                    # Row-parallel input-gradient reduction.
                    prev = b.collective(rank, "grad-input-reduce",
                                        "allreduce", boundary,
                                        group=tgroup, deps=[bwd],
                                        payload="activations")
            if dp > 1:
                # Average this rank's 1/tp gradient shard across its DP
                # group, after the last TP collective (stream order).
                prev = b.collective(rank, "grad-allreduce", "allreduce",
                                    grad_shard,
                                    group=self.dp_group(rank, world),
                                    deps=[prev], payload="gradients")
            opt = self._optimizer_op(b, rank, costs, deps=[prev],
                                     shard=1.0 / tp)
            self._overhead_op(b, rank, costs, deps=[opt])
        return b.build()


class TensorParallel(TwoDParallel):
    """Megatron-style tensor parallelism: the 2D grid with one TP group.

    Each rank owns its ``1/N`` weight shard outright, so TP moves no
    gradient bytes: its traffic is per-layer activations, which scale
    with batch rather than parameter count.
    """

    name = "tp"
    #: The TP group spans the world, whatever its size.
    tp_degree = None

    def __init__(self, layer_groups: int = 4):
        if layer_groups < 1:
            raise ValueError("layer_groups must be >= 1")
        self.layer_groups = layer_groups


class FullyShardedDataParallel(ParallelStrategy):
    """ZeRO-3-style FSDP: parameters live sharded, gathered per unit.

    The model is split into ``layer_groups`` FSDP *units*.  Parameters,
    gradients, and optimizer state are all sharded ``1/N`` (ZeRO stage
    3); before a unit's forward — and again before its backward, since
    the gathered parameters are freed immediately after use — the full
    unit is re-materialized with an **all-gather**, and each unit's
    backward ends in a **reduce-scatter** that leaves every rank with
    its gradient shard.  The optimizer then updates only the local
    shard; next step's gathers pick up the new parameters, so no
    post-step broadcast is needed.

    Fig. 14-style memory math: per-rank state collapses to
    ``(weights + grads + optimizer) / N`` plus one transiently gathered
    unit (forward's current plus prefetched next), which is what lets
    FSDP run per-GPU batches DDP cannot fit.
    """

    name = "fsdp"
    sharded = True

    def __init__(self, layer_groups: int = 4):
        if layer_groups < 1:
            raise ValueError("layer_groups must be >= 1")
        self.layer_groups = layer_groups

    # -- memory model ------------------------------------------------------
    def memory_per_gpu(self, model: ModelGraph, policy: PrecisionPolicy,
                       batch_per_gpu: int, world_size: int) -> float:
        weights = model.weight_bytes(policy.compute) / world_size
        grads = model.gradient_bytes(policy.compute) / world_size
        opt = _optimizer_state_bytes(model, policy) / world_size
        # Two transiently gathered units: in-use + prefetch.
        transient = 2.0 * model.weight_bytes(policy.compute) \
            / max(1, self.layer_groups)
        activations = (model.activation_bytes_per_sample(policy.compute)
                       * batch_per_gpu * activation_factor(model))
        return (FRAMEWORK_OVERHEAD_BYTES + weights + grads + opt
                + transient + activations)

    # -- step compiler -----------------------------------------------------
    def compile_step(self, ctx: CompileContext) -> StepPlan:
        costs = ctx.costs
        world = ctx.world_size
        groups = self.layer_groups
        unit_weights = costs.weight_bytes / groups
        unit_grads = costs.gradient_bytes / groups
        b = PlanBuilder(f"{self.name}-step", world,
                        meta={"strategy": self.name,
                              "layer_groups": groups})
        # Forward + backward each re-gather every unit, every micro-step.
        b.declare_conservation(
            "weights",
            ctx.accumulation * world * 2.0 * costs.weight_bytes)
        b.declare_conservation(
            "gradients", world * costs.gradient_bytes)
        for rank in range(world):
            prev = None
            for micro in range(ctx.accumulation):
                last = micro == ctx.accumulation - 1
                for g in range(groups):
                    gather = b.collective(
                        rank, f"param-gather-g{g}", "all_gather",
                        unit_weights, deps=[prev] if prev else (),
                        payload="weights")
                    prev = self._compute_op(
                        b, rank, f"forward-g{g}", costs,
                        costs.forward_flops / groups,
                        costs.forward_hbm_bytes / groups, deps=[gather])
                for g in reversed(range(groups)):
                    # Gathered params were freed after forward (ZeRO-3):
                    # re-gather for the backward.
                    gather = b.collective(
                        rank, f"param-regather-g{g}", "all_gather",
                        unit_weights, deps=[prev], payload="weights")
                    prev = self._compute_op(
                        b, rank, f"backward-g{g}", costs,
                        costs.backward_flops / groups,
                        costs.backward_hbm_bytes / groups, deps=[gather])
                    if last:
                        # Sync micro-step: shard the unit's gradients.
                        prev = b.collective(
                            rank, f"grad-scatter-g{g}", "reduce_scatter",
                            unit_grads, deps=[prev], payload="gradients")
            opt = self._optimizer_op(b, rank, costs, deps=[prev],
                                     shard=1.0 / world)
            self._overhead_op(b, rank, costs, deps=[opt])
        return b.build()


#: CLI/harness strategy names -> strategy classes (the full zoo).
STRATEGY_REGISTRY = {
    "dp": DataParallel,
    "ddp": DistributedDataParallel,
    "sharded": ShardedDataParallel,
    "pipeline": PipelineParallel,
    "tp": TensorParallel,
    "2d": TwoDParallel,
    "fsdp": FullyShardedDataParallel,
}
