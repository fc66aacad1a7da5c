"""Software-level optimization study on BERT-large (paper Fig. 16).

Reproduces §V-C.4: BERT-large SQuAD fine-tuning under

- ``DP-FP32`` — single-process DataParallel, FP32 (the naive baseline;
  batch capped at 2/GPU by FP32 activations + full optimizer state),
- ``DP-FP16`` — DataParallel with mixed precision (batch back to 6/GPU),
- ``DDP-FP32`` — DistributedDataParallel, FP32,
- ``DDP-FP16`` — the default used everywhere else in the paper,
- ``Sharded-FP16`` — ZeRO-style sharding; optimizer-state partitioning
  lifts the per-GPU batch from 6 to 10 (global 48 -> 80),

on both the localGPUs and falconGPUs configurations.  Speedups are
reported as training-time reduction per sample (throughput ratios), the
way the paper summarizes them ("mixed precision provides ... more than
50% in all cases and more than 70% in the case of Falcon-attached GPUs").

The extension past the paper, :func:`optimized_ddp_study` (``repro
fig16-opt``), re-evaluates the falconGPUs DDP-FP16 cell under each
optimizing plan-pass pipeline and reports its step time and exposed
gradient sync.  Like the Fig. 16 grid, every number comes from one
step-plan evaluation per cell; only the optional Chrome-trace export
runs a training job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..training import (
    AMP_POLICY,
    DataParallel,
    DistributedDataParallel,
    FP32_POLICY,
    PipelineParallel,
    ShardedDataParallel,
)

__all__ = ["OptVariant", "VARIANTS", "software_optimization_study",
           "time_reduction_pct", "OptimizedProfile", "OptimizedDDPStudy",
           "OPT_PIPELINES", "optimized_ddp_study"]


@dataclass(frozen=True)
class OptVariant:
    """One bar of Fig. 16."""

    name: str
    strategy_factory: type
    policy: object
    global_batch: int

    def build_job(self, configuration: str, plan_passes=None,
                  benchmark: str = "bert-large"):
        """This variant's un-run TrainingJob on a fresh system."""
        from ..core import ComposableSystem
        return ComposableSystem().job(benchmark, configuration,
                                      self.strategy_factory(), self.policy,
                                      global_batch=self.global_batch,
                                      plan_passes=plan_passes)


#: FP32 batches are memory-capped (FP32 activations + 8-byte/param
#: optimizer state); FP16 variants run the paper's 48; sharded runs 80
#: (10 per GPU, paper §V-C.4).  Pipeline-FP16 extends the study past the
#: paper: GPipe-style stage parallelism at the paper's batch, compiled to
#: the same plan IR and executed by the same generic executor as the
#: data-parallel variants.
VARIANTS: tuple[OptVariant, ...] = (
    OptVariant("DP-FP32", DataParallel, FP32_POLICY, 16),
    OptVariant("DP-FP16", DataParallel, AMP_POLICY, 48),
    OptVariant("DDP-FP32", DistributedDataParallel, FP32_POLICY, 16),
    OptVariant("DDP-FP16", DistributedDataParallel, AMP_POLICY, 48),
    OptVariant("Sharded-FP16", ShardedDataParallel, AMP_POLICY, 80),
    OptVariant("Pipeline-FP16", PipelineParallel, AMP_POLICY, 48),
)


def software_optimization_study(configurations=("localGPUs", "falconGPUs"),
                                jobs: Optional[int] = 1, cache=None,
                                variants=None,
                                ) -> dict[str, dict[str, float]]:
    """Per-configuration seconds-per-sample for every Fig. 16 variant.

    Returns ``{configuration: {variant: time_per_sample_seconds}}`` —
    time per sample is the epoch-time proxy (fine-tuning runs a fixed
    sample count, so per-sample time ratios equal training-time ratios).

    Each cell is one evaluation of the variant's step plan (a
    :func:`~repro.experiments.parallel.step_cell`), not a training run:
    the steady-state step time is the plan's makespan.  ``jobs``/
    ``cache`` fan the grid out across processes and memoize cells on
    disk (see :mod:`repro.experiments.parallel`).
    """
    from .parallel import run_cells, step_cell

    configurations = list(configurations)
    variants = list(variants) if variants is not None else list(VARIANTS)
    cells = [
        step_cell(
            "bert-large", config,
            strategy=variant.strategy_factory(),
            policy=variant.policy,
            global_batch=variant.global_batch)
        for config in configurations for variant in variants
    ]
    values = run_cells(cells, jobs=jobs, cache=cache)
    out: dict[str, dict[str, float]] = {}
    flat = iter(values)
    for config in configurations:
        out[config] = {variant.name:
                       next(flat)["step_time"] / variant.global_batch
                       for variant in variants}
    return out


def time_reduction_pct(slow: float, fast: float) -> float:
    """Training-time reduction (%) going from ``slow`` to ``fast``."""
    return 100.0 * (1.0 - fast / slow)


# -- the optimized-plan extension of Fig. 16 --------------------------------

#: Pipelines the optimized study compares (name -> ``plan_passes`` spec).
OPT_PIPELINES: tuple[tuple[str, Optional[str]], ...] = (
    ("none", None),
    ("bucketing+overlap", "bucketing,overlap"),
    ("all", "all"),
)


@dataclass
class OptimizedProfile:
    """One pass pipeline's measured DDP profile."""

    pipeline: str
    #: Steady-state seconds per optimizer step.
    step_time: float
    #: Exposed (non-overlapped) sync seconds per step on rank 0: the
    #: ``exposed-sync`` span time a traced run of the step plan emits,
    #: computed from plan timing by
    #: :func:`~repro.plan.executor.exposed_comm_seconds`.
    exposed_sync: float
    #: Seconds per sample (the Fig. 16 metric).
    time_per_sample: float


@dataclass
class OptimizedDDPStudy:
    """The software_opts variant the plan passes add: optimized DDP.

    Runs BERT-large DDP-FP16 on Falcon-attached GPUs under each pass
    pipeline and measures how much of the exposed gradient-sync time the
    optimizing plan layer recovers — the same lever Fig. 16 pulls with
    bucketing/FP16, now applied as explicit plan rewrites.
    """

    benchmark: str
    configuration: str
    profiles: dict[str, OptimizedProfile] = field(default_factory=dict)
    trace_path: Optional[str] = None

    @property
    def baseline(self) -> OptimizedProfile:
        return self.profiles["none"]

    def sync_reduction_pct(self, pipeline: str) -> float:
        """Exposed-sync reduction of ``pipeline`` vs the no-pass plan."""
        base = self.baseline.exposed_sync
        if base <= 0:
            return 0.0
        return time_reduction_pct(base, self.profiles[pipeline].exposed_sync)

    def step_reduction_pct(self, pipeline: str) -> float:
        """Step-time reduction of ``pipeline`` vs the no-pass plan."""
        return time_reduction_pct(self.baseline.step_time,
                                  self.profiles[pipeline].step_time)


def optimized_ddp_study(benchmark: str = "bert-large",
                        configuration: str = "falconGPUs",
                        sim_steps: int = 6,
                        pipelines=OPT_PIPELINES,
                        trace_out: Optional[str] = None,
                        jobs: Optional[int] = 1, cache=None,
                        ) -> OptimizedDDPStudy:
    """Measure the optimizing plan passes on the Falcon DDP gap.

    Each pipeline is one :func:`~repro.experiments.parallel.step_cell`
    (``jobs``/``cache`` fan out and memoize them): one evaluation of
    the DDP-FP16 step plan gives the step time, and the executor's
    overlap arithmetic on those op times gives the exposed sync.  The
    ``none`` pipeline is Fig. 16's DDP-FP16 cell and shares its cache
    entry.  Nothing trains unless ``trace_out`` is set: then the *last*
    — most optimized — pipeline also runs ``sim_steps`` live steps with
    a wired tracer so its Chrome trace can be exported (that run
    bypasses the cache: spans are not cacheable scalars).
    """
    from .parallel import run_cells, step_cell

    pipelines = list(pipelines)
    global_batch = next(v.global_batch for v in VARIANTS
                        if v.name == "DDP-FP16")
    study = OptimizedDDPStudy(benchmark=benchmark,
                              configuration=configuration)
    cells = [step_cell(benchmark, configuration,
                       strategy=DistributedDataParallel(),
                       policy=AMP_POLICY, global_batch=global_batch,
                       **({} if spec is None else {"plan_passes": spec}))
             for _name, spec in pipelines]
    values = run_cells(cells, jobs=jobs, cache=cache)
    for (name, _spec), value in zip(pipelines, values):
        study.profiles[name] = OptimizedProfile(
            pipeline=name,
            step_time=value["step_time"],
            exposed_sync=value["exposed_sync"],
            time_per_sample=value["step_time"] / global_batch)
    if trace_out and pipelines:
        from ..telemetry import write_chrome_trace
        from .tracing import traced_run
        name, spec = pipelines[-1]
        run = traced_run(
            benchmark, configuration, sim_steps=sim_steps,
            strategy=DistributedDataParallel(), policy=AMP_POLICY,
            plan_passes=spec)
        study.trace_path = str(write_chrome_trace(run.tracer, trace_out))
    return study
