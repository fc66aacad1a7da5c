"""Bottleneck profiling of benchmark x strategy x backend cells.

Glue between the profiler engine (:mod:`repro.telemetry.profile`) and
the experiment harness: build the same :class:`TrainingJob` a sweep
cell would run, profile it end to end (traced run + plan-level what-if
ceilings), and emit the :class:`BottleneckReport` the paper's Figs.
11/16 narrative reads off — which category dominates the step, and how
much a cheaper fabric/kernel/storage tier could buy.

Two entry points:

- :func:`profile_cell` — the full treatment for one cell (the ``repro
  profile`` command): run the job under the profiler, reconcile against
  ``TrainingResult.total_time``, compute what-if ceilings with true
  fast-path re-evaluation on a throwaway system.
- :func:`bottleneck_labels` — cheap plan-level labels for every cell of
  a Fig. 16-style grid (the ``--profile`` flag on ``fig16`` /
  ``fig16-opt``): one fast-path evaluation + critical-path walk per
  cell, no event-loop simulation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import ComposableSystem
from ..telemetry.profile import (
    SCALE_BUCKETS,
    BottleneckReport,
    profile_plan,
    profile_run,
    what_if,
)

__all__ = ["profile_cell", "bottleneck_labels"]


def profile_cell(benchmark: str, configuration: str, strategy: str = "ddp",
                 sim_steps: Optional[int] = None,
                 plan_passes: Optional[str] = None,
                 what_if_buckets: Sequence[str] = SCALE_BUCKETS,
                 evaluate_what_ifs: bool = True,
                 global_batch: Optional[int] = None,
                 accumulation_steps: int = 1) -> BottleneckReport:
    """Profile one benchmark x strategy x configuration cell fully.

    Runs the cell's training job under the profiler (absolute per-op
    times captured via the executor's completion hook), then computes
    what-if ceilings on the step plan: the relaxation prediction from
    the measured schedule, the Amdahl estimate from the critical-path
    share, and — when ``evaluate_what_ifs`` — a true re-evaluation of
    the rescaled plan on a *throwaway* identical system.  Zeroed buckets
    tie events at one instant and still run on the fast path, which
    mutates no device state, so the buckets share one throwaway system;
    a plan the fast path refuses runs on the executor, which advances
    device state, so the next bucket gets a fresh system.  A bucket no
    op scales re-runs nothing (see :func:`what_if`).
    """
    from ..plan.fastpath import fastpath_schedule

    config = dict(sim_steps=sim_steps, plan_passes=plan_passes,
                  global_batch=global_batch,
                  accumulation_steps=accumulation_steps)
    job = ComposableSystem().job(benchmark, configuration, strategy,
                                 **config)
    plan = job.step_plan
    world = plan.world_size
    # The pure fast path never advances the environment, so the same
    # job can supply the plan-relative base timing and then be run.
    base = fastpath_schedule(plan, job._exec_ctx)
    plan_prof = profile_plan(plan, base, ctx=job._exec_ctx)
    run_prof = profile_run(job)

    what_ifs = []
    eval_ctx = None
    for bucket in what_if_buckets:
        if evaluate_what_ifs and eval_ctx is None:
            eval_ctx = ComposableSystem().job(benchmark, configuration,
                                              strategy,
                                              **config)._exec_ctx
        result = what_if(plan, base, job._exec_ctx, bucket, 0.0,
                         cp_attr=plan_prof.attr,
                         evaluate=evaluate_what_ifs,
                         evaluate_ctx=eval_ctx)
        if result.evaluated_mode == "executor":
            eval_ctx = None  # the executor advanced that system
        what_ifs.append(result)

    return BottleneckReport(
        benchmark=benchmark, strategy=strategy,
        configuration=configuration, world_size=world,
        label=run_prof.label, shares=run_prof.shares,
        plan_profile=plan_prof, run_profile=run_prof,
        what_ifs=what_ifs,
        meta={"sim_steps": job.config.sim_steps,
              "plan_passes": plan_passes,
              "plan_ops": len(plan.ops)})


def bottleneck_labels(configurations: Sequence[str] = ("localGPUs",
                                                       "falconGPUs"),
                      variants=None, benchmark: str = "bert-large",
                      plan_passes: Optional[str] = None) -> dict:
    """Plan-level bottleneck labels for a Fig. 16-style grid.

    For each configuration x variant cell, compile the variant's step
    plan on a fresh system, evaluate it once through the fast path, and
    label it from the critical-path attribution — no event-loop
    simulation, so annotating the whole grid costs milliseconds.
    Returns ``{configuration: {variant: {"label", "shares"}}}``.
    """
    if variants is None:
        from .software_opts import VARIANTS
        variants = VARIANTS
    grid: dict = {}
    for configuration in configurations:
        row: dict = {}
        for variant in variants:
            job = variant.build_job(configuration, plan_passes,
                                    benchmark=benchmark)
            prof = profile_plan(job.step_plan, ctx=job._exec_ctx)
            row[variant.name] = {
                "label": prof.label,
                "shares": {k: round(v, 4)
                           for k, v in prof.shares.items()},
                "makespan_s": prof.makespan,
            }
        grid[configuration] = row
    return grid
