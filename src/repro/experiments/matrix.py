"""Strategy x model x backend crossover matrix (``repro matrix``).

The paper's Figs. 11/16 compare a *fixed* strategy across backends; the
natural follow-up question is the converse — for each model, which
parallelization strategy wins on each backend, and where does the
winner *flip* between the NVLink-local chassis and the Falcon PCIe
fabric?  This module evaluates the full strategy grid (every entry of
:data:`repro.training.STRATEGY_REGISTRY`) over the benchmark suite on
both backends and reports that crossover frontier.

Strategies do not share one feasible operating point: tensor parallelism
replicates the batch on every rank while FSDP's sharding *frees* memory,
so each (model, strategy) cell first *fits* its own operating point —
the largest global batch (and smallest accumulation factor) whose
micro-batch passes the strategy's device-memory model — and cells are
then compared on **time per sample**, which normalizes away the batch
differences.

Each cell is one unit of work for the memoized parallel harness
(:mod:`repro.experiments.parallel`): fit the operating point, evaluate
the step plan once, and profile that same timing.  The step time is the
plan's makespan, so nothing is trained; re-running the matrix reads
every unchanged cell from the cache.  Each cell also carries its
plan-level story: total collective/P2P payload per step, and the
critical-path attribution (exposed sync seconds, bottleneck label) from
the plan profiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "MATRIX_CONFIGURATIONS",
    "MATRIX_MODELS",
    "SMOKE_MODELS",
    "MatrixCell",
    "MatrixReport",
    "crossover_frontier",
    "format_matrix",
    "plan_comm_bytes",
    "run_matrix",
]

#: Backends compared by the frontier (paper's local vs composed chassis).
MATRIX_CONFIGURATIONS = ("localGPUs", "falconGPUs")

#: Full benchmark suite (paper Table 2).
MATRIX_MODELS = ("mobilenetv2", "resnet50", "yolov5l", "bert-base",
                 "bert-large")

#: Smoke slice: one comm-light and one comm-heavy model is enough to
#: exhibit a backend-dependent winner (asserted by the CI smoke job).
SMOKE_MODELS = ("resnet50", "bert-large")

#: Candidate accumulation factors, preferred order (plan size grows
#: linearly with accumulation, so smaller is better when both fit).
_ACCUMULATIONS = (1, 2, 4, 8)


@dataclass
class MatrixCell:
    """One (backend, model, strategy) evaluation."""

    configuration: str
    benchmark: str
    strategy: str
    fitted: bool
    #: Why the cell was skipped (memory / divisibility), when not fitted.
    reason: Optional[str] = None
    global_batch: Optional[int] = None
    accumulation_steps: int = 1
    step_time: Optional[float] = None
    throughput: Optional[float] = None
    #: The frontier metric: seconds of training per sample.
    time_per_sample: Optional[float] = None
    #: Mean over ranks of the fraction of the step each GPU's compute
    #: stream is busy (profiler ``utilization``), in [0, 1].
    gpu_busy_frac: Optional[float] = None
    #: Total collective + P2P payload in one step plan (all micro-steps).
    comm_bytes_per_step: Optional[float] = None
    #: Critical-path comm seconds (sync time not hidden under compute).
    exposed_comm_s: Optional[float] = None
    label: Optional[str] = None
    shares: dict = field(default_factory=dict)
    plan_ops: Optional[int] = None
    #: Engine that timed the step plan: ``fastpath`` or ``executor``.
    engine: Optional[str] = None

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class MatrixReport:
    """The full grid plus its crossover frontier."""

    configurations: tuple
    models: tuple
    strategies: tuple
    plan_passes: Optional[str]
    cells: list
    #: ``{configuration: {model: winning strategy name}}``.
    frontier: dict
    #: Models whose winner differs between the two backends.
    crossover_models: list

    def cell(self, configuration: str, benchmark: str,
             strategy: str) -> Optional[MatrixCell]:
        for c in self.cells:
            if (c.configuration == configuration
                    and c.benchmark == benchmark
                    and c.strategy == strategy):
                return c
        return None

    def as_dict(self) -> dict:
        return {
            "configurations": list(self.configurations),
            "models": list(self.models),
            "strategies": list(self.strategies),
            "plan_passes": self.plan_passes,
            "cells": [c.as_dict() for c in self.cells],
            "frontier": self.frontier,
            "crossover_models": self.crossover_models,
        }


def plan_comm_bytes(plan) -> float:
    """Total fabric payload (collectives + P2P copies) in one plan."""
    from ..plan import Collective, P2PCopy

    return float(sum(op.bytes for op in plan
                     if isinstance(op, (Collective, P2PCopy))))


def _fit_operating_point(benchmark: str, configuration: str,
                         strategy: str, plan_passes):
    """Largest feasible (global_batch, accumulation) for one cell.

    Walks candidate operating points from the benchmark's native global
    batch downward (halving) and across accumulation factors, and
    accepts the first whose :class:`TrainingJob` actually constructs —
    job construction runs the strategy's divisibility and device-memory
    checks and compiles the step plan, so a returned job is known-good
    and its plan feeds the cell's timing and profile.

    Returns ``(job, global_batch, accumulation, None)`` on success or
    ``(None, None, None, reason)`` when no candidate fits.
    """
    from ..core import ComposableSystem
    from ..workloads import get_benchmark

    native = get_benchmark(benchmark).global_batch
    batches = [native]
    while batches[-1] > 1:
        batches.append(batches[-1] // 2)
    reason = None
    for gb in batches:
        for acc in _ACCUMULATIONS:
            try:
                job = ComposableSystem().job(
                    benchmark, configuration, strategy,
                    plan_passes=plan_passes,
                    global_batch=gb, accumulation_steps=acc)
            except (ValueError, MemoryError) as exc:
                if reason is None:
                    reason = str(exc)
                continue
            return job, gb, acc, None
    return None, None, None, reason or "no feasible operating point"


def evaluate_cell(benchmark: str, configuration: str, strategy: str,
                  plan_passes) -> dict:
    """One matrix cell as JSON scalars: the :class:`MatrixCell` fields.

    Fits the operating point, evaluates the step plan once and profiles
    that timing.  The executor of the harness's ``matrix`` cells.
    """
    from ..plan.fastpath import evaluate_plan
    from ..telemetry.profile import profile_plan

    value = {"configuration": configuration, "benchmark": benchmark,
             "strategy": strategy}
    job, gb, acc, reason = _fit_operating_point(
        benchmark, configuration, strategy, plan_passes)
    if job is None:
        return {**value, "fitted": False, "reason": reason}
    plan = job.step_plan
    timing = evaluate_plan(plan, job._exec_ctx)
    prof = profile_plan(plan, timing, ctx=job._exec_ctx)
    throughput = gb / timing.makespan
    busy = [prof.utilization[f"gpu:r{rank}"]["busy_frac"]
            for rank in range(plan.world_size)]
    return {
        **value, "fitted": True,
        "global_batch": gb, "accumulation_steps": acc,
        "step_time": timing.makespan, "throughput": throughput,
        "time_per_sample": 1.0 / throughput,
        "gpu_busy_frac": sum(busy) / len(busy),
        "comm_bytes_per_step": plan_comm_bytes(plan),
        "exposed_comm_s": prof.attr.seconds.get("comm", 0.0),
        "label": prof.label,
        "shares": {k: round(v, 4) for k, v in prof.shares.items()},
        "plan_ops": len(plan.ops),
        "engine": timing.mode,
    }


def crossover_frontier(cells: Sequence[MatrixCell],
                       configurations: Sequence[str]) -> tuple:
    """Winner per (configuration, model) and the models that flip.

    Returns ``(frontier, crossover_models)`` where the winner minimizes
    time per sample among that model's fitted cells on that backend.
    """
    frontier: dict = {}
    for cell in cells:
        if not cell.fitted or cell.time_per_sample is None:
            continue
        row = frontier.setdefault(cell.configuration, {})
        best = row.get(cell.benchmark)
        if best is None or cell.time_per_sample < best[1]:
            row[cell.benchmark] = (cell.strategy, cell.time_per_sample)
    winners = {cfg: {model: entry[0] for model, entry in row.items()}
               for cfg, row in frontier.items()}
    crossover = []
    if len(configurations) >= 2:
        first, second = configurations[0], configurations[1]
        left = winners.get(first, {})
        right = winners.get(second, {})
        crossover = sorted(model for model in left
                           if model in right
                           and left[model] != right[model])
    return winners, crossover


def run_matrix(models: Sequence[str] = MATRIX_MODELS,
               strategies: Optional[Sequence[str]] = None,
               configurations: Sequence[str] = MATRIX_CONFIGURATIONS,
               plan_passes: Optional[str] = None,
               jobs: Optional[int] = 1,
               cache=None) -> MatrixReport:
    """Evaluate the strategy x model grid on each backend.

    ``strategies`` defaults to every registered strategy.  ``cache`` and
    ``jobs`` plug into :func:`repro.experiments.run_cells` exactly as
    the figure studies do: each (backend, model, strategy) is one
    ``matrix`` cell.
    """
    from ..training import STRATEGY_REGISTRY
    from .parallel import matrix_cell, run_cells

    if strategies is None:
        strategies = tuple(STRATEGY_REGISTRY)
    unknown = [s for s in strategies if s not in STRATEGY_REGISTRY]
    if unknown:
        raise ValueError(f"unknown strategies {unknown!r}; "
                         f"one of {tuple(STRATEGY_REGISTRY)}")

    grid = [matrix_cell(model, configuration, strategy, plan_passes)
            for configuration in configurations
            for model in models
            for strategy in strategies]
    cells = [MatrixCell(**value)
             for value in run_cells(grid, jobs=jobs, cache=cache)]
    frontier, crossover = crossover_frontier(cells, configurations)
    return MatrixReport(
        configurations=tuple(configurations), models=tuple(models),
        strategies=tuple(strategies), plan_passes=plan_passes,
        cells=cells, frontier=frontier, crossover_models=crossover)


def format_matrix(report: MatrixReport) -> str:
    """Human-readable grid: one table per backend, then the frontier."""
    lines: list = []
    for configuration in report.configurations:
        lines.append(f"== {configuration} ==")
        header = (f"{'model':<13} {'strategy':<9} {'batch':>6} "
                  f"{'acc':>3} {'step(s)':>9} {'s/sample':>10} "
                  f"{'comm GB':>8} {'sync(s)':>8}  label")
        lines.append(header)
        for model in report.models:
            for strategy in report.strategies:
                cell = report.cell(configuration, model, strategy)
                if cell is None:
                    continue
                if not cell.fitted:
                    lines.append(f"{model:<13} {strategy:<9} "
                                 f"{'—':>6} {'—':>3}   (skipped: "
                                 f"{cell.reason})")
                    continue
                tps = f"{cell.time_per_sample * 1e3:.3f}ms"
                lines.append(
                    f"{model:<13} {strategy:<9} "
                    f"{cell.global_batch:>6} {cell.accumulation_steps:>3} "
                    f"{cell.step_time:>9.4f} {tps:>10} "
                    f"{cell.comm_bytes_per_step / 1e9:>8.2f} "
                    f"{cell.exposed_comm_s:>8.4f}  {cell.label}")
        lines.append("")
    lines.append("-- crossover frontier (winner by time/sample) --")
    for model in report.models:
        winners = [report.frontier.get(cfg, {}).get(model, "—")
                   for cfg in report.configurations]
        flip = "  <-- crossover" if model in report.crossover_models \
            else ""
        pairs = ", ".join(f"{cfg}: {w}" for cfg, w
                          in zip(report.configurations, winners))
        lines.append(f"{model:<13} {pairs}{flip}")
    return "\n".join(lines)
