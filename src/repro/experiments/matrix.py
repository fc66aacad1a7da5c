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

Cells run through the memoized parallel harness
(:mod:`repro.experiments.parallel`), so re-running the matrix after a
code change only recomputes what changed.  Each cell also carries its
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
    gpu_utilization: Optional[float] = None
    #: Total collective + P2P payload in one step plan (all micro-steps).
    comm_bytes_per_step: Optional[float] = None
    #: Critical-path comm seconds (sync time not hidden under compute).
    exposed_comm_s: Optional[float] = None
    label: Optional[str] = None
    shares: dict = field(default_factory=dict)
    plan_ops: Optional[int] = None

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class MatrixReport:
    """The full grid plus its crossover frontier."""

    configurations: tuple
    models: tuple
    strategies: tuple
    sim_steps: int
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
            "sim_steps": self.sim_steps,
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
                         strategy: str, sim_steps: int,
                         plan_passes: Optional[str]):
    """Largest feasible (global_batch, accumulation) for one cell.

    Walks candidate operating points from the benchmark's native global
    batch downward (halving) and across accumulation factors, and
    accepts the first whose :class:`TrainingJob` actually constructs —
    job construction runs the strategy's divisibility and device-memory
    checks and compiles the step plan, so a returned job is known-good
    and its plan feeds the cell's comm/critical-path statistics.

    Returns ``(job, global_batch, accumulation, None)`` on success or
    ``(None, None, None, reason)`` when no candidate fits.
    """
    from ..core import ComposableSystem
    from ..workloads import get_benchmark

    native = get_benchmark(benchmark).global_batch
    batches = []
    gb = native
    while gb >= 1:
        batches.append(gb)
        if gb == 1:
            break
        gb = max(1, gb // 2)
    reason = None
    for gb in batches:
        for acc in _ACCUMULATIONS:
            try:
                job = ComposableSystem().job(
                    benchmark, configuration, strategy,
                    sim_steps=sim_steps, plan_passes=plan_passes,
                    global_batch=gb, accumulation_steps=acc)
            except (ValueError, MemoryError) as exc:
                if reason is None:
                    reason = str(exc)
                continue
            return job, gb, acc, None
    return None, None, None, reason or "no feasible operating point"


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
               sim_steps: int = 6,
               plan_passes: Optional[str] = None,
               jobs: int = 1,
               cache=None,
               progress=None) -> MatrixReport:
    """Evaluate the strategy x model grid on each backend.

    ``strategies`` defaults to every registered strategy.  ``cache`` and
    ``jobs`` plug into :func:`repro.experiments.run_cells` exactly as
    the figure studies do; ``progress`` is an optional callable fed one
    line per fitted/skipped cell.
    """
    from ..telemetry.profile import profile_plan
    from ..training import STRATEGY_REGISTRY
    from .parallel import experiment_cell, record_from_value, run_cells

    if strategies is None:
        strategies = tuple(STRATEGY_REGISTRY)
    unknown = [s for s in strategies if s not in STRATEGY_REGISTRY]
    if unknown:
        raise ValueError(f"unknown strategies {unknown!r}; "
                         f"one of {tuple(STRATEGY_REGISTRY)}")

    say = progress if progress is not None else (lambda line: None)
    cells: list = []
    runnable: list = []   # (index into cells, harness cell dict)
    for configuration in configurations:
        for model in models:
            for strategy in strategies:
                job, gb, acc, reason = _fit_operating_point(
                    model, configuration, strategy, sim_steps,
                    plan_passes)
                if job is None:
                    cells.append(MatrixCell(
                        configuration=configuration, benchmark=model,
                        strategy=strategy, fitted=False, reason=reason))
                    say(f"skip {configuration}/{model}/{strategy}: "
                        f"{reason}")
                    continue
                plan = job.step_plan
                prof = profile_plan(plan, ctx=job._exec_ctx)
                cell = MatrixCell(
                    configuration=configuration, benchmark=model,
                    strategy=strategy, fitted=True,
                    global_batch=gb, accumulation_steps=acc,
                    comm_bytes_per_step=plan_comm_bytes(plan),
                    exposed_comm_s=prof.attr.seconds.get("comm", 0.0),
                    label=prof.label,
                    shares={k: round(v, 4)
                            for k, v in prof.shares.items()},
                    plan_ops=len(plan.ops))
                cells.append(cell)
                harness_cell = experiment_cell(
                    model, configuration,
                    strategy=STRATEGY_REGISTRY[strategy](),
                    global_batch=gb, sim_steps=sim_steps,
                    accumulation_steps=acc, plan_passes=plan_passes)
                runnable.append((len(cells) - 1, harness_cell))
                say(f"fit  {configuration}/{model}/{strategy}: "
                    f"batch {gb} x acc {acc}")

    values = run_cells([c for _i, c in runnable], jobs=jobs, cache=cache)
    for (index, _cell), value in zip(runnable, values):
        record = record_from_value(value)
        cell = cells[index]
        cell.step_time = record.step_time
        cell.throughput = record.throughput
        cell.time_per_sample = (1.0 / record.throughput
                                if record.throughput else None)
        cell.gpu_utilization = record.gpu_utilization

    frontier, crossover = crossover_frontier(cells, configurations)
    return MatrixReport(
        configurations=tuple(configurations), models=tuple(models),
        strategies=tuple(strategies), sim_steps=sim_steps,
        plan_passes=plan_passes, cells=cells, frontier=frontier,
        crossover_models=crossover)


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
                step = (f"{cell.step_time:.4f}"
                        if cell.step_time is not None else "—")
                tps = (f"{cell.time_per_sample * 1e3:.3f}ms"
                       if cell.time_per_sample is not None else "—")
                comm = f"{cell.comm_bytes_per_step / 1e9:.2f}"
                sync = f"{cell.exposed_comm_s:.4f}"
                lines.append(
                    f"{model:<13} {strategy:<9} "
                    f"{cell.global_batch:>6} {cell.accumulation_steps:>3} "
                    f"{step:>9} {tps:>10} {comm:>8} {sync:>8}  "
                    f"{cell.label}")
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
