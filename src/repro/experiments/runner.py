"""Experiment runner: one fully-instrumented training run per record.

A single :func:`run_configuration` call builds a fresh
:class:`~repro.core.ComposableSystem`, trains a benchmark on one Table III
configuration, and extracts everything the paper's evaluation reports for
that cell — training-time estimates (Figs. 11/15), GPU/CPU/memory
telemetry (Figs. 10/13/14), and Falcon PCIe slot traffic (Fig. 12) — so a
sweep over (benchmark x configuration) regenerates several figures from
the same runs, exactly as the paper's single instrumented runs did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core import ComposableSystem
from ..fabric.link import GB
from ..training import (
    AMP_POLICY,
    ParallelStrategy,
    PrecisionPolicy,
    TrainingResult,
)

__all__ = ["ExperimentRecord", "run_configuration"]

#: Default simulated optimizer steps per run (steady-state statistics).
DEFAULT_SIM_STEPS = 10


def _windowed_mean(metric_fn, windows: list[tuple[float, float]]) -> float:
    """Span-weighted mean of a collector metric over steady windows.

    NaN windows (e.g. spans shorter than the sampling interval) are
    skipped so a single empty window does not poison the mean.
    """
    import math
    total = 0.0
    weight = 0.0
    for t0, t1 in windows:
        value = metric_fn(t0, t1)
        if not math.isnan(value) and t1 > t0:
            total += value * (t1 - t0)
            weight += t1 - t0
    return total / weight if weight else float("nan")


@dataclass
class ExperimentRecord:
    """Everything the paper reports for one (benchmark, configuration)."""

    benchmark: str
    configuration: str
    strategy: str
    policy: str
    global_batch: int
    #: Training-time estimates.
    step_time: float
    epoch_time: float
    total_time: float
    throughput: float
    checkpoint_time: float
    staging_overhead: float
    #: Telemetry means over the measurement window (percent).
    gpu_utilization: float
    gpu_memory: float
    gpu_mem_access: float
    cpu_utilization: float
    host_memory: float
    #: Falcon GPU-slot traffic over the window (GB/s, ingress+egress
    #: summed across falcon-attached GPUs) — the paper's Fig. 12 metric.
    falcon_gpu_traffic_gbs: float
    result: TrainingResult = field(repr=False)

    def pct_change_vs(self, baseline: "ExperimentRecord") -> float:
        """Percentage change of total training time vs a baseline run."""
        return 100.0 * (self.total_time / baseline.total_time - 1.0)


def run_configuration(benchmark: str, configuration: str,
                      strategy: Optional[ParallelStrategy] = None,
                      policy: PrecisionPolicy = AMP_POLICY,
                      global_batch: Optional[int] = None,
                      sim_steps: int = DEFAULT_SIM_STEPS,
                      sim_checkpoints: int = 1,
                      **train_kwargs) -> ExperimentRecord:
    """Run one benchmark on one configuration and collect all metrics.

    Extra keyword arguments (e.g. ``plan_passes``, ``accumulation_steps``)
    are forwarded verbatim into the :class:`TrainingConfig`.  Memoized
    grids go through :func:`~repro.experiments.parallel.run_cells`.
    """
    system = ComposableSystem()
    result = system.train(
        benchmark,
        configuration=configuration,
        strategy=strategy,
        policy=policy,
        global_batch=global_batch,
        sim_steps=sim_steps,
        sim_checkpoints=sim_checkpoints,
        **train_kwargs,
    )
    return experiment_record(system, benchmark, configuration, result)


def experiment_record(system: ComposableSystem, benchmark: str,
                      configuration: str,
                      result: TrainingResult) -> ExperimentRecord:
    """The record of a finished run of ``benchmark`` on ``system``."""
    collector = result.collector
    windows = result.steady_windows()
    span_total = sum(t1 - t0 for t0, t1 in windows)

    falcon_gpus = [g.name for g in result.gpus
                   if g.name.startswith(system.falcon.name)]
    if falcon_gpus and span_total > 0:
        moved = 0.0
        for t0, t1 in windows:
            ingress, egress = system.falcon.total_device_traffic(
                t0, t1, devices=falcon_gpus)
            moved += (ingress + egress) * (t1 - t0)
        falcon_traffic = moved / span_total / GB
    else:
        falcon_traffic = 0.0

    return ExperimentRecord(
        benchmark=benchmark,
        configuration=configuration,
        strategy=result.strategy_name,
        policy=result.policy_name,
        global_batch=result.global_batch,
        step_time=result.step_time,
        epoch_time=result.epoch_time,
        total_time=result.total_time,
        throughput=result.throughput,
        checkpoint_time=result.checkpoint_time,
        staging_overhead=result.staging_overhead,
        gpu_utilization=_windowed_mean(collector.mean_gpu_utilization,
                                       windows),
        gpu_memory=_windowed_mean(collector.mean_gpu_memory, windows),
        gpu_mem_access=_windowed_mean(collector.mean_gpu_mem_access,
                                      windows),
        cpu_utilization=_windowed_mean(collector.mean_cpu_utilization,
                                       windows),
        host_memory=_windowed_mean(collector.mean_host_memory, windows),
        falcon_gpu_traffic_gbs=falcon_traffic,
        result=result,
    )
