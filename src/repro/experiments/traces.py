"""GPU-utilization traces over full runs (paper Fig. 9).

The paper's Fig. 9 plots each benchmark's GPU utilization across its
(truncated) training run on the local-GPU configuration, showing a
repeating high-utilization pattern with sharp periodic dips attributed to
synchronization and checkpointing.  This module runs each benchmark with
several checkpoints and returns the sampled utilization trace, plus
helpers to detect the dips programmatically.

The tracer is two-phase: one evaluation of the job's step plan gives
the steady step time, then the run samples at one-step granularity —
the paper's wandb sampling is similarly coarse relative to a step, which
is what makes the plateau smooth and the checkpoint dips sharp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core import ComposableSystem
from ..plan.fastpath import evaluate_plan
from ..training import DistributedDataParallel

if TYPE_CHECKING:
    import numpy as np

__all__ = ["UtilizationTrace", "gpu_utilization_trace", "count_dips"]


@dataclass
class UtilizationTrace:
    """Mean-across-GPUs utilization samples for one benchmark run."""

    benchmark: str
    times: np.ndarray
    utilization: np.ndarray  # percent

    @property
    def mean(self) -> float:
        """Whole-run mean (checkpoint dips included)."""
        import numpy as np
        return float(np.nanmean(self.utilization))

    @property
    def plateau_mean(self) -> float:
        """Mean of the high-utilization plateau (samples above half the
        peak) — the level the paper's Fig. 9 curves sit at between dips."""
        import numpy as np
        values = self.utilization[~np.isnan(self.utilization)]
        if values.size == 0:
            return float("nan")
        threshold = 0.5 * values.max()
        plateau = values[values >= threshold]
        return float(plateau.mean()) if plateau.size else float("nan")

    @property
    def peak(self) -> float:
        import numpy as np
        return float(np.nanmax(self.utilization))


def _probe_step_time(benchmark: str, configuration: str) -> float:
    """The DDP step time: one evaluation of the job's step plan."""
    job = ComposableSystem().job(benchmark, configuration,
                                 DistributedDataParallel())
    return evaluate_plan(job.step_plan, job._exec_ctx).makespan


def gpu_utilization_trace(benchmark: str, configuration: str = "localGPUs",
                          sim_steps: int = 30, sim_checkpoints: int = 3,
                          sample_interval: float | None = None
                          ) -> UtilizationTrace:
    """Train with periodic checkpoints and return the utilization trace.

    ``sample_interval=None`` (default) samples at one-step granularity,
    the makespan of one step-plan evaluation.
    """
    if sample_interval is None:
        sample_interval = max(1e-3, _probe_step_time(benchmark,
                                                     configuration))
    system = ComposableSystem()
    result = system.train(
        benchmark,
        configuration=configuration,
        strategy=DistributedDataParallel(),
        sim_steps=sim_steps,
        sim_checkpoints=sim_checkpoints,
        sample_interval=sample_interval,
    )
    import numpy as np
    series = list(result.collector.gpu_util.values())
    grid = series[0].times
    stacked = np.vstack([ts.resample(grid) for ts in series])
    mean_util = np.nanmean(stacked, axis=0)
    return UtilizationTrace(benchmark=benchmark, times=grid,
                            utilization=mean_util)


def count_dips(trace: UtilizationTrace, drop_below: float = 40.0,
               recover_above: float = 60.0) -> int:
    """Count sharp utilization dips (checkpoint/synchronization stalls).

    A dip is a fall below ``drop_below`` percent after having been above
    ``recover_above`` (hysteresis avoids double-counting noise).
    """
    import numpy as np
    dips = 0
    armed = False
    for value in trace.utilization:
        if np.isnan(value):
            continue
        if value >= recover_above:
            armed = True
        elif value <= drop_below and armed:
            dips += 1
            armed = False
    return dips
