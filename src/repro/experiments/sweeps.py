"""Benchmark x configuration sweeps (paper Figs. 10-15).

Two sweeps cover the evaluation's configuration axes:

- :func:`gpu_config_sweep` — every benchmark on localGPUs / hybridGPUs /
  falconGPUs.  One instrumented run per cell yields Fig. 10 (GPU metrics),
  Fig. 11 (relative training time), Fig. 12 (Falcon PCIe traffic),
  Fig. 13 (CPU utilization), and Fig. 14 (host memory).
- :func:`storage_config_sweep` — every benchmark on localGPUs / localNVMe
  / falconNVMe (all with local GPUs), yielding Fig. 15.

Each sweep returns ``{benchmark: {configuration: ExperimentRecord}}``;
the formatting helpers turn those into the paper's rows.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..workloads import benchmark_names
from .runner import DEFAULT_SIM_STEPS, ExperimentRecord, run_configuration
from .tables import render_table

__all__ = [
    "gpu_config_sweep",
    "storage_config_sweep",
    "GPU_CONFIGS",
    "STORAGE_CONFIGS",
    "relative_time_rows",
    "telemetry_rows",
    "traffic_rows",
]

#: The Fig. 10-14 configuration axis.
GPU_CONFIGS: tuple[str, ...] = ("localGPUs", "hybridGPUs", "falconGPUs")
#: The Fig. 15 configuration axis (GPUs always local).
STORAGE_CONFIGS: tuple[str, ...] = ("localGPUs", "localNVMe", "falconNVMe")


def _sweep(configs: Iterable[str],
           benchmarks: Optional[Iterable[str]] = None,
           sim_steps: int = DEFAULT_SIM_STEPS,
           jobs: Optional[int] = 1, cache=None,
           ) -> dict[str, dict[str, ExperimentRecord]]:
    from .parallel import experiment_cell, record_from_value, run_cells

    keys = list(benchmarks) if benchmarks is not None else benchmark_names()
    configs = list(configs)
    cells = [experiment_cell(key, config, sim_steps=sim_steps)
             for key in keys for config in configs]
    values = run_cells(cells, jobs=jobs, cache=cache)
    out: dict[str, dict[str, ExperimentRecord]] = {}
    flat = iter(values)
    for key in keys:
        out[key] = {config: record_from_value(next(flat))
                    for config in configs}
    return out


def gpu_config_sweep(benchmarks: Optional[Iterable[str]] = None,
                     sim_steps: int = DEFAULT_SIM_STEPS,
                     jobs: Optional[int] = 1, cache=None,
                     ) -> dict[str, dict[str, ExperimentRecord]]:
    """Run the Figs. 10-14 sweep."""
    return _sweep(GPU_CONFIGS, benchmarks, sim_steps, jobs=jobs,
                  cache=cache)


def storage_config_sweep(benchmarks: Optional[Iterable[str]] = None,
                         sim_steps: int = DEFAULT_SIM_STEPS,
                         jobs: Optional[int] = 1, cache=None,
                         ) -> dict[str, dict[str, ExperimentRecord]]:
    """Run the Fig. 15 sweep."""
    return _sweep(STORAGE_CONFIGS, benchmarks, sim_steps, jobs=jobs,
                  cache=cache)


def relative_time_rows(sweep: dict[str, dict[str, ExperimentRecord]],
                       baseline: str = "localGPUs"
                       ) -> list[tuple]:
    """Fig. 11 / Fig. 15 rows: % training-time change vs the baseline."""
    rows = []
    for key, by_config in sweep.items():
        base = by_config[baseline]
        row = [key]
        for config, record in by_config.items():
            if config == baseline:
                continue
            row.append(round(record.pct_change_vs(base), 2))
        rows.append(tuple(row))
    return rows


def telemetry_rows(sweep: dict[str, dict[str, ExperimentRecord]],
                   metric: str) -> list[tuple]:
    """Fig. 10/13/14 rows: one telemetry metric per (benchmark, config)."""
    rows = []
    for key, by_config in sweep.items():
        row = [key]
        for record in by_config.values():
            row.append(round(getattr(record, metric), 2))
        rows.append(tuple(row))
    return rows


def traffic_rows(sweep: dict[str, dict[str, ExperimentRecord]]
                 ) -> list[tuple]:
    """Fig. 12 rows: Falcon GPU-slot traffic (GB/s) per falcon config."""
    rows = []
    for key, by_config in sweep.items():
        row = [key]
        for config, record in by_config.items():
            if config == "localGPUs":
                continue
            row.append(round(record.falcon_gpu_traffic_gbs, 2))
        rows.append(tuple(row))
    return rows
