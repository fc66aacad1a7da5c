"""Performance benchmark suite for the simulator itself.

Two scenarios track the perf trajectory of the reproduction:

- **plan_eval** — sim-steps/second evaluating one compiled step plan,
  fast path vs the event-loop executor, per (configuration × strategy
  variant).  This is the microbenchmark for the
  :mod:`repro.plan.fastpath` engine.
- **fig16_grid** — wall-clock seconds to produce the Fig. 16
  seconds-per-sample grid: training every cell through the full DES
  (the pre-fastpath study) vs the Fig. 16 study, which evaluates each
  cell's step plan once.  Training steps are deterministic and
  identical, so both give the same grid values — the benchmark
  verifies that while it measures.

``python -m repro perfbench [--smoke] [--jobs N]`` runs both and writes
``BENCH_<date>.json`` at the current working directory (the repo root in
CI), so perf regressions show up as a diffable artifact.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Optional

from ..plan.fastpath import _executor_timing, fastpath_schedule

__all__ = ["run_perfbench", "write_bench_report", "bench_plan_eval",
           "bench_fig16_grid", "bench_flow_churn", "collect_provenance"]

#: (config, variant-name) cells used in smoke mode: the cheap end of the
#: grid plus one contended falcon cell, enough to exercise both engines.
_SMOKE_VARIANTS = ("DP-FP16", "DDP-FP16", "Pipeline-FP16")


def _grid_variants(smoke: bool):
    from .software_opts import VARIANTS
    if smoke:
        return tuple(v for v in VARIANTS if v.name in _SMOKE_VARIANTS)
    return VARIANTS


def _grid_configs(smoke: bool):
    return ("localGPUs",) if smoke else ("localGPUs", "falconGPUs")


def bench_plan_eval(smoke: bool = False, reps: int = 3) -> list[dict]:
    """Steps/second per cell: fast path vs event-loop executor.

    The fast path is pure, so it re-evaluates the same job's plan each
    rep; the executor leg replays the plan on the same live environment,
    exactly as the training loop replays it step after step.
    """
    rows = []
    for config in _grid_configs(smoke):
        for variant in _grid_variants(smoke):
            job = variant.build_job(config)
            t0 = time.perf_counter()
            for _ in range(reps):
                timing = fastpath_schedule(job.step_plan, job._exec_ctx)
            fast_s = (time.perf_counter() - t0) / reps

            job = variant.build_job(config)
            t0 = time.perf_counter()
            for _ in range(reps):
                _executor_timing(job.step_plan, job._exec_ctx)
            slow_s = (time.perf_counter() - t0) / reps

            rows.append({
                "configuration": config,
                "variant": variant.name,
                "ops": len(job.step_plan),
                "sim_step_seconds": timing.makespan,
                "fastpath_steps_per_s": 1.0 / fast_s if fast_s else 0.0,
                "executor_steps_per_s": 1.0 / slow_s if slow_s else 0.0,
                "speedup": slow_s / fast_s if fast_s else 0.0,
            })
    return rows


def bench_fig16_grid(smoke: bool = False, sim_steps: Optional[int] = None,
                     jobs: int = 1) -> dict:
    """Wall-clock of the Fig. 16 grid: event-loop training vs the study.

    The baseline is the pre-fastpath serial path — every cell trained
    through the full DES (warmup + ``sim_steps`` steps + checkpoint) by
    :func:`~repro.experiments.run_configuration`.  The fast leg is
    :func:`~repro.experiments.software_optimization_study` without a
    cache, which evaluates each cell's step plan once; both value sets
    are cross-checked.
    """
    from .runner import run_configuration
    from .software_opts import software_optimization_study

    configs = _grid_configs(smoke)
    variants = _grid_variants(smoke)
    if sim_steps is None:
        sim_steps = 4 if smoke else 8

    # Serial event-loop baseline (no cache, no fan-out: PR-4 behavior).
    # Restricting the study to the same variant subset keeps smoke mode
    # honest — both legs cover exactly the same cells.
    t0 = time.perf_counter()
    baseline_grid = {
        config: {v.name: 1.0 / run_configuration(
            "bert-large", config, strategy=v.strategy_factory(),
            policy=v.policy, global_batch=v.global_batch,
            sim_steps=sim_steps).throughput for v in variants}
        for config in configs}
    baseline_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast_grid = software_optimization_study(configs, variants=variants)
    fastpath_s = time.perf_counter() - t0

    fastpath_jobs_s = None
    if jobs > 1:
        t0 = time.perf_counter()
        software_optimization_study(configs, variants=variants, jobs=jobs)
        fastpath_jobs_s = time.perf_counter() - t0

    # Plan-level equivalence is 1e-9 (see the golden fastpath tests);
    # grid-vs-training tolerates 1e-5 because DataParallel cells see
    # ~1e-6 relative drift at longer runs — inside a training run, the
    # master's broadcast contends slightly with the dataloader's staging
    # transfers, which a standalone step-plan evaluation excludes.
    max_rel_err = max(
        abs(fast_grid[c][n] - baseline_grid[c][n])
        / abs(baseline_grid[c][n])
        for c in baseline_grid for n in baseline_grid[c])
    values_match = max_rel_err <= 1e-5

    best_fast = min(x for x in (fastpath_s, fastpath_jobs_s)
                    if x is not None)
    out = {
        "sim_steps": sim_steps,
        "cells": len(configs) * len(variants),
        "baseline_eventloop_s": baseline_s,
        "fastpath_s": fastpath_s,
        "jobs": jobs,
        "speedup": baseline_s / best_fast if best_fast else 0.0,
        "values_match": values_match,
        "max_rel_err": max_rel_err,
        "grid": fast_grid,
    }
    # Only a multi-process run measures the pooled leg; a serial run
    # omits the key entirely rather than writing JSON ``null`` into the
    # committed BENCH ledger (regression diffs stay schema-stable).
    if fastpath_jobs_s is not None:
        out["fastpath_jobs_s"] = fastpath_jobs_s
    return out


class _ChurnSegment:
    """Duck-typed flow segment: just a directed key and a capacity."""

    __slots__ = ("key", "capacity")

    def __init__(self, key, capacity: float):
        self.key = key
        self.capacity = capacity


class _ChurnFlow:
    """Duck-typed flow for the solver hot path (no event machinery)."""

    __slots__ = ("segments", "rate")

    def __init__(self, segments):
        self.segments = tuple(segments)
        self.rate = 0.0


def _churn_flow(links: int, capacity: float, i: int) -> _ChurnFlow:
    """Flow ``i``: one link, or an adjacent pair for every fourth flow.

    Pairing ``2k`` with ``2k+1`` keeps contention components at two
    links, the realistic fleet shape (many small independent jobs) the
    incremental solver exploits.
    """
    first = i % links
    segments = [_ChurnSegment(("churn", first), capacity)]
    if i % 4 == 0:
        segments.append(_ChurnSegment(("churn", first ^ 1), capacity))
    return _ChurnFlow(segments)


def bench_flow_churn(flows: int = 1000, links: int = 64,
                     churn_ops: int = 300, seed: int = 7) -> dict:
    """1k-flow churn: incremental component re-solve vs batch refill.

    Builds ``flows`` concurrent flows spread over ``links`` independent
    directed capacities, then performs ``churn_ops`` remove-one/add-one
    cycles — the fleet steady state, where one job's transfer finishing
    must not cost a full re-solve over every other job's flows.  Both
    legs run the same arithmetic (:mod:`repro.fabric.maxmin`); the
    incremental leg re-rates only the touched component and is
    cross-checked against the batch oracle at 1e-9 afterwards.
    """
    import random

    from ..fabric.maxmin import MaxMinSolver

    capacity = 10e9

    def build() -> tuple:
        solver = MaxMinSolver()
        population = [_churn_flow(links, capacity, i)
                      for i in range(flows)]
        for flow in population:
            solver.add(flow)
        return solver, population

    def churn(solver, population, full: bool) -> float:
        rng = random.Random(seed)
        next_id = flows
        solver.solve_full() if full else solver.solve()
        t0 = time.perf_counter()
        for _ in range(churn_ops):
            victim = population.pop(rng.randrange(len(population)))
            solver.remove(victim)
            fresh = _churn_flow(links, capacity, next_id)
            next_id += 1
            population.append(fresh)
            solver.add(fresh)
            if full:
                solver.solve_full()
            else:
                solver.solve()
        return time.perf_counter() - t0

    solver, population = build()
    incremental_s = churn(solver, population, full=False)
    try:
        solver.assert_equivalent(1e-9)
        equivalent = True
    except AssertionError:
        equivalent = False

    solver_full, population_full = build()
    batch_s = churn(solver_full, population_full, full=True)

    return {
        "flows": flows,
        "links": links,
        "churn_ops": churn_ops,
        "incremental_s": incremental_s,
        "batch_s": batch_s,
        "speedup": batch_s / incremental_s if incremental_s else 0.0,
        "equivalent": equivalent,
    }


def _git_provenance() -> dict:
    """Commit SHA + dirty flag of the working tree, or ``unknown``.

    Subprocess failures (no git binary, not a repo, CI shallow oddities)
    degrade to ``unknown`` rather than failing the benchmark run.
    """
    import subprocess
    out = {"git_sha": "unknown", "git_dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=Path(__file__).resolve().parent)
        if sha.returncode == 0:
            out["git_sha"] = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"], capture_output=True,
                text=True, timeout=10,
                cwd=Path(__file__).resolve().parent)
            if status.returncode == 0:
                out["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return out


def collect_provenance() -> dict:
    """Attribution block for ``BENCH_*.json``: what produced these numbers.

    Regression comparisons (:mod:`repro.experiments.regress`) are only
    meaningful when the baseline and the fresh run can be attributed to
    a commit, an engine stack, and a cache state.
    """
    import os

    import numpy

    import repro
    from ..training.loop import plan_compile_stats

    provenance = {
        "repro_version": repro.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "plan_compile_cache": dict(plan_compile_stats()),
        "result_cache_dir": os.environ.get("REPRO_CACHE_DIR"),
    }
    provenance.update(_git_provenance())
    return provenance


def run_perfbench(smoke: bool = False, jobs: int = 1,
                  reps: Optional[int] = None) -> dict:
    """Run every scenario and assemble the benchmark report."""
    if reps is None:
        reps = 2 if smoke else 3
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    report = {
        "meta": {
            "date": time.strftime("%Y-%m-%d"),
            "started": started,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": __import__("os").cpu_count(),
            "smoke": smoke,
            "jobs": jobs,
        },
        "plan_eval": bench_plan_eval(smoke=smoke, reps=reps),
        "fig16_grid": bench_fig16_grid(smoke=smoke, jobs=jobs),
        # Always the full 1k flows (the acceptance scale); smoke only
        # trims the churn cycle count.
        "flow_churn": bench_flow_churn(
            churn_ops=100 if smoke else 300),
    }
    import repro
    report["meta"]["repro_version"] = repro.__version__
    # Provenance is collected *after* the scenarios so the compile-cache
    # stats describe this run's cache behavior, not a cold process.
    report["meta"]["provenance"] = collect_provenance()
    return report


def write_bench_report(report: dict,
                       directory: Optional[str] = None) -> Path:
    """Write ``BENCH_<date>.json`` (returns the path written)."""
    root = Path(directory) if directory else Path.cwd()
    path = root / f"BENCH_{report['meta']['date']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
