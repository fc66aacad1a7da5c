"""Pass-parameter autotuning: ``python -m repro autotune``.

The optimizing plan passes carry knobs whose defaults mirror framework
defaults, not per-cell optima: :class:`GradientBucketing`'s 100 MB cap
(DDP ``bucket_cap_mb``), :class:`CollectiveChunkSizing`'s 1 ms staging
target, and :class:`OverlapScheduling` as an all-or-nothing toggle.  The
best settings differ per (configuration × strategy variant) — a falcon
ring wants bigger buckets to amortize its longer per-collective setup,
while a pipeline schedule can lose overlap headroom to oversized ones.

This module searches that knob space per grid cell:

- :func:`candidate_pipelines` enumerates the candidate pipelines —
  bucket caps × chunk targets (including *no* chunk pass) × overlap
  on/off, copy fusion always on, and always the stock ``--opt all``
  default.  The default's membership makes the tuner safe by
  construction: ties prefer it, so a tuned cell is never slower than
  the default pipeline.
- :func:`autotune_cell` compiles one job per candidate and evaluates
  each candidate's step plan once on the fast path
  (:func:`~repro.plan.batched.evaluate_batch`).
- :func:`run_autotune` sweeps the grid and assembles the
  tuned-vs-default frontier plus a tuning table, written as
  ``TUNING.json`` by :func:`write_tuning_table`.

Each tuned cell also reports what-if ceilings (what the
tuned plan's makespan would be with compute or communication made free),
so the frontier shows not just the knob win but the remaining headroom.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "TUNING_BASENAME",
    "Candidate",
    "candidate_pipelines",
    "autotune_cell",
    "run_autotune",
    "write_tuning_table",
]

#: Filename of the reusable tuning table at the repo/CI root.
TUNING_BASENAME = "TUNING.json"

#: The model every cell trains — the paper's Fig. 16 workload.
_BENCHMARK = "bert-large"

#: Bucket caps swept (bytes).  The stock 100 MB sits mid-grid.
_BUCKET_CAPS = (25e6, 50e6, 100e6, 200e6, 400e6)
_BUCKET_CAPS_SMOKE = (25e6, 100e6, 400e6)

#: Chunk staging targets swept (seconds); ``None`` drops the pass.
_CHUNK_TARGETS = (5e-4, 1e-3, 2e-3, None)
_CHUNK_TARGETS_SMOKE = (1e-3, None)

#: What-if cost buckets reported per tuned cell.
_CEILING_BUCKETS = ("compute", "comm")

#: ``--smoke`` grid: localGPUs x the cheap end of the Fig. 16 variants.
_SMOKE_GRID = ("localGPUs",), ("DP-FP16", "DDP-FP16", "Pipeline-FP16")


class Candidate:
    """One candidate pipeline: a label, pass instances, default flag."""

    __slots__ = ("label", "passes", "is_default")

    def __init__(self, label: str, passes: Sequence, is_default=False):
        self.label = label
        self.passes = list(passes)
        self.is_default = is_default

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<Candidate {self.label}>"


def candidate_pipelines(smoke: bool = False) -> list:
    """The candidate set: the stock default plus the knob grid.

    The default pipeline (``resolve_passes("all")``) is always first;
    grid points whose resolved spec collides with it are skipped so it
    appears exactly once.
    """
    from ..plan.passes import (
        CollectiveChunkSizing,
        CopyFusion,
        GradientBucketing,
        OverlapScheduling,
        passes_to_spec,
        resolve_passes,
    )

    default = Candidate("default", resolve_passes("all"), is_default=True)
    default_spec = passes_to_spec(default.passes)
    out = [default]
    caps = _BUCKET_CAPS_SMOKE if smoke else _BUCKET_CAPS
    chunks = _CHUNK_TARGETS_SMOKE if smoke else _CHUNK_TARGETS
    for cap in caps:
        for chunk in chunks:
            for overlap in (True, False):
                passes = [GradientBucketing(cap_bytes=cap)]
                if overlap:
                    passes.append(OverlapScheduling())
                passes.append(CopyFusion())
                if chunk is not None:
                    passes.append(
                        CollectiveChunkSizing(target_seconds=chunk))
                if passes_to_spec(passes) == default_spec:
                    continue
                chunk_ms = "-" if chunk is None else f"{chunk * 1e3:g}ms"
                label = (f"cap={cap / 1e6:g}MB,chunk={chunk_ms},"
                         f"overlap={'on' if overlap else 'off'}")
                out.append(Candidate(label, passes))
    return out


def _cell_key(benchmark: str, configuration: str, variant: str) -> str:
    return f"{benchmark}|{configuration}|{variant}"


def _whatif_ceilings(plan, timing, ctx) -> dict:
    """What-if makespans with each bucket's cost zeroed."""
    from ..telemetry.profile import what_if

    ceilings = {}
    for bucket in _CEILING_BUCKETS:
        result = what_if(plan, timing, ctx, bucket, 0.0)
        ceilings[bucket] = result.predicted_makespan
    return ceilings


def autotune_cell(configuration: str, variant, candidates,
                  what_if_ceilings: bool = True) -> dict:
    """Tune one (configuration × variant) cell over ``candidates``.

    Builds one training job per candidate (the pass pipeline runs at
    job construction, exactly as production training applies it) and
    evaluates each candidate's step plan on the fast path.  Tuned =
    the minimum-makespan candidate, ties resolved toward the default.
    """
    from ..plan.batched import evaluate_batch
    from ..plan.passes import passes_to_spec

    jobs = [variant.build_job(configuration, list(c.passes))
            for c in candidates]
    lanes = [(job.step_plan, job._exec_ctx) for job in jobs]
    result = evaluate_batch(lanes)
    makespans = [t.makespan for t in result.timings]

    default_idx = next(i for i, c in enumerate(candidates)
                       if c.is_default)
    best = min(range(len(candidates)),
               key=lambda i: (makespans[i],
                              not candidates[i].is_default, i))
    default_s = makespans[default_idx]
    tuned_s = makespans[best]
    cell = {
        "benchmark": _BENCHMARK,
        "configuration": configuration,
        "variant": variant.name,
        "default_makespan_s": default_s,
        "tuned_makespan_s": tuned_s,
        "improvement_pct": (default_s - tuned_s) / default_s * 100.0
        if default_s else 0.0,
        "tuned_candidate": candidates[best].label,
        "tuned_passes": passes_to_spec(candidates[best].passes),
        "candidates": [
            {"label": c.label, "makespan_s": makespans[i]}
            for i, c in enumerate(candidates)],
    }
    if what_if_ceilings:
        cell["whatif_ceilings_s"] = _whatif_ceilings(
            jobs[best].step_plan, result.timings[best],
            jobs[best]._exec_ctx)
    return cell


def run_autotune(smoke: bool = False,
                 configurations: Optional[Sequence[str]] = None,
                 variants=None,
                 what_if_ceilings: bool = True) -> dict:
    """Sweep the grid and assemble the frontier + tuning-table report."""
    from .software_opts import VARIANTS

    smoke_configs, smoke_variants = _SMOKE_GRID
    if configurations is None:
        configurations = (smoke_configs if smoke
                          else ("localGPUs", "falconGPUs"))
    if variants is None:
        variants = [v for v in VARIANTS
                    if not smoke or v.name in smoke_variants]
    candidates = candidate_pipelines(smoke)

    t0 = time.perf_counter()
    cells = [autotune_cell(config, variant, candidates,
                           what_if_ceilings=what_if_ceilings)
             for config in configurations for variant in variants]
    elapsed = time.perf_counter() - t0

    table = {
        _cell_key(c["benchmark"], c["configuration"], c["variant"]): {
            "passes": c["tuned_passes"],
            "candidate": c["tuned_candidate"],
            "makespan_s": c["tuned_makespan_s"],
            "default_makespan_s": c["default_makespan_s"],
        }
        for c in cells
    }
    return {
        "meta": {
            "date": time.strftime("%Y-%m-%d"),
            "smoke": smoke,
            "benchmark": _BENCHMARK,
            "candidates": len(candidates),
            "cells": len(cells),
            "wall_clock_s": elapsed,
        },
        "cells": cells,
        "table": table,
        # Safety invariant (default is always a candidate and wins
        # ties): consumed by the CLI's exit status and the smoke tests.
        "tuned_never_slower": all(
            c["tuned_makespan_s"] <= c["default_makespan_s"]
            for c in cells),
    }


def write_tuning_table(report: dict,
                       directory: Optional[str] = None) -> Path:
    """Write ``TUNING.json`` (returns the path written)."""
    root = Path(directory) if directory else Path.cwd()
    root.mkdir(parents=True, exist_ok=True)
    path = root / TUNING_BASENAME
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path

