"""Traced training runs and the Fig. 11 split from the critical path.

:func:`traced_run` executes one short benchmark job with a fully wired
:class:`~repro.telemetry.Tracer` — training-loop phases, collective
lanes, fabric transfers, storage I/O, and the management/chaos event log
all land on one timeline — under :func:`~repro.telemetry.profile_run`,
so the same run also carries its critical-path attribution per step.

:func:`overhead_split` runs the same benchmark on a local baseline and a
composed configuration and decomposes the *slowdown* per critical-path
category: the paper's Fig. 11 measured overhead by aggregate subtraction
(falcon total minus local total); here each extra second is charged to
the category that set the step's length, with the composed fabric's
queueing behind other traffic as ``contention``.

The attribution reconciles with the runner's own bookkeeping by
construction: each step window is tiled by critical-path segments, and
the steady means pushed through ``TrainingResult``'s extrapolation
reproduce ``total_time`` to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ComposableSystem
from ..telemetry import (
    ATTRIBUTION_CATEGORIES,
    RunProfile,
    Tracer,
    Track,
    profile_run,
)
from .runner import DEFAULT_SIM_STEPS, ExperimentRecord, experiment_record

__all__ = ["TracedRun", "OverheadSplit", "traced_run", "overhead_split"]


@dataclass
class TracedRun:
    """One instrumented run: the record, the spans and the profile."""

    record: ExperimentRecord
    tracer: Tracer
    system: ComposableSystem
    #: Rank 0's training track (host process, GPU thread).
    track: Track
    #: The run's critical-path profile: per-step attribution, steady
    #: means and the reconciliation against ``record.total_time``.
    profile: RunProfile


@dataclass
class OverheadSplit:
    """Fig. 11 from the critical path: where the composed configuration's
    extra step time comes from, category by category."""

    benchmark: str
    baseline: TracedRun
    composed: TracedRun

    @property
    def overhead_pct(self) -> float:
        """Composed total-time overhead vs baseline, percent (Fig. 11)."""
        return 100.0 * (self.composed.record.total_time
                        / self.baseline.record.total_time - 1.0)

    def split_rows(self) -> list[tuple]:
        """(category, baseline ms, composed ms, delta ms, share %) rows.

        ``share`` apportions the composed configuration's extra step time
        across categories; positive deltas sum to ~the step-time gap.
        """
        base = self.baseline.profile.steady_attr.seconds
        comp = self.composed.profile.steady_attr.seconds
        deltas = {c: comp.get(c, 0.0) - base.get(c, 0.0)
                  for c in ATTRIBUTION_CATEGORIES}
        gap = sum(max(0.0, d) for d in deltas.values())
        rows = []
        for category, delta in deltas.items():
            share = 100.0 * max(0.0, delta) / gap if gap > 0 else 0.0
            rows.append((category, round(base.get(category, 0.0) * 1e3, 3),
                         round(comp.get(category, 0.0) * 1e3, 3),
                         round(delta * 1e3, 3), round(share, 1)))
        return rows


def traced_run(benchmark: str, configuration: str = "localGPUs",
               sim_steps: int = DEFAULT_SIM_STEPS,
               sim_checkpoints: int = 1,
               **runner_kwargs) -> TracedRun:
    """Run one configuration with a fully wired tracer, under the
    profiler.

    The tracer is attached to the management event log (chaos and
    management instants) before the job is composed, and to the fabric
    topology and the training job (transfer, step, phase and collective
    spans) before the run starts.  ``runner_kwargs`` are
    :meth:`~repro.core.ComposableSystem.job`'s.
    """
    system = ComposableSystem()
    tracer = Tracer(system.env)
    tracer.attach_event_log(system.mcs.log)
    job = system.job(benchmark, configuration, sim_steps=sim_steps,
                     sim_checkpoints=sim_checkpoints, tracer=tracer,
                     **runner_kwargs)
    profile = profile_run(job)
    tracer.finish()
    system.topology.tracer = None  # stop tracing any follow-on runs
    result = profile.result
    return TracedRun(
        record=experiment_record(system, benchmark, configuration, result),
        tracer=tracer, system=system,
        track=Track(system.host.name, result.gpus[0].name),
        profile=profile)


def overhead_split(benchmark: str, composed: str = "falconGPUs",
                   baseline: str = "localGPUs",
                   sim_steps: int = DEFAULT_SIM_STEPS,
                   sim_checkpoints: int = 1) -> OverheadSplit:
    """Trace a benchmark on baseline and composed configurations and
    attribute the slowdown per critical-path category (Fig. 11)."""
    base = traced_run(benchmark, baseline, sim_steps=sim_steps,
                      sim_checkpoints=sim_checkpoints)
    comp = traced_run(benchmark, composed, sim_steps=sim_steps,
                      sim_checkpoints=sim_checkpoints)
    return OverheadSplit(benchmark=benchmark, baseline=base,
                         composed=comp)
