"""Traced training runs: span capture, attribution, and the Fig. 11 split.

:func:`traced_run` executes one short benchmark job with a fully wired
:class:`~repro.telemetry.Tracer` — training-loop phases, collective
lanes, fabric transfers, storage I/O, and the management/chaos event log
all land on one timeline — then reduces the spans to a per-step
compute/comm/stall/checkpoint attribution table.

:func:`overhead_split` runs the same benchmark on a local baseline and a
composed configuration and decomposes the *slowdown* per category: the
paper's Fig. 11 measured overhead by aggregate subtraction (falcon total
minus local total); here each extra second is attributed to the span
category it actually appeared in.

The attribution reconciles with the runner's own bookkeeping *by
construction*: step spans open and close at the exact instants
``TrainingJob`` samples ``_step_times``, and checkpoint spans match the
``_ckpt_times`` window, so ``reconstructed_total`` equals
``TrainingResult.total_time`` to float precision (the acceptance bound
is 1%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import ComposableSystem
from ..telemetry import Tracer, Track
from ..telemetry.export import StepAttribution, step_attribution
from ..telemetry.export import checkpoint_spans as _checkpoint_spans
from ..training.loop import WARMUP_STEPS
from .runner import DEFAULT_SIM_STEPS, ExperimentRecord, run_configuration

__all__ = ["TracedRun", "OverheadSplit", "traced_run", "overhead_split"]

#: Attribution categories reported per step (order matters for tables).
CATEGORIES = ("compute", "comm", "stall", "checkpoint", "data")


@dataclass
class TracedRun:
    """One instrumented run: the record, the tracer, and the attribution."""

    record: ExperimentRecord
    tracer: Tracer
    system: ComposableSystem
    #: Rank 0's training track (host process, GPU thread).
    track: Track
    #: Per-step decomposition, warmup included (see ``steady_steps``).
    steps: list[StepAttribution]
    #: Seconds per checkpoint, from checkpoint spans.
    checkpoint_seconds: list[float]

    @property
    def steady_steps(self) -> list[StepAttribution]:
        """Steps entering the statistics (warmup excluded, as the runner
        does)."""
        steady = self.steps[WARMUP_STEPS:]
        return steady or list(self.steps)

    def mean_step_split(self) -> dict[str, float]:
        """Mean seconds per category over steady-state steps."""
        steady = self.steady_steps
        out = {}
        for category in CATEGORIES:
            out[category] = float(np.mean(
                [getattr(s, category) for s in steady])) if steady else 0.0
        return out

    @property
    def mean_step_seconds(self) -> float:
        steady = self.steady_steps
        return float(np.mean([s.wall for s in steady])) if steady else 0.0

    @property
    def mean_checkpoint_seconds(self) -> float:
        return float(np.mean(self.checkpoint_seconds)) \
            if self.checkpoint_seconds else 0.0

    @property
    def reconstructed_total(self) -> float:
        """Full-run wall time rebuilt from spans alone.

        ``TrainingResult.total_time``'s extrapolation, with step and
        checkpoint means taken from span wall times instead of the
        runner's private timers.
        """
        return self.record.result.extrapolated_total(
            self.mean_step_seconds, self.mean_checkpoint_seconds)

    @property
    def reconciliation_error(self) -> float:
        """|span-reconstructed - reported| / reported total time."""
        reported = self.record.total_time
        if reported <= 0:
            return 0.0
        return abs(self.reconstructed_total - reported) / reported

    def attribution_rows(self) -> list[tuple]:
        """(step, wall ms, per-category ms...) rows for a text table."""
        rows = []
        for s in self.steps:
            rows.append((s.step, round(s.wall * 1e3, 3),
                         *(round(getattr(s, c) * 1e3, 3)
                           for c in CATEGORIES)))
        return rows


@dataclass
class OverheadSplit:
    """Fig. 11 from spans: where the composed configuration's extra
    step time comes from, category by category."""

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
        base = self.baseline.mean_step_split()
        comp = self.composed.mean_step_split()
        gap = sum(max(0.0, comp[c] - base[c]) for c in CATEGORIES)
        rows = []
        for category in CATEGORIES:
            delta = comp[category] - base[category]
            share = 100.0 * max(0.0, delta) / gap if gap > 0 else 0.0
            rows.append((category, round(base[category] * 1e3, 3),
                         round(comp[category] * 1e3, 3),
                         round(delta * 1e3, 3), round(share, 1)))
        return rows


def traced_run(benchmark: str, configuration: str = "localGPUs",
               sim_steps: int = DEFAULT_SIM_STEPS,
               sim_checkpoints: int = 1,
               system: Optional[ComposableSystem] = None,
               **runner_kwargs) -> TracedRun:
    """Run one configuration with a fully wired tracer.

    The tracer is attached to the fabric topology (per-transfer spans),
    the management event log (chaos/management instants), and the
    training job (step/phase/collective spans) before the run starts.
    """
    system = system or ComposableSystem()
    tracer = Tracer(system.env)
    system.topology.tracer = tracer
    tracer.attach_event_log(system.mcs.log)
    record = run_configuration(
        benchmark, configuration, sim_steps=sim_steps,
        sim_checkpoints=sim_checkpoints, system=system, tracer=tracer,
        **runner_kwargs)
    tracer.finish()
    system.topology.tracer = None  # stop tracing any follow-on runs
    result = record.result
    track = Track(system.host.name, result.gpus[0].name)
    steps = step_attribution(tracer, track)
    ckpts = [s.duration for s in _checkpoint_spans(tracer, track)]
    return TracedRun(record=record, tracer=tracer, system=system,
                     track=track, steps=steps, checkpoint_seconds=ckpts)


def overhead_split(benchmark: str, composed: str = "falconGPUs",
                   baseline: str = "localGPUs",
                   sim_steps: int = DEFAULT_SIM_STEPS,
                   sim_checkpoints: int = 1) -> OverheadSplit:
    """Trace a benchmark on baseline and composed configurations and
    attribute the slowdown per span category (Fig. 11 from spans)."""
    base = traced_run(benchmark, baseline, sim_steps=sim_steps,
                      sim_checkpoints=sim_checkpoints)
    comp = traced_run(benchmark, composed, sim_steps=sim_steps,
                      sim_checkpoints=sim_checkpoints)
    return OverheadSplit(benchmark=benchmark, baseline=base,
                         composed=comp)
