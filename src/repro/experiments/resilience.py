"""Degraded-fabric resilience study.

The Falcon management interface exposes PCIe link health (accumulated
error counts, paper §II-B) precisely because links degrade in production:
a marginal CDFP cable retrains at reduced width and every tenant behind
that host port slows down.  This study quantifies the blast radius:

- train a communication-bound benchmark on falcon GPUs,
- retrain one host-port cable to half width mid-run,
- compare steady step times before and after, and verify local-GPU
  configurations are unaffected (the isolation argument for keeping
  latency-critical tenants off a degraded chassis).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ComposableSystem

__all__ = ["DegradationResult", "degraded_uplink_study"]


@dataclass(frozen=True)
class DegradationResult:
    """Step times (s) at full and degraded host-port width."""

    benchmark: str
    configuration: str
    degraded_lanes: int
    healthy_step_time: float
    degraded_step_time: float

    @property
    def slowdown_pct(self) -> float:
        return 100.0 * (self.degraded_step_time / self.healthy_step_time
                        - 1.0)


def degraded_uplink_study(benchmark: str = "bert-large",
                          configuration: str = "falconGPUs",
                          lanes: int = 8,
                          sim_steps: int = 12) -> DegradationResult:
    """Retrain port H1's cable to ``lanes`` mid-run; measure the impact.

    The first half of the simulated steps runs healthy, then the cable
    degrades; per-step timing splits the two regimes.
    """
    system = ComposableSystem()
    env = system.env

    # The H1 cable: drawer 0's upstream link toward the host.
    drawer0 = system.falcon.drawers[0]
    _, h1_link, _ = drawer0.hosts["host0"][0]
    original_spec = h1_link.spec

    job = system.job(benchmark, configuration, "ddp",
                     sim_steps=sim_steps, sim_checkpoints=0)

    half = sim_steps // 2

    def degrade_at_half(steps_done: int, _now: float) -> None:
        # Fires synchronously as the half-way step completes — no
        # polling loop, and exact alignment with the step boundary.
        if steps_done == half:
            system.topology.degrade_link(h1_link, lanes)

    job.add_step_listener(degrade_at_half)
    try:
        done = job.start()
        env.run(until=done)
    finally:
        # Re-seat the cable even if the run dies, so the system is
        # reusable by follow-on studies sharing this environment.
        system.topology.restore_link(h1_link, original_spec)

    import numpy as np
    steps = np.asarray(job.step_times)
    healthy = float(np.mean(steps[1:half]))      # skip warmup step
    degraded = float(np.mean(steps[half + 1:]))  # skip the cut-over step
    return DegradationResult(
        benchmark=benchmark,
        configuration=configuration,
        degraded_lanes=lanes,
        healthy_step_time=healthy,
        degraded_step_time=degraded,
    )
