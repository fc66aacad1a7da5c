"""Fleet study: utilization, queueing delay, and spine contention.

Runs a seeded synthetic job trace (:mod:`repro.fleet.trace`) through the
FIFO cluster scheduler (:mod:`repro.fleet.scheduler`) on a multi-chassis
:class:`~repro.core.ComposableFleet` and reports the three quantities a
capacity planner asks of a composable cluster:

- **GPU utilization** — busy GPU-seconds over the makespan; how much of
  the disaggregated pool the scheduler actually kept training;
- **queueing delay** — arrival-to-placement wait per job (FIFO, so
  head-of-line blocking from big jobs is visible);
- **spine contention** — mean to/from-spine rates on every host uplink
  and drawer trunk, the shared links where co-scheduled jobs collide.

``python -m repro fleet [--smoke]`` prints the per-job table and the
aggregates; ``--smoke`` also asserts the run's invariants (every job
completed, utilization in (0, 1], traffic observed on the spine) and
exits non-zero on violation — the CI gate for the fleet layer.
"""

from __future__ import annotations

from typing import Optional

from ..core.fleet import ComposableFleet
from ..core.presets import FLEET_FOUR_CHASSIS, FleetSpec

__all__ = ["fleet_study", "resolve_fleet_inputs", "SMOKE_SPEC"]

#: Two chassis x 4 GPUs, two hosts: the smallest fleet on which single-
#: vs cross-chassis placement and spine sharing are all exercised.
SMOKE_SPEC = FleetSpec(name="smoke", chassis=2, hosts=2,
                       gpus_per_chassis=4)


def resolve_fleet_inputs(smoke: bool = False,
                         spec: Optional[FleetSpec] = None,
                         jobs: Optional[int] = None,
                         mean_interarrival: Optional[float] = None,
                         sim_steps: Optional[tuple] = None) -> tuple:
    """``(spec, jobs, mean_interarrival, sim_steps)`` with the smoke or
    full-study default filled in for each ``None``.

    :func:`fleet_study` and the ``fleet`` result-cache cell both resolve
    through here, so a default and its spelled-out value are one input.
    """
    if spec is None:
        spec = SMOKE_SPEC if smoke else FLEET_FOUR_CHASSIS
    if jobs is None:
        jobs = 8 if smoke else 24
    if mean_interarrival is None:
        # Arrivals faster than service so a queue actually forms: the
        # smoke trace front-loads ~23 GPU-requests onto an 8-GPU fleet.
        mean_interarrival = 1.0 if smoke else 20.0
    if sim_steps is None:
        sim_steps = (2, 3) if smoke else (2, 5)
    return spec, jobs, float(mean_interarrival), tuple(sim_steps)


def fleet_study(smoke: bool = False,
                spec: Optional[FleetSpec] = None,
                jobs: Optional[int] = None,
                seed: int = 0,
                mean_interarrival: Optional[float] = None,
                sim_steps: Optional[tuple] = None) -> dict:
    """Run one fleet trace end to end; returns the full report dict."""
    from ..fleet import ClusterScheduler, generate_trace

    spec, jobs, mean_interarrival, sim_steps = resolve_fleet_inputs(
        smoke, spec, jobs, mean_interarrival, sim_steps)
    fleet = ComposableFleet(spec)
    trace = generate_trace(jobs=jobs, seed=seed,
                           mean_interarrival=mean_interarrival,
                           sim_steps=sim_steps)
    result = ClusterScheduler(fleet).run(trace)

    report = result.as_dict()
    report["meta"] = {
        "seed": seed,
        "mean_interarrival_s": mean_interarrival,
        "sim_steps": list(sim_steps),
        "smoke": smoke,
    }
    traffic = report["spine_traffic_gbs"]
    busiest = max(
        traffic,
        key=lambda k: traffic[k]["to_spine_gbs"]
        + traffic[k]["from_spine_gbs"],
        default=None)
    report["busiest_spine_link"] = busiest
    report["checks"] = _invariants(report, jobs)
    return report


def _invariants(report: dict, expected_jobs: int) -> dict:
    """The smoke gate: structural truths any healthy run satisfies."""
    traffic = report["spine_traffic_gbs"]
    total_gbs = sum(t["to_spine_gbs"] + t["from_spine_gbs"]
                    for t in traffic.values())
    checks = {
        "all_jobs_completed": len(report["records"]) == expected_jobs,
        "multi_chassis": report["chassis"] >= 2,
        "utilization_sane": 0.0 < report["gpu_utilization"] <= 1.0,
        "queue_delays_nonnegative": all(
            r["queue_delay_s"] >= -1e-9 for r in report["records"]),
        "spine_traffic_observed": total_gbs > 0.0,
    }
    if report["meta"]["smoke"]:
        # The smoke trace intentionally oversubscribes the fleet, so a
        # FIFO queue must have formed.
        checks["queueing_observed"] = report["max_queue_delay_s"] > 0.0
    checks["ok"] = all(checks.values())
    return checks
