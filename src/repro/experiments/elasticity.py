"""Elasticity study: mid-run recomposition as an autoscaling strategy.

The reconfiguration study (PR 2) priced moving GPUs between *idle*
hosts; this study prices moving them under a *live* training job.  Using
:class:`~repro.elastic.ElasticTrainingJob` — fault-driven shrink, grow
onto freed chassis GPUs, virtual-node batch semantics — it answers three
questions the composable-system operator actually faces:

1. **What does a resize cost?** (:func:`reconfiguration_sweep`) —
   goodput vs. the number of mid-run recompositions, each paying a
   safe-point teardown plus the spliced state-redistribution traffic.
2. **What does elasticity buy over checkpoint-restart?**
   (:func:`lost_work_comparison`) — the same GPU failure handled by
   live-state recomposition vs. classic rollback: steps lost, goodput.
3. **How eagerly should a job chase capacity?**
   (:func:`autoscaler_comparison`) — an eager-grow policy tears the job
   down for every spare it sees, admissible or not; a hysteresis policy
   waits out flapping capacity.  Teardowns wasted on abandoned grows
   are the price of eagerness.

:func:`elastic_resize_run` is the acceptance scenario: one seeded run
takes a GPU failure (shrink 4 -> 2, the odd survivor parked back to the
spare pool) and a later operator grow (2 -> 4, reclaiming the parked
GPU plus a standby), with the effective global batch provably identical
at every optimizer step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..chaos import FaultEvent, FaultInjector
from ..core import ComposableSystem
from ..elastic import (
    AutoscalePolicy,
    EagerGrowPolicy,
    ElasticTrainingJob,
    HysteresisPolicy,
    VirtualBatchSpec,
)
from ..training import (
    FaultTolerantTrainingJob,
    ResilienceConfig,
    TrainingConfig,
)
from ..workloads import get_benchmark

__all__ = ["ElasticityRecord", "elastic_resize_run",
           "lost_work_comparison", "reconfiguration_sweep",
           "autoscaler_comparison", "elasticity_study"]

#: Virtual nodes for every study ring (divisors 1/2/4 are the feasible
#: worlds; the paper's drawer quad is the full deployment).
_VIRTUAL_NODES = 4


@dataclass(frozen=True)
class ElasticityRecord:
    """One (elastic or baseline) resilient run, JSON-able."""

    label: str
    benchmark: str
    completed: bool
    attempts: int
    faults: int
    resizes: int
    lost_steps: int
    total_steps: int
    wall_time: float
    goodput: float
    raw_throughput: Optional[float]
    final_world_size: int
    #: World size at each optimizer step, in global-step order.
    world_trajectory: tuple[int, ...]
    #: Effective global batch at each optimizer step — the elastic
    #: invariant: every entry must be identical across resizes.
    effective_batches: tuple[int, ...]
    #: Resize teardowns that bought nothing (inadmissible grows).
    grow_abandoned: int
    #: Mean detection-to-recomposition stall per resize, seconds.
    mean_recompose_s: float
    #: Mean estimated reshard-traffic makespan per resize, seconds.
    mean_reshard_s: float
    recovery_actions: tuple[str, ...]
    interrupted_reason: Optional[str] = None

    @property
    def batch_invariant(self) -> bool:
        return len(set(self.effective_batches)) <= 1

    def summary(self) -> dict:
        return {
            "label": self.label,
            "benchmark": self.benchmark,
            "completed": self.completed,
            "attempts": self.attempts,
            "faults": self.faults,
            "resizes": self.resizes,
            "lost_steps": self.lost_steps,
            "total_steps": self.total_steps,
            "wall_time_s": self.wall_time,
            "goodput_samples_s": self.goodput,
            "raw_throughput_samples_s": self.raw_throughput,
            "final_world_size": self.final_world_size,
            "world_trajectory": list(self.world_trajectory),
            "effective_batches": list(self.effective_batches),
            "batch_invariant": self.batch_invariant,
            "grow_abandoned": self.grow_abandoned,
            "mean_recompose_s": self.mean_recompose_s,
            "mean_reshard_s": self.mean_reshard_s,
            "recovery_actions": list(self.recovery_actions),
            "interrupted_reason": self.interrupted_reason,
        }


def _record(label: str, benchmark: str, job, result) -> ElasticityRecord:
    kinds = [a.kind for a in result.recovery_log]
    ledger = getattr(job, "step_ledger", [])
    resize_log = result.resize_log
    n = len(resize_log)
    reshard = [e.reshard_seconds for e in resize_log
               if e.reshard_seconds is not None]
    return ElasticityRecord(
        label=label,
        benchmark=benchmark,
        completed=result.completed,
        attempts=result.attempts,
        faults=result.faults,
        resizes=result.resizes,
        lost_steps=result.lost_steps,
        total_steps=result.total_steps,
        wall_time=result.wall_time,
        goodput=result.goodput,
        raw_throughput=result.raw_throughput,
        final_world_size=result.final_world_size,
        world_trajectory=tuple(w for _, w, _ in ledger),
        effective_batches=tuple(b for _, _, b in ledger),
        grow_abandoned=kinds.count("grow_abandoned"),
        mean_recompose_s=(sum(e.recompose_seconds for e in resize_log) / n
                          if n else 0.0),
        mean_reshard_s=(sum(reshard) / len(reshard) if reshard else 0.0),
        recovery_actions=tuple(kinds),
        interrupted_reason=result.interrupted_reason,
    )


def _resilience(**overrides) -> ResilienceConfig:
    defaults = dict(backoff_initial=0.05, reattach_attempts=2,
                    backoff_jitter=0.25)
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


def _config(benchmark: str, sim_steps: int,
            checkpoint_interval: int) -> TrainingConfig:
    return TrainingConfig(
        benchmark=get_benchmark(benchmark), global_batch=8,
        sim_steps=sim_steps, sim_checkpoints=0,
        checkpoint_interval_steps=checkpoint_interval)


def _elastic_job(system: ComposableSystem, gpus, config: TrainingConfig,
                 resilience: ResilienceConfig,
                 autoscaler: Optional[AutoscalePolicy] = None
                 ) -> ElasticTrainingJob:
    return ElasticTrainingJob(
        system.env, system.topology, system.host, gpus,
        system.host.scratch, config, resilience=resilience,
        inventory=system.inventory, event_log=system.mcs.log,
        virtual_batch=VirtualBatchSpec(
            _VIRTUAL_NODES, config.resolved_global_batch()),
        autoscaler=autoscaler)


def _injector(system: ComposableSystem) -> FaultInjector:
    return FaultInjector(system.env, system.topology,
                         falcon=system.falcon, event_log=system.mcs.log)


def _on_global_step(ft, callback) -> None:
    """Call ``callback(global_step, now)`` as each optimizer step of
    every attempt completes.  An attempt ``job`` trains the run's last
    ``job.config.sim_steps`` steps, so its step ``n`` is global step
    ``ft.config.sim_steps - job.config.sim_steps + n``."""
    def arm(job, attempt):
        job.add_step_listener(lambda steps_done, now: callback(
            ft.config.sim_steps - job.config.sim_steps + steps_done, now))

    ft.on_attempt.append(arm)


def _drop_at_step(ft, injector, node: str, at_step: int) -> None:
    """Arm a one-shot GPU drop when global step ``at_step`` completes."""
    fired = {}

    def on_step(gstep, now):
        if gstep == at_step and "done" not in fired:
            fired["done"] = True
            injector.apply(FaultEvent(now, "gpu_drop", f"node:{node}"))

    _on_global_step(ft, on_step)


def _resize_at_steps(ft, schedule: dict) -> None:
    """Latch resize requests when scheduled global steps complete.

    ``schedule`` maps global step -> "grow" | "shrink"; a shrink targets
    the current ring's last member (which the elastic job parks back to
    the spare pool, where a later grow can reclaim it).
    """
    fired = set()

    def on_step(gstep, now):
        kind = schedule.get(gstep)
        if kind is None or gstep in fired:
            return
        fired.add(gstep)
        targets = (ft.gpus[-1].name,) if kind == "shrink" else ()
        ft.request_resize(kind, targets, reason=f"scheduled@{gstep}")

    _on_global_step(ft, on_step)


def elastic_resize_run(benchmark: str = "resnet50", sim_steps: int = 10,
                       fail_step: int = 3, grow_step: int = 6
                       ) -> ElasticityRecord:
    """The acceptance scenario: survive one shrink and one grow.

    ``falcon0/gpu1`` drops at ``fail_step`` with hot-spare recovery
    disabled, so the ring shrinks 4 -> 2 (the odd survivor is parked to
    the spare pool to keep the world a divisor of the virtual-node
    count).  At ``grow_step`` an operator grow reclaims the parked GPU
    plus the standby spare, restoring 2 -> 4.  Every optimizer step in
    ``world_trajectory``/``effective_batches`` trains the same global
    batch.
    """
    system = ComposableSystem()
    system.install_spare_gpu(drawer=0)
    ft = _elastic_job(system, system.falcon_gpus[:4],
                      _config(benchmark, sim_steps, 4),
                      _resilience(allow_hot_spare=False))
    _drop_at_step(ft, _injector(system), "falcon0/gpu1", fail_step)
    _resize_at_steps(ft, {grow_step: "grow"})
    return _record("elastic-resize", benchmark, ft, ft.run())


def lost_work_comparison(benchmark: str = "resnet50",
                         sim_steps: int = 10, fail_step: int = 3,
                         checkpoint_interval: int = 4) -> dict:
    """Same GPU failure: live recomposition vs checkpoint-restart.

    The fault lands one step before the first checkpoint would commit.
    The baseline runtime rolls back to step 0 and replays; the elastic
    runtime redistributes live replicated state at the shrunk world and
    keeps going.  Both complete the same total steps at the same
    effective batch — only the lost work and goodput differ.
    """
    records = {}
    for label, elastic in (("elastic", True),
                           ("checkpoint-restart", False)):
        system = ComposableSystem()
        config = _config(benchmark, sim_steps, checkpoint_interval)
        resilience = _resilience(allow_hot_spare=False)
        if elastic:
            ft = _elastic_job(system, system.falcon_gpus[:4], config,
                              resilience)
        else:
            ft = FaultTolerantTrainingJob(
                system.env, system.topology, system.host,
                system.falcon_gpus[:4], system.host.scratch, config,
                resilience=resilience, inventory=system.inventory,
                event_log=system.mcs.log)
        _drop_at_step(ft, _injector(system), "falcon0/gpu1", fail_step)
        records[label] = _record(label, benchmark, ft, ft.run())
    records["lost_steps_saved"] = (
        records["checkpoint-restart"].lost_steps
        - records["elastic"].lost_steps)
    return records


def reconfiguration_sweep(benchmark: str = "resnet50",
                          sim_steps: int = 12,
                          frequencies: Sequence[int] = (0, 1, 2, 4)
                          ) -> list[ElasticityRecord]:
    """Goodput vs. number of mid-run recompositions.

    Each sweep cell schedules ``f`` controlled resizes, alternating
    shrink (a ring member handed back to the spare pool) and grow
    (spares reclaimed), evenly spaced across the run.  Every resize
    pays the safe-point teardown, the reshard splice, and — while
    shrunk — the smaller world's step time at the *same* effective
    batch, so goodput decays with frequency.
    """
    records = []
    for freq in frequencies:
        system = ComposableSystem()
        ft = _elastic_job(system, system.falcon_gpus[:4],
                          _config(benchmark, sim_steps, 0),
                          _resilience())
        schedule = {}
        for i in range(freq):
            step = max(1, round((i + 1) * sim_steps / (freq + 1)))
            schedule[min(step, sim_steps - 1)] = \
                "shrink" if i % 2 == 0 else "grow"
        _resize_at_steps(ft, schedule)
        records.append(_record(f"resizes={freq}", benchmark, ft,
                               ft.run()))
    return records


def autoscaler_comparison(benchmark: str = "resnet50",
                          sim_steps: int = 12, release_step: int = 6,
                          policies: Optional[dict] = None) -> dict:
    """Eager vs hysteresis growth against flapping spare capacity.

    The job starts at half width (2 of 4 virtual nodes).  One chassis
    GPU is free from the start — but alone it is *inadmissible* (a
    3-GPU world does not divide the virtual-node count), so growing on
    it buys nothing.  A second GPU, held by another tenant, is released
    at ``release_step``; from then on growing to full width is possible.
    The eager policy tears the job down for the lone spare at every
    step boundary (``grow_abandoned`` counts the waste); hysteresis
    holds until capacity has been stable, wasting far fewer teardowns
    for the same final world.
    """
    if policies is None:
        policies = {"eager": lambda: EagerGrowPolicy(),
                    "hysteresis": lambda: HysteresisPolicy(hold=3,
                                                           cooldown=3)}
    results = {}
    for label, make_policy in policies.items():
        system = ComposableSystem()
        # Half-width ring; gpu2 is free from the start, gpu3 stays
        # allocated (held elsewhere) until the release step frees it.
        system.inventory.detach("falcon0/gpu2")
        ft = _elastic_job(system, system.falcon_gpus[:2],
                          _config(benchmark, sim_steps, 0),
                          _resilience(), autoscaler=make_policy())

        released = {}

        def on_step(gstep, now, _s=system, _r=released):
            if gstep >= release_step and "done" not in _r:
                _r["done"] = True
                _s.inventory.detach("falcon0/gpu3")

        _on_global_step(ft, on_step)
        results[label] = _record(f"autoscaler-{label}", benchmark, ft,
                                 ft.run())
    return results


def elasticity_study(benchmark: str = "resnet50", sim_steps: int = 12,
                     smoke: bool = False) -> dict:
    """The full elasticity bundle, as one JSON-able dict."""
    if smoke:
        sim_steps = min(sim_steps, 8)
    frequencies = (0, 2) if smoke else (0, 1, 2, 4)
    acceptance = elastic_resize_run(
        benchmark, sim_steps=max(sim_steps, 10))
    lost = lost_work_comparison(benchmark, sim_steps=max(sim_steps, 10))
    sweep = reconfiguration_sweep(benchmark, sim_steps=sim_steps,
                                  frequencies=frequencies)
    scalers = autoscaler_comparison(benchmark, sim_steps=sim_steps,
                                    release_step=sim_steps // 2)
    return {
        "benchmark": benchmark,
        "sim_steps": sim_steps,
        "smoke": smoke,
        "acceptance": acceptance.summary(),
        "lost_work": {
            "elastic": lost["elastic"].summary(),
            "checkpoint_restart": lost["checkpoint-restart"].summary(),
            "lost_steps_saved": lost["lost_steps_saved"],
        },
        "reconfiguration_sweep": [r.summary() for r in sweep],
        "autoscalers": {k: r.summary() for k, r in scalers.items()},
    }
