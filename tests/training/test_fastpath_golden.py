"""Fast-path evaluation is bit-identical on every pinned Fig. 16 plan.

For each golden Fig. 16 (configuration, variant) case — with and without
the full optimizing pass pipeline — the fast-path engine and the
event-loop executor evaluate the same compiled step plan and every op's
start/end plus the makespan must agree at 1e-9 relative.  For the
strategies whose training step is exactly one plan replay (everything
but single-process DataParallel, whose in-training step overlaps the
master's broadcast with dataloader staging), the fast-path makespan is
additionally pinned to the golden *trained* step time, and three
localGPUs plans (DP, DDP and Pipeline FP16) to absolute makespans.
"""

import json
from pathlib import Path

import pytest

from repro.core import ComposableSystem
from repro.experiments.software_opts import VARIANTS
from repro.plan import evaluate_plan
from repro.training import DataParallel, TrainingConfig, TrainingJob
from repro.workloads import get_benchmark

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_fig16.json").read_text())

#: Absolute pins on the un-optimized plan makespan (seconds), so a drift
#: shared by both engines cannot hide behind their agreement.
PLAN_MAKESPANS = {
    "localGPUs/DP-FP16": 0.9333396697899831,
    "localGPUs/DDP-FP16": 0.17587463154741168,
    "localGPUs/Pipeline-FP16": 0.2889308409313673,
}

CASES = [
    (config, variant, passes)
    for config in ("localGPUs", "falconGPUs")
    for variant in VARIANTS
    for passes in (None, "all")
    if f"{config}/{variant.name}" in GOLDEN["values"]
    or f"{config}/{variant.name}" in PLAN_MAKESPANS
]


def build_job(config, variant, passes):
    system = ComposableSystem()
    active = system.configure(config)
    cfg = TrainingConfig(
        benchmark=get_benchmark(GOLDEN["benchmark"]),
        strategy=variant.strategy_factory(),
        policy=variant.policy,
        global_batch=variant.global_batch,
        plan_passes=passes,
    )
    return TrainingJob(system.env, system.topology, system.host,
                       list(active.gpus), active.storage, cfg)


@pytest.mark.parametrize(
    "config,variant,passes", CASES,
    ids=[f"{c}/{v.name}/{p or 'no-passes'}" for c, v, p in CASES])
def test_fastpath_matches_executor_on_golden_plans(config, variant,
                                                   passes):
    job = build_job(config, variant, passes)
    timing = evaluate_plan(job.step_plan, job._exec_ctx,
                           assert_equivalence=True)
    assert timing.mode == "fastpath"
    if passes is None:
        key = f"{config}/{variant.name}"
        if key in PLAN_MAKESPANS:
            assert timing.makespan == pytest.approx(PLAN_MAKESPANS[key],
                                                    rel=1e-9)
        if key in GOLDEN["values"] and not isinstance(
                job.config.strategy, DataParallel):
            want = GOLDEN["values"][key]["step_time"]
            assert timing.makespan == pytest.approx(want, rel=1e-9)


def test_auto_mode_falls_back_on_stochastic_jitter():
    variant = next(v for v in VARIANTS if v.name == "DDP-FP16")
    system = ComposableSystem()
    active = system.configure("localGPUs")
    cfg = TrainingConfig(
        benchmark=get_benchmark(GOLDEN["benchmark"]),
        strategy=variant.strategy_factory(),
        policy=variant.policy,
        global_batch=variant.global_batch,
        kernel_jitter=0.05,
    )
    job = TrainingJob(system.env, system.topology, system.host,
                      list(active.gpus), active.storage, cfg)
    timing = evaluate_plan(job.step_plan, job._exec_ctx)
    assert timing.mode == "executor"
