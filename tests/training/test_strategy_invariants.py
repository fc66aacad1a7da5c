"""Cross-strategy invariants over every registered compiler's output.

At a fixed model and global batch, all parallelization strategies do
the same *training math* — they only place it differently.  Three
checkable consequences, over all seven registered strategies:

- **compute conservation** — summed forward+backward FLOPs across the
  whole plan equal 3x the model's forward FLOPs for the global batch,
  regardless of how ranks/groups/stages split the work;
- **gradient traffic** — total ``gradients``-tagged collective payload
  follows each strategy's reduction structure exactly: ``world x
  gradient_bytes`` for the data-parallel family, ``dp_degree x
  gradient_bytes`` for the 2D grid (each of its ``dp`` data groups
  moves one tensor-shard's worth per member), zero for pure tensor
  parallelism (gradients never cross ranks, activations do);
- **structural validity** — every compiled plan passes the full
  validator (structure, cycles, per-communicator rank symmetry, bytes
  conservation).

Plus a regression guard on the compile memo: strategy knobs that change
the plan (``tp_degree``, ``layer_groups``) must miss the cache.
"""

import math

import pytest

from repro.core import ComposableSystem
from repro.plan import Collective, Compute, validate_plan
from repro.training import (
    STRATEGY_REGISTRY,
    TensorParallel,
    TrainingConfig,
    TrainingJob,
    TwoDParallel,
    clear_plan_compile_cache,
    plan_compile_stats,
)
from repro.workloads import get_benchmark

WORLD = 4
GLOBAL_BATCH = 16
BENCH = "resnet50"


def build_job(strategy, **cfg_kwargs):
    system = ComposableSystem()
    cfg = TrainingConfig(benchmark=get_benchmark(BENCH),
                         strategy=strategy,
                         global_batch=GLOBAL_BATCH,
                         **cfg_kwargs)
    gpus = system.host.gpus[:WORLD]
    return TrainingJob(system.env, system.topology, system.host,
                       gpus, system.host.scratch, cfg)


def train_flops(plan):
    return sum(op.flops for op in plan
               if isinstance(op, Compute)
               and op.name.startswith(("forward", "backward")))


def gradient_wire_bytes(plan):
    return sum(op.bytes for op in plan
               if isinstance(op, Collective)
               and op.payload == "gradients")


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_plan_compile_cache()
    yield
    clear_plan_compile_cache()


@pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY))
def test_plan_is_valid_at_world_4(name):
    job = build_job(STRATEGY_REGISTRY[name]())
    assert validate_plan(job.step_plan) == []


def test_total_train_flops_identical_across_strategies():
    model = get_benchmark(BENCH).build()
    expected = 3.0 * model.forward_flops_per_sample * GLOBAL_BATCH
    for name in sorted(STRATEGY_REGISTRY):
        job = build_job(STRATEGY_REGISTRY[name]())
        total = train_flops(job.step_plan)
        assert math.isclose(total, expected, rel_tol=1e-9), \
            f"{name}: {total} != {expected}"


def test_total_train_flops_invariant_under_accumulation():
    model = get_benchmark(BENCH).build()
    expected = 3.0 * model.forward_flops_per_sample * GLOBAL_BATCH
    for name in sorted(STRATEGY_REGISTRY):
        job = build_job(STRATEGY_REGISTRY[name](), accumulation_steps=2)
        total = train_flops(job.step_plan)
        assert math.isclose(total, expected, rel_tol=1e-9), \
            f"{name}@acc2: {total} != {expected}"


def test_gradient_traffic_follows_reduction_structure():
    model = get_benchmark(BENCH).build()
    job = build_job(STRATEGY_REGISTRY["ddp"]())
    gbytes = model.gradient_bytes(job.config.policy.compute)
    expectations = {
        "dp": WORLD * gbytes,
        "ddp": WORLD * gbytes,
        "sharded": WORLD * gbytes,
        "fsdp": WORLD * gbytes,
        # Each of the tp_degree data groups allreduces one
        # gradient_bytes/tp_degree shard across its dp members.
        "2d": (WORLD // 2) * gbytes,
        # Gradients are already rank-local under pure TP; only
        # activations cross the wire.
        "tp": 0.0,
    }
    for name, expected in expectations.items():
        plan = build_job(STRATEGY_REGISTRY[name]()).step_plan
        total = gradient_wire_bytes(plan)
        assert total == pytest.approx(expected, rel=1e-9, abs=1e-6), \
            f"{name}: {total} != {expected}"


def test_tp_moves_activations_not_gradients():
    plan = build_job(TensorParallel()).step_plan
    acts = sum(op.bytes for op in plan
               if isinstance(op, Collective)
               and op.payload == "activations")
    assert acts > 0
    assert gradient_wire_bytes(plan) == 0.0


def test_compile_memo_distinguishes_strategy_knobs():
    build_job(TwoDParallel(tp_degree=2))
    assert plan_compile_stats() == {"hits": 0, "misses": 1}
    # A different grid shape is a different plan: must miss.
    four = build_job(TwoDParallel(tp_degree=4))
    assert plan_compile_stats() == {"hits": 0, "misses": 2}
    # Same knobs again: must hit and share the object.
    two = build_job(TwoDParallel(tp_degree=2))
    assert plan_compile_stats() == {"hits": 1, "misses": 2}
    assert two.step_plan is not four.step_plan
    assert two.step_plan.meta["tp_degree"] == 2
    assert four.step_plan.meta["tp_degree"] == 4


def test_compile_memo_distinguishes_layer_groups():
    build_job(TensorParallel(layer_groups=4))
    build_job(TensorParallel(layer_groups=2))
    assert plan_compile_stats() == {"hits": 0, "misses": 2}


def _op_shape(plan):
    return [(op.uid, op.kind, getattr(op, "bytes", None), op.deps,
             getattr(op, "group", None)) for op in plan]


@pytest.mark.parametrize("accumulation", [1, 2])
def test_tp_is_the_2d_grid_with_one_tensor_group(accumulation):
    tp = build_job(TensorParallel(),
                   accumulation_steps=accumulation).step_plan
    grid = build_job(TwoDParallel(tp_degree=WORLD),
                     accumulation_steps=accumulation).step_plan
    assert _op_shape(grid) == _op_shape(tp)
    # One data group: no gradient allreduce, and every tensor
    # collective runs on the world communicator.
    assert gradient_wire_bytes(grid) == 0.0
    assert {op.group for op in grid if isinstance(op, Collective)} == {None}
    assert "gradients" not in grid.meta["conservation"]
    assert (tp.meta["tp_degree"], tp.meta["dp_degree"]) == (WORLD, 1)


def test_tp_inherits_the_grid_rather_than_redefining_it():
    for name in ("compile_step", "memory_per_gpu", "rank_batch",
                 "input_ranks"):
        assert name not in vars(TensorParallel), name
    assert vars(TensorParallel()) == {"layer_groups": 4}
