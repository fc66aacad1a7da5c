"""State-redistribution plans: validation, conformance, equivalence.

The reshard plan is ordinary plan IR, so it must satisfy everything any
plan does: pass the validator, survive every optimizing pass without
changing its communication contract, and time identically on the fast
path and the real executor — including when spliced in front of a real
compiled training step (how the elastic runtime actually runs it).
"""

import math

import pytest

from repro.core import ComposableSystem
from repro.devices.gpu import Precision
from repro.plan import (
    Barrier,
    Collective,
    ExecutionContext,
    P2PCopy,
    PlanBuilder,
    PlanError,
    compile_reshard,
    evaluate_plan,
    splice_plans,
    validate_plan,
)
from repro.plan.passes import (
    PASS_REGISTRY,
    PassContext,
    PassManager,
    resolve_passes,
)
from repro.plan.reshard import is_rendezvous_only
from repro.training import TrainingConfig, TrainingJob
from repro.training.collectives import Communicator
from repro.workloads import get_benchmark

NAMES = ["falcon0/gpu0", "falcon0/gpu1", "falcon0/gpu2", "falcon0/gpu3"]
REPLICA = 2e8
SHARD = 5e7


class TestCompileReshard:
    def test_empty_new_ring_rejected(self):
        with pytest.raises(PlanError, match="non-empty"):
            compile_reshard([], NAMES, REPLICA)

    def test_duplicate_members_rejected(self):
        with pytest.raises(PlanError, match="duplicate"):
            compile_reshard([NAMES[0], NAMES[0]], NAMES, REPLICA)

    def test_no_survivors_is_a_plan_error(self):
        # A fully new ring has no live state source; the runtime must
        # restore from checkpoint instead of resharding.
        with pytest.raises(PlanError, match="surviving"):
            compile_reshard(NAMES[:2], ["elsewhere/gpu0"], REPLICA)

    def test_grow_round_robins_replica_donors(self):
        plan = compile_reshard(NAMES, NAMES[:2], REPLICA)
        copies = [op for op in plan if isinstance(op, P2PCopy)]
        assert len(copies) == 2  # one restore per joiner
        assert {op.rank for op in copies} == {0, 1}  # both donors used
        assert {op.dst_rank for op in copies} == {2, 3}
        assert all(op.bytes == REPLICA for op in copies)
        assert plan.meta["joined"] == NAMES[2:]
        assert plan.meta["conservation"]["replica-state"] \
            == pytest.approx(2 * REPLICA)

    def test_shrink_is_pure_rendezvous(self):
        # Survivors already hold replicas: an N-1 shrink moves no bytes,
        # only the exit barrier quiesces the new ring.
        plan = compile_reshard(NAMES[:2], NAMES, REPLICA)
        assert is_rendezvous_only(plan)
        assert all(isinstance(op, Barrier) for op in plan)
        assert plan.meta["departed"] == NAMES[2:]

    def test_sharded_resize_regathers_the_partition(self):
        plan = compile_reshard(NAMES, NAMES[:3], REPLICA, SHARD)
        gathers = [op for op in plan if isinstance(op, Collective)]
        assert len(gathers) == len(NAMES)
        assert all(op.comm == "all_gather" and op.bytes == SHARD
                   for op in gathers)
        assert not is_rendezvous_only(plan)

    def test_hot_spare_swap_is_a_one_joiner_reshard(self):
        swapped = NAMES[:3] + ["falcon0/gpu8"]
        plan = compile_reshard(swapped, NAMES, REPLICA)
        copies = [op for op in plan if isinstance(op, P2PCopy)]
        assert len(copies) == 1
        assert plan.meta["joined"] == ["falcon0/gpu8"]

    def test_every_rank_ends_at_the_exit_barrier(self):
        plan = compile_reshard(NAMES, NAMES[:1], REPLICA, SHARD)
        for rank in range(plan.world_size):
            assert isinstance(plan.by_rank(rank)[-1], Barrier)


def _step_like_plan(world=4):
    """A miniature strategy-compiler-shaped plan to splice after."""
    b = PlanBuilder("ministep", world)
    for rank in range(world):
        inp = b.h2d(rank, "input", 1e6, label="input")
        grad = b.collective(rank, "gradients", "allreduce", 4e6,
                            deps=[inp], payload="gradients")
        b.compute(rank, "opt", flops=1e8, hbm_bytes=1e5,
                  precision=Precision.FP32, efficiency=0.5, deps=[grad])
    b.declare_conservation("gradients", world * 4e6)
    return b.build()


class TestSplice:
    def test_world_size_mismatch_rejected(self):
        reshard = compile_reshard(NAMES[:2], NAMES, REPLICA)
        with pytest.raises(PlanError, match="splice"):
            splice_plans(reshard, _step_like_plan(world=4))

    def test_second_plan_roots_anchor_on_the_exit_barriers(self):
        reshard = compile_reshard(NAMES, NAMES[:2], REPLICA)
        step = _step_like_plan()
        spliced = splice_plans(reshard, step)
        assert validate_plan(spliced) == []
        exits = {op.uid for op in spliced
                 if isinstance(op, Barrier) and "exit" in op.uid}
        by_uid = {op.uid: op for op in spliced}
        for op in step:
            if op.deps:
                continue  # non-roots keep their in-plan deps
            moved = by_uid[op.uid]
            assert len(moved.deps) == 1
            assert moved.deps[0] in exits
        # No step op may start before its rank's state landed.
        assert len(spliced) == len(reshard) + len(step)

    def test_colliding_uids_are_suffixed_and_deps_remapped(self):
        first = compile_reshard(NAMES[:2], NAMES, REPLICA)
        second = compile_reshard(NAMES[:2], NAMES, REPLICA)
        spliced = splice_plans(first, second)
        assert validate_plan(spliced) == []
        uids = [op.uid for op in spliced]
        assert len(uids) == len(set(uids))
        assert any(uid.endswith("+s") for uid in uids)

    def test_conservation_merges_across_the_splice(self):
        reshard = compile_reshard(NAMES, NAMES[:2], REPLICA, SHARD)
        spliced = splice_plans(reshard, _step_like_plan())
        totals = spliced.meta["conservation"]
        assert totals["replica-state"] == pytest.approx(2 * REPLICA)
        assert totals["shard-state"] == pytest.approx(4 * SHARD)
        assert totals["gradients"] == pytest.approx(16e6)


# -- pass conformance --------------------------------------------------------

def _payload_totals(plan):
    totals = {}
    for op in plan:
        payload = getattr(op, "payload", None)
        if payload is not None:
            totals[payload] = totals.get(payload, 0.0) + op.bytes
    return totals


def _sync_seq(plan, rank):
    seq = []
    for op in plan.by_rank(rank):
        if isinstance(op, Collective):
            seq.extend([(op.comm, op.root, op.payload)]
                       * max(1, op.fused))
        elif isinstance(op, Barrier):
            seq.append(("barrier", None, None))
    return seq


def _assert_conformant(before, after):
    assert validate_plan(after) == []
    b_totals, a_totals = _payload_totals(before), _payload_totals(after)
    assert set(b_totals) == set(a_totals)
    for payload, total in b_totals.items():
        assert math.isclose(a_totals[payload], total, rel_tol=1e-9)
    for rank in range(before.world_size):
        assert _sync_seq(after, rank) == _sync_seq(before, rank)


def _reshard_variants():
    return {
        "grow": compile_reshard(NAMES, NAMES[:2], REPLICA),
        "shrink": compile_reshard(NAMES[:2], NAMES, REPLICA),
        "sharded": compile_reshard(NAMES, NAMES[:3], REPLICA, SHARD),
        "spliced": splice_plans(
            compile_reshard(NAMES, NAMES[:2], REPLICA, SHARD),
            _step_like_plan()),
    }


@pytest.mark.parametrize("pass_name", sorted(PASS_REGISTRY))
@pytest.mark.parametrize("variant", sorted(_reshard_variants()))
def test_every_pass_preserves_the_reshard_contract(pass_name, variant):
    plan = _reshard_variants()[variant]
    out = PASS_REGISTRY[pass_name]().run(plan, PassContext())
    _assert_conformant(plan, out)


@pytest.mark.parametrize("variant", sorted(_reshard_variants()))
def test_full_pipeline_conformant_on_reshard_plans(variant):
    plan = _reshard_variants()[variant]
    out = PassManager(resolve_passes("all")).run(plan, PassContext())
    _assert_conformant(plan, out)


# -- engine equivalence ------------------------------------------------------

def _ctx(system, gpus):
    comm = Communicator(system.env, system.topology,
                        [g.name for g in gpus], gpus=list(gpus))
    return ExecutionContext(env=system.env, comm=comm, gpus=list(gpus),
                            topology=system.topology,
                            host_node=system.host.dram_node,
                            storage=system.host.scratch)


class TestEngineEquivalence:
    def test_grow_reshard_times_identically_on_both_engines(self):
        system = ComposableSystem()
        gpus = system.falcon_gpus[:4]
        names = [g.name for g in gpus]
        plan = compile_reshard(names, names[:2], REPLICA, SHARD)
        timing = evaluate_plan(plan, _ctx(system, gpus),
                               assert_equivalence=True)
        assert timing.makespan > 0

    def test_reshard_spliced_step_plan_times_identically(self):
        # The shape the elastic runtime actually executes: the resize's
        # state redistribution fused in front of the new ring's first
        # compiled training step.
        system = ComposableSystem()
        gpus = system.falcon_gpus[:4]
        names = [g.name for g in gpus]
        config = TrainingConfig(benchmark=get_benchmark("resnet50"),
                                global_batch=8, sim_steps=2,
                                sim_checkpoints=0)
        job = TrainingJob(system.env, system.topology, system.host,
                          gpus, system.host.scratch, config)
        spliced = splice_plans(
            compile_reshard(names, names[:2], REPLICA), job.step_plan)
        timing = evaluate_plan(spliced, _ctx(system, gpus),
                               assert_equivalence=True)
        assert timing.makespan \
            > evaluate_plan(job.step_plan, _ctx(system, gpus)).makespan
