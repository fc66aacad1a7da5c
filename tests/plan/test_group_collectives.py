"""Grouped (subgroup) collectives: IR validation, subgroup communicator
plumbing, executor/fast-path rendezvous, and the validator's
per-communicator rank-symmetry checks.

Subgroup collectives are what tensor/2D parallelism compile to: a
``group`` tuple of world rank indices restricts the rendezvous to those
members, with ``root`` still expressed as a world rank.  These tests
exercise the machinery directly on small hand-built plans, independent
of the strategy compilers.
"""

import pytest

from repro.core import ComposableSystem
from repro.devices.gpu import Precision
from repro.plan import (
    ExecutionContext,
    PlanBuilder,
    PlanError,
    evaluate_plan,
    fastpath_schedule,
    validate_plan,
)
from repro.plan.validate import sync_sequences
from repro.training import CollectiveError, Communicator


def make_ctx(world=4):
    system = ComposableSystem()
    active = system.configure("localGPUs")
    gpus = list(active.gpus)[:world]
    comm = Communicator(system.env, system.topology,
                        [g.name for g in gpus], gpus=gpus)
    ctx = ExecutionContext(env=system.env, comm=comm, gpus=gpus,
                          topology=system.topology,
                          host_node=system.host.dram_node,
                          storage=active.storage)
    return system, ctx


def _compute(b, rank, name, deps=()):
    return b.compute(rank, name, flops=1e11, hbm_bytes=0.0,
                     precision=Precision.FP16, efficiency=0.5,
                     deps=deps)


def grouped_plan(world=4):
    """Two disjoint pair-groups, then a world allreduce — the 2D shape."""
    b = PlanBuilder("grouped", world_size=world)
    half = world // 2
    for rank in range(world):
        group = tuple(range(half)) if rank < half \
            else tuple(range(half, world))
        f = _compute(b, rank, "fwd")
        g = b.collective(rank, "tp-gather", "all_gather", 4e6,
                         group=group, deps=[f])
        r = b.collective(rank, "tp-bcast", "broadcast", 2e6,
                         root=group[0], group=group, deps=[g])
        b.collective(rank, "dp-allreduce", "allreduce", 8e6, deps=[r])
    return b.build()


# -- builder validation ------------------------------------------------------

class TestBuilderGroupValidation:
    def build(self, **kwargs):
        b = PlanBuilder("p", world_size=4)
        f = _compute(b, 0, "fwd")
        b.collective(0, "c", "allreduce", 1e6, deps=[f], **kwargs)

    def test_unsorted_group_rejected(self):
        with pytest.raises(PlanError, match="sorted"):
            self.build(group=(2, 0))

    def test_duplicate_member_rejected(self):
        with pytest.raises(PlanError, match="sorted|unique"):
            self.build(group=(0, 0, 2))

    def test_out_of_range_member_rejected(self):
        with pytest.raises(PlanError, match="out-of-range"):
            self.build(group=(0, 7))

    def test_issuing_rank_must_be_member(self):
        with pytest.raises(PlanError, match="not in its group"):
            self.build(group=(1, 2))

    def test_root_must_be_member(self):
        with pytest.raises(PlanError, match="root 3 not in group"):
            self.build(group=(0, 1), root=3)

    def test_valid_group_accepted(self):
        self.build(group=(0, 1), root=1)


# -- communicator subgroups --------------------------------------------------

class TestSubgroupCommunicator:
    def test_subgroup_is_cached_per_member_tuple(self):
        _system, ctx = make_ctx()
        child = ctx.comm.subgroup((0, 1))
        assert ctx.comm.subgroup((0, 1)) is child
        assert child.world_size == 2
        assert child.ranks == [ctx.comm.ranks[0], ctx.comm.ranks[1]]
        other = ctx.comm.subgroup((2, 3))
        assert other is not child

    def test_subgroup_rejects_bad_member_lists(self):
        _system, ctx = make_ctx()
        with pytest.raises(CollectiveError):
            ctx.comm.subgroup((1, 0))
        with pytest.raises(CollectiveError):
            ctx.comm.subgroup((0, 9))

    def test_abort_cascades_to_subgroups(self):
        _system, ctx = make_ctx()
        child = ctx.comm.subgroup((0, 2))
        ctx.comm.abort()
        assert child.closed


# -- engines -----------------------------------------------------------------

class TestGroupedExecution:
    def test_fastpath_matches_executor_on_grouped_plan(self):
        _system, ctx = make_ctx()
        plan = grouped_plan()
        timing = evaluate_plan(plan, ctx, assert_equivalence=True)
        assert timing.mode == "fastpath"
        assert timing.makespan > 0.0

    def test_disjoint_groups_overlap_in_time(self):
        # The two pair-groups share no ranks, so their collectives
        # rendezvous independently — group (2, 3) must not wait for
        # group (0, 1)'s ops (world-wide matching would serialize or
        # stall them).
        _system, ctx = make_ctx()
        plan = grouped_plan()
        timing = fastpath_schedule(plan, ctx)
        left = timing.op_times["r0:tp-gather"]
        right = timing.op_times["r2:tp-gather"]
        assert left[0] < right[1] and right[0] < left[1]

    def test_same_instant_joins_on_one_communicator_agree(self):
        # Two collectives on the *same* communicator joined at the same
        # instant, both released by ``fwd``: both engines match them in
        # plan order.
        def plan():
            b = PlanBuilder("tied", world_size=2)
            for rank in range(2):
                f = _compute(b, rank, "fwd")
                b.collective(rank, "a", "allreduce", 1e6, deps=[f])
                b.collective(rank, "b", "allreduce", 1e6, deps=[f])
            return b.build()

        evaluate_plan(plan(), make_ctx(world=2)[1],
                      assert_equivalence=True)
        assert evaluate_plan(plan(), make_ctx(world=2)[1],
                             mode="auto").mode == "fastpath"

    def test_same_instant_joins_on_different_communicators_allowed(self):
        # ...but different communicators have independent matching —
        # the shape a 2D step's tp/dp chain produces.
        _system, ctx = make_ctx(world=2)
        b = PlanBuilder("split", world_size=2)
        for rank in range(2):
            f = _compute(b, rank, "fwd")
            b.collective(rank, "pair", "allreduce", 1e6, group=(0, 1),
                         deps=[f])
            b.collective(rank, "world", "allreduce", 1e6, deps=[f])
        timing = evaluate_plan(b.build(), ctx, assert_equivalence=True)
        assert timing.makespan > 0.0


# -- validator ---------------------------------------------------------------

class TestGroupValidation:
    def test_grouped_plan_is_clean(self):
        assert validate_plan(grouped_plan()) == []

    def test_sync_sequences_key_by_communicator(self):
        seqs = sync_sequences(grouped_plan())
        assert set(seqs) == {None, (0, 1), (2, 3)}
        assert set(seqs[(0, 1)]) == {0, 1}
        assert len(seqs[(0, 1)][0]) == 2   # tp-gather, tp-bcast
        assert len(seqs[None][0]) == 1     # dp-allreduce

    def test_group_member_missing_op_is_flagged(self):
        b = PlanBuilder("lopsided", world_size=4)
        for rank in range(4):
            f = _compute(b, rank, "fwd")
            if rank != 1:
                grp = (0, 1) if rank < 2 else (2, 3)
                if rank in grp:
                    b.collective(rank, "g", "all_gather", 1e6,
                                 group=grp, deps=[f])
        problems = validate_plan(b.build())
        assert any("rank-symmetry" in p for p in problems)

    def test_non_member_issuing_on_group_is_flagged(self):
        # Hand-construct the stray op (the builder would refuse it).
        from dataclasses import replace

        plan = grouped_plan()
        stray = None
        ops = []
        for op in plan.ops:
            if op.uid == "r2:tp-gather":
                stray = replace(op, group=(0, 1))
                ops.append(stray)
            else:
                ops.append(op)
        from repro.plan import StepPlan

        bad = StepPlan(plan.name, plan.world_size, ops, plan.meta)
        problems = validate_plan(bad)
        assert any("not a member" in p or "rank-symmetry" in p
                   for p in problems)
