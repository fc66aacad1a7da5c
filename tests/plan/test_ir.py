"""Plan IR: builder uid scheme, StepPlan invariants, formatting."""

import pytest

from repro.devices.gpu import Precision
from repro.plan import (
    Collective,
    Compute,
    PlanBuilder,
    PlanError,
    StepPlan,
    format_plan,
)


def _compute(b, rank, name, deps=()):
    return b.compute(rank, name, flops=1e9, hbm_bytes=1e6,
                     precision=Precision.FP16, efficiency=0.5, deps=deps)


class TestPlanBuilder:
    def test_uids_are_deterministic(self):
        b = PlanBuilder("p", world_size=2)
        assert _compute(b, 0, "forward") == "r0:forward"
        assert _compute(b, 1, "forward") == "r1:forward"
        # Repeats get an @n suffix in creation order.
        assert _compute(b, 0, "forward") == "r0:forward@1"
        assert _compute(b, 0, "forward") == "r0:forward@2"

    def test_two_compiles_yield_identical_uids(self):
        def compile_once():
            b = PlanBuilder("p", world_size=2)
            f = _compute(b, 0, "forward")
            b.collective(0, "grad", "allreduce", 1e6, deps=[f])
            return [op.uid for op in b.build()]

        assert compile_once() == compile_once()

    def test_rank_out_of_range(self):
        b = PlanBuilder("p", world_size=2)
        with pytest.raises(PlanError, match="out of range"):
            _compute(b, 2, "forward")

    def test_unknown_collective_kind(self):
        b = PlanBuilder("p", world_size=2)
        with pytest.raises(PlanError, match="unknown collective"):
            b.collective(0, "x", "gossip", 1e6)

    def test_p2p_rejects_self_copy(self):
        b = PlanBuilder("p", world_size=2)
        with pytest.raises(PlanError, match="sending rank itself"):
            b.p2p(0, "send", 0, 1e6)

    def test_dangling_dep_rejected_at_build(self):
        b = PlanBuilder("p", world_size=1)
        b.barrier(0, deps=["r0:nonexistent"])
        with pytest.raises(PlanError, match="unknown op"):
            b.build()

    def test_none_deps_are_dropped(self):
        b = PlanBuilder("p", world_size=1)
        f = _compute(b, 0, "forward")
        b.barrier(0, deps=[None, f, None])
        plan = b.build()
        assert plan.op("r0:barrier").deps == (f,)

    def test_conservation_declaration_lands_in_meta(self):
        b = PlanBuilder("p", world_size=1)
        b.declare_conservation("gradients", 5e9)
        assert b.build().meta["conservation"] == {"gradients": 5e9}


class TestStepPlan:
    def _plan(self):
        b = PlanBuilder("p", world_size=2)
        for rank in range(2):
            f = _compute(b, rank, "forward")
            g = b.collective(rank, "grad", "allreduce", 1e6, deps=[f])
            _compute(b, rank, "optimizer", deps=[g])
        return b.build()

    def test_duplicate_uid_rejected(self):
        op = Compute(uid="x", rank=0, name="x", deps=(), flops=1.0,
                     hbm_bytes=0.0, precision=Precision.FP16,
                     efficiency=0.5)
        with pytest.raises(PlanError, match="duplicate"):
            StepPlan("p", 1, [op, op])

    def test_by_rank_preserves_program_order(self):
        plan = self._plan()
        assert [op.name for op in plan.by_rank(1)] == \
            ["forward", "grad", "optimizer"]

    def test_counts_and_bytes(self):
        plan = self._plan()
        assert plan.counts() == {"compute": 4, "collective": 2}

    def test_topo_order_respects_deps(self):
        order = [op.uid for op in self._plan().topo_order()]
        assert order.index("r0:forward") < order.index("r0:grad") \
            < order.index("r0:optimizer")

    def test_lookup_and_membership(self):
        plan = self._plan()
        assert isinstance(plan.op("r0:grad"), Collective)
        assert "r1:optimizer" in plan and "r9:optimizer" not in plan
        with pytest.raises(PlanError, match="no op"):
            plan.op("r9:optimizer")


class TestFormatPlan:
    def test_listing_mentions_every_op_and_meta(self):
        b = PlanBuilder("demo", world_size=2, meta={"strategy": "test"})
        f = _compute(b, 0, "forward")
        b.collective(0, "grad", "allreduce", 25e6, deps=[f])
        _compute(b, 1, "forward")
        b.declare_conservation("gradients", 25e6)
        text = format_plan(b.build())
        assert "plan demo  world=2" in text
        assert "strategy: test" in text
        assert "conservation: gradients=25.00MB" in text
        assert "rank 0:" in text and "rank 1:" in text
        assert "allreduce" in text

    def test_rank_filter(self):
        b = PlanBuilder("demo", world_size=2)
        _compute(b, 0, "forward")
        _compute(b, 1, "forward")
        text = format_plan(b.build(), ranks=[1])
        assert "rank 1:" in text and "rank 0:" not in text
