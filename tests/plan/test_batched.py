"""Vectorized batch evaluation: grouping, equivalence, fallback paths."""

import dataclasses

import pytest

from repro.plan import (
    LaneIncompatible,
    PlanBuilder,
    evaluate_batch,
    evaluate_plan,
    plan_structure_key,
)
from repro.experiments.software_opts import VARIANTS
from repro.plan.batched import _LaneResolver, _record
from repro.telemetry import Tracer
from repro.telemetry.profile import scale_plan

from ..training.test_fastpath_golden import build_job
from .test_fastpath import _compute, make_ctx, taxonomy_plan


def scaled_lanes(ctx, factors=(0.5, 0.75, 1.0, 1.25, 2.0)):
    plan = taxonomy_plan()
    return [(scale_plan(plan, "compute", f), ctx) for f in factors]


class TestStructureKey:
    def test_scaling_preserves_key(self):
        ctx = make_ctx()
        lanes = scaled_lanes(ctx)
        keys = {plan_structure_key(p, c) for p, c in lanes}
        assert len(keys) == 1

    def test_extra_op_changes_key(self):
        ctx = make_ctx(world=1)
        b = PlanBuilder("step", world_size=1)
        _compute(b, 0, "forward")
        one = b.build()
        b = PlanBuilder("step", world_size=1)
        f = _compute(b, 0, "forward")
        _compute(b, 0, "backward", deps=[f])
        two = b.build()
        assert plan_structure_key(one, ctx) != plan_structure_key(two, ctx)

    def test_zero_byte_short_circuit_changes_key(self):
        # A transfer under epsilon takes the no-flow path; lanes on the
        # two sides of the threshold must not share a tape.
        ctx = make_ctx(world=1)

        def plan(nbytes):
            b = PlanBuilder("step", world_size=1)
            b.h2d(0, "input", nbytes)
            return b.build()

        assert plan_structure_key(plan(1e6), ctx) != \
            plan_structure_key(plan(0.0), ctx)

    def test_separate_systems_same_key(self):
        # Structure is nominal (device/node names), so lanes built on
        # independent ComposableSystem instances still group.
        assert plan_structure_key(taxonomy_plan(), make_ctx()) == \
            plan_structure_key(taxonomy_plan(), make_ctx())


class TestEquivalence:
    def test_batched_matches_scalar_exactly(self):
        ctx = make_ctx()
        lanes = scaled_lanes(ctx)
        res = evaluate_batch(lanes, assert_equivalence=True)
        assert res.groups == 1
        assert res.batched_lanes == len(lanes)
        assert res.fallback_lanes == 0
        for (plan, c), timing in zip(lanes, res.timings):
            assert timing.mode == "batched"
            scalar = evaluate_plan(plan, c, mode="fastpath")
            # Replay drives the same float arithmetic in the same
            # order, so agreement is bit-exact, not just 1e-9.
            assert timing.op_times == scalar.op_times
            assert timing.makespan == scalar.makespan

    def test_tolerance_criterion(self):
        ctx = make_ctx()
        lanes = scaled_lanes(ctx)
        res = evaluate_batch(lanes)
        for (plan, c), timing in zip(lanes, res.timings):
            scalar = evaluate_plan(plan, c, mode="fastpath")
            for uid, (s, e) in timing.op_times.items():
                assert s == pytest.approx(scalar.op_times[uid][0],
                                          rel=1e-9, abs=1e-12)
                assert e == pytest.approx(scalar.op_times[uid][1],
                                          rel=1e-9, abs=1e-12)

    def test_empty_input(self):
        res = evaluate_batch([])
        assert res.timings == []
        assert res.groups == 0


class TestGrouping:
    def test_two_structures_two_groups(self):
        ctx = make_ctx()
        ctx1 = make_ctx(world=1)
        lanes = scaled_lanes(ctx, factors=(1.0, 2.0))
        b = PlanBuilder("solo", world_size=1)
        _compute(b, 0, "forward")
        solo = b.build()
        lanes += [(scale_plan(solo, "compute", f), ctx1)
                  for f in (1.0, 2.0)]
        res = evaluate_batch(lanes)
        assert res.groups == 2
        assert res.batched_lanes == 4

    def test_singleton_group_falls_back(self):
        ctx = make_ctx()
        res = evaluate_batch([(taxonomy_plan(), ctx)])
        assert res.groups == 1
        assert res.batched_lanes == 0
        assert res.fallback_lanes == 1
        assert res.timings[0].mode == "fastpath"

    def test_ineligible_lane_uses_fallback_mode(self):
        ctx = make_ctx()
        traced = make_ctx()
        traced.tracer = Tracer(traced.env)
        lanes = scaled_lanes(ctx, factors=(1.0, 2.0))
        lanes.append((taxonomy_plan(), traced))
        res = evaluate_batch(lanes, fallback="auto")
        assert res.batched_lanes == 2
        assert res.timings[2].mode == "executor"


def chain_plan(s1, s2):
    """Two delay->compute chains on one rank; delays set stream order."""
    b = PlanBuilder("step", world_size=1)
    d1 = b.delay(0, "stall-a", seconds=s1)
    _compute(b, 0, "a", deps=[d1])
    d2 = b.delay(0, "stall-b", seconds=s2)
    _compute(b, 0, "b", deps=[d2])
    return b.build()


#: Fig. 16 plans whose recording is cheap enough for tier-1 (the falcon
#: DDP plans take about a second each to record).
RECORDED_CELLS = [("localGPUs", v.name) for v in VARIANTS] + [
    ("falconGPUs", "Sharded-FP16"), ("falconGPUs", "Pipeline-FP16")]


class TestRecording:
    @pytest.mark.parametrize("config,variant", RECORDED_CELLS,
                             ids=[f"{c}/{v}" for c, v in RECORDED_CELLS])
    def test_reference_times_equal_scalar(self, config, variant):
        # Recording attaches emission to the scalar engine's own run, so
        # the reference lane's times are the scalar times, bit for bit.
        spec = next(v for v in VARIANTS if v.name == variant)
        job = build_job(config, spec, None)
        plan, ctx = job.step_plan, job._exec_ctx
        tape, timing = _record(plan, ctx)
        assert timing.op_times == evaluate_plan(plan, ctx,
                                                mode="fastpath").op_times
        assert tape.op_regs.keys() == timing.op_times.keys()


class TestDivergence:
    def test_flipped_order_falls_back_scalar(self):
        ctx = make_ctx(world=1)
        lanes = [(chain_plan(0.1, 0.2), ctx),   # reference: a before b
                 (chain_plan(0.11, 0.2), ctx),  # same order -> batched
                 (chain_plan(0.2, 0.1), ctx)]   # flipped -> guard fires
        res = evaluate_batch(lanes)
        assert res.diverged == [2]
        assert res.batched_lanes == 2
        assert res.timings[2].mode == "fastpath"
        for (plan, c), timing in zip(lanes, res.timings):
            scalar = evaluate_plan(plan, c, mode="fastpath")
            assert timing.op_times == scalar.op_times

    def test_refused_reference_sends_group_scalar(self):
        # Back-to-back rendezvous joins trip the scalar engine's tie
        # refusal while *recording*; the whole group must fall back to
        # per-lane evaluation (which, under "auto", runs the executor).
        ctx0, ctx1 = make_ctx(world=1), make_ctx(world=1)
        b = PlanBuilder("step", world_size=1)
        g = b.collective(0, "g1", "allreduce", 1e6)
        b.collective(0, "g2", "allreduce", 1e6, deps=[g])
        plan = b.build()
        res = evaluate_batch([(plan, ctx0), (plan, ctx1)],
                             fallback="auto")
        assert res.batched_lanes == 0
        assert res.fallback_lanes == 2
        assert all(t.mode == "executor" for t in res.timings)


    def test_storage_tie_while_recording_sends_group_scalar(self):
        # The reference lane's writes queue against a depth-1 command
        # queue at the same instant: the engine refuses that tie while
        # recording, exactly as it does scalar, so no lane is replayed.
        def ctx():
            c = make_ctx(world=1)
            c.storage.spec = dataclasses.replace(c.storage.spec,
                                                 queue_depth=1)
            return c

        def plan(gaps):
            b = PlanBuilder("ckpt", world_size=1)
            for i, gap in enumerate(gaps):
                d = b.delay(0, f"gap-{i}", seconds=gap)
                b.storage_write(0, f"shard-{i}", 1e6, deps=[d])
            return b.build()

        tied, staggered = (0.0, 0.0, 0.0), (0.0, 1e-3, 2e-3)
        lanes = [(plan(tied), ctx()), (plan(staggered), ctx())]
        assert plan_structure_key(*lanes[0]) == \
            plan_structure_key(*lanes[1])
        res = evaluate_batch(lanes, fallback="auto")
        assert res.batched_lanes == 0
        assert res.fallback_lanes == 2
        assert res.diverged == []
        for gaps, timing in zip((tied, staggered), res.timings):
            scalar = evaluate_plan(plan(gaps), ctx(), mode="auto")
            assert timing.mode == scalar.mode
            assert timing.op_times == scalar.op_times
        assert [t.mode for t in res.timings] == ["executor", "fastpath"]


class TestRatePrecondition:
    def test_capacity_mismatch_is_lane_incompatible(self):
        ctx_ref = make_ctx()
        ctx_slow = make_ctx()
        for link in ctx_slow.topology.links():
            link.spec = dataclasses.replace(
                link.spec, bandwidth=link.spec.bandwidth * 0.5)
        plan = taxonomy_plan()
        tape, _timing = _record(plan, ctx_ref)
        with pytest.raises(LaneIncompatible, match="capacit"):
            _LaneResolver(tape, plan, ctx_slow).resolve()

    def test_capacity_mismatch_falls_back_via_api(self):
        ctx_ref = make_ctx()
        ctx_slow = make_ctx()
        for link in ctx_slow.topology.links():
            link.spec = dataclasses.replace(
                link.spec, bandwidth=link.spec.bandwidth * 0.5)
        plan = taxonomy_plan()
        lanes = [(plan, ctx_ref), (scale_plan(plan, "compute", 1.5),
                                   ctx_ref), (plan, ctx_slow)]
        res = evaluate_batch(lanes)
        assert res.batched_lanes == 2
        assert res.fallback_lanes == 1
        slow_scalar = evaluate_plan(plan, ctx_slow, mode="fastpath")
        assert res.timings[2].op_times == slow_scalar.op_times
