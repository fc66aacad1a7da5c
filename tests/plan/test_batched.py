"""Lane evaluation: each lane's own fast-path timing, in input order."""

from repro.plan import fastpath_schedule
from repro.plan.batched import evaluate_batch
from repro.telemetry.profile import scale_plan

from .test_fastpath import make_ctx, taxonomy_plan


class TestEquivalence:
    def test_batched_matches_scalar_exactly(self):
        ctx = make_ctx()
        plan = taxonomy_plan()
        lanes = [(scale_plan(plan, "compute", f), ctx)
                 for f in (2.0, 0.5, 1.0, 1.25)]
        res = evaluate_batch(lanes)
        assert len(res.timings) == len(lanes)
        assert res.diverged == []
        for (lane_plan, c), timing in zip(lanes, res.timings):
            scalar = fastpath_schedule(lane_plan, c)
            assert timing.mode == "fastpath"
            assert timing.op_times == scalar.op_times
            assert timing.makespan == scalar.makespan

    def test_empty_input(self):
        res = evaluate_batch([])
        assert res.timings == []
        assert res.diverged == []
