"""Generic plan executor on real devices: ordering, failure, cancel."""

import pytest

from repro.core import ComposableSystem
from repro.devices.gpu import Precision
from repro.plan import (
    ExecutionContext,
    PlanBuilder,
    PlanError,
    PlanExecution,
    exposed_comm_seconds,
)
from repro.plan.executor import _merge_intervals, _subtract_intervals
from repro.telemetry import Tracer
from repro.training import CollectiveError, Communicator


def make_ctx(world=2, jitter=None):
    system = ComposableSystem()
    active = system.configure("localGPUs")
    gpus = list(active.gpus)[:world]
    comm = Communicator(system.env, system.topology,
                        [g.name for g in gpus], gpus=gpus)
    kwargs = {} if jitter is None else {"jitter": jitter}
    return ExecutionContext(env=system.env, comm=comm, gpus=gpus,
                            topology=system.topology,
                            host_node=system.host.dram_node,
                            storage=active.storage, **kwargs)


def run_plan(plan, ctx, ranks=None):
    execution = PlanExecution(plan, ctx)
    for rank in ranks or range(plan.world_size):
        ctx.env.process(execution.run_rank(rank))
    ctx.env.run()
    return execution


def _compute(b, rank, name, deps=(), flops=1e12, jittered=False):
    return b.compute(rank, name, flops=flops, hbm_bytes=0.0,
                     precision=Precision.FP16, efficiency=0.5,
                     jittered=jittered, deps=deps)


class TestExecution:
    def test_full_taxonomy_runs_and_orders_by_deps(self):
        ctx = make_ctx()
        b = PlanBuilder("step", world_size=2)
        uids = {}
        for rank in range(2):
            h = b.h2d(rank, "input", 1e6)
            f = _compute(b, rank, "forward", deps=[h])
            g = b.collective(rank, "grad", "allreduce", 1e6, deps=[f])
            uids[rank] = {"input": h, "forward": f, "grad": g}
        # Rank 0 also checkpoints; rank 1 just rejoins at the barrier.
        d = b.d2h(0, "ckpt-d2h", 1e6, deps=[uids[0]["grad"]])
        w = b.storage_write(0, "ckpt-write", 1e6, deps=[d])
        r = b.storage_read(0, "reload", 1e6, deps=[w])
        s0 = b.barrier(0, "sync", deps=[r])
        s1 = b.barrier(1, "sync", deps=[uids[1]["grad"]])
        execution = run_plan(b.build(), ctx)

        assert execution.all_ranks_done
        for rank in range(2):
            h0, h1 = execution.op_times(uids[rank]["input"])
            f0, f1 = execution.op_times(uids[rank]["forward"])
            assert h1 > h0 and f0 >= h1 and f1 > f0
        # The collective is a rendezvous: both ranks end together.
        assert execution.op_times(uids[0]["grad"])[1] == \
            execution.op_times(uids[1]["grad"])[1]
        d0, d1 = execution.op_times(d)
        w0, w1 = execution.op_times(w)
        assert w0 >= d1 and w1 > w0
        # Rank 1 stalls at the barrier until rank 0's storage round-trip.
        assert execution.op_times(s1)[1] == execution.op_times(s0)[1]
        assert execution.op_times(s1)[1] >= execution.op_times(r)[1]

    def test_cross_rank_p2p_dependency(self):
        ctx = make_ctx()
        b = PlanBuilder("pipe", world_size=2)
        f0 = _compute(b, 0, "fwd-stage0")
        send = b.p2p(0, "send-act", 1, 1e6, deps=[f0])
        f1 = _compute(b, 1, "fwd-stage1", deps=[send])
        execution = run_plan(b.build(), ctx)
        assert execution.op_times(f1)[0] >= execution.op_times(send)[1]

    def test_delay_elapsed_fraction_scales_with_rank_elapsed(self):
        ctx = make_ctx(world=1)
        b = PlanBuilder("step", world_size=1)
        f = _compute(b, 0, "forward")
        d = b.delay(0, "step-overhead", elapsed_fraction=1.0, deps=[f])
        execution = run_plan(b.build(), ctx)
        f0, f1 = execution.op_times(f)
        d0, d1 = execution.op_times(d)
        assert d1 - d0 == pytest.approx(f1 - f0, rel=1e-9)

    def test_jitter_applies_only_to_jittered_computes(self):
        ctx = make_ctx(world=1, jitter=lambda: 2.0)
        b = PlanBuilder("step", world_size=1)
        noisy = _compute(b, 0, "forward", jittered=True)
        clean = _compute(b, 0, "optimizer", deps=[noisy])
        execution = run_plan(b.build(), ctx)
        n0, n1 = execution.op_times(noisy)
        c0, c1 = execution.op_times(clean)
        assert (n1 - n0) == pytest.approx(2.0 * (c1 - c0), rel=1e-9)

    def test_op_times_raises_before_completion(self):
        ctx = make_ctx(world=1)
        b = PlanBuilder("step", world_size=1)
        _compute(b, 0, "forward")
        execution = PlanExecution(b.build(), ctx)
        with pytest.raises(PlanError, match="has not completed"):
            execution.op_times("r0:forward")


class TestFailureAndCancel:
    def test_collective_error_propagates_out_of_run_rank(self):
        # Deliberately rank-asymmetric: the validator rejects this plan,
        # so stamp it as validated to sneak past the executor's upfront
        # check — the point is that the *communicator's* own runtime
        # error still surfaces for plans that dodge static validation.
        ctx = make_ctx()
        b = PlanBuilder("bad", world_size=2)
        b.collective(0, "grad", "allreduce", 1e6)
        b.collective(1, "grad", "reduce_scatter", 1e6)
        plan = b.build()
        plan.validated = True
        with pytest.raises(CollectiveError, match="mismatch"):
            run_plan(plan, ctx)

    def test_cancel_abandons_inflight_ops(self):
        ctx = make_ctx()
        b = PlanBuilder("step", world_size=2)
        for rank in range(2):
            b.collective(rank, "grad", "allreduce", 1e9)
        execution = PlanExecution(b.build(), ctx)
        # Only rank 0 runs: its collective can never rendezvous.
        ctx.env.process(execution.run_rank(0))

        def chaos():
            yield ctx.env.timeout(1.0)
            execution.cancel()

        ctx.env.process(chaos())
        ctx.env.run()  # returns: the stuck op was interrupted away
        assert not execution.all_ranks_done
        with pytest.raises(PlanError):
            execution.op_times("r0:grad")


class TestExposedComm:
    @pytest.mark.parametrize("model,strategy", [
        ("bert-large", "ddp"),       # bucketed allreduce under backward
        ("resnet50", "pipeline"),    # stage sends under the next micro-batch
    ])
    def test_matches_the_traced_exposed_sync_spans(self, model, strategy):
        system = ComposableSystem()
        job = system.job(model, "falconGPUs", strategy,
                         tracer=Tracer(system.env))
        plan, ctx = job.step_plan, job._exec_ctx
        execution = PlanExecution(plan, ctx)
        procs = [ctx.env.process(execution.run_rank(rank))
                 for rank in range(plan.world_size)]
        ctx.env.run(ctx.env.all_of(procs))
        times = {op.uid: execution.op_times(op.uid) for op in plan}
        for rank in range(plan.world_size):
            track = ctx.track_for(rank)
            spans = sum(s.duration for s in ctx.tracer.spans
                        if s.name == "exposed-sync" and s.track == track)
            assert spans > 0.0
            assert exposed_comm_seconds(plan, times, rank) == spans


class TestIntervalHelpers:
    def test_merge(self):
        assert _merge_intervals([(3, 4), (0, 1), (0.5, 2)]) == \
            [(0, 2), (3, 4)]

    def test_subtract(self):
        base = [(0.0, 10.0)]
        holes = [(2.0, 3.0), (5.0, 7.0)]
        assert _subtract_intervals(base, holes) == \
            [(0.0, 2.0), (3.0, 5.0), (7.0, 10.0)]

    def test_subtract_covering_hole(self):
        assert _subtract_intervals([(1.0, 2.0)], [(0.0, 5.0)]) == []
