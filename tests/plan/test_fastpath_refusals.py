"""Every fast-path refusal must degrade, not fail: ``mode="auto"``
falls back to the event-loop executor and the engines agree.

The scalar engine refuses plans whose semantics it cannot prove it
preserves — stochastic jitter, FIFO admission ties, rendezvous ties,
watchdog races, storage-queue ties.  Refusal is only safe if the public
entry point turns it into an executor evaluation with the *same*
timings an explicit executor run produces; these tests pin that
contract for each refusal path.
"""

import dataclasses

import pytest

from repro.core import ComposableSystem
from repro.plan import (
    ExecutionContext,
    FastPathUnsupported,
    PlanBuilder,
    evaluate_plan,
    fastpath_schedule,
)
from repro.training import Communicator

from .test_fastpath import _compute, make_ctx


def assert_times_agree(a, b):
    assert a.op_times.keys() == b.op_times.keys()
    for uid, (s, e) in a.op_times.items():
        s2, e2 = b.op_times[uid]
        assert s == pytest.approx(s2, rel=1e-9, abs=1e-12), uid
        assert e == pytest.approx(e2, rel=1e-9, abs=1e-12), uid
    assert a.makespan == pytest.approx(b.makespan, rel=1e-9, abs=1e-12)


def assert_falls_back(plan_factory, ctx_factory, match):
    """The refusal fires, auto degrades to the executor, engines agree.

    Fresh contexts per evaluation: the executor leg advances env and
    device state, so the comparison run needs its own world.
    """
    with pytest.raises(FastPathUnsupported, match=match):
        fastpath_schedule(plan_factory(), ctx_factory())
    auto = evaluate_plan(plan_factory(), ctx_factory(), mode="auto")
    assert auto.mode == "executor"
    explicit = evaluate_plan(plan_factory(), ctx_factory(),
                             mode="executor")
    assert_times_agree(auto, explicit)
    return auto


class TestRefusalFallbacks:
    def test_stochastic_jitter(self):
        # An opaque sampler might draw differently on replay; the fast
        # path refuses rather than freeze one sample per op.
        def plan():
            b = PlanBuilder("step", world_size=1)
            f = _compute(b, 0, "forward", jittered=True)
            _compute(b, 0, "opt", deps=[f], flops=1e11)
            return b.build()

        # Constant sampler: the executor stays deterministic, so two
        # independent executor runs must also land identically.
        assert_falls_back(plan, lambda: make_ctx(world=1,
                                                 jitter=lambda: 1.0),
                          match="jitter")

    def test_fifo_admission_tie(self):
        # Two root computes on one rank are ready at t=0: the engine
        # cannot prove which one the stream admits first.
        def plan():
            b = PlanBuilder("step", world_size=1)
            _compute(b, 0, "a")
            _compute(b, 0, "b")
            return b.build()

        assert_falls_back(plan, lambda: make_ctx(world=1), match="FIFO")

    def test_rendezvous_tie(self):
        # Back-to-back collectives whose join arrivals coincide: the
        # rendezvous matcher cannot order the groups.
        def plan():
            b = PlanBuilder("step", world_size=2)
            for rank in range(2):
                b.collective(rank, "g1", "allreduce", 1e6)
                b.collective(rank, "g2", "allreduce", 1e6)
            return b.build()

        assert_falls_back(plan, make_ctx, match="rendezvous")

    def test_watchdog_race(self):
        # A watchdog shorter than a rank's join-to-completion wait: the
        # fast path cannot decide whether the simulated job survives,
        # so the event loop must deliver the verdict.  Here the race is
        # real — both the auto fallback and an explicit executor run
        # raise the *simulated* failure, not FastPathUnsupported.
        from repro.training import CollectiveTimeout

        def ctx():
            system = ComposableSystem()
            active = system.configure("localGPUs")
            gpus = list(active.gpus)[:2]
            comm = Communicator(system.env, system.topology,
                                [g.name for g in gpus], gpus=gpus,
                                watchdog=1e-12)
            return ExecutionContext(
                env=system.env, comm=comm, gpus=gpus,
                topology=system.topology,
                host_node=system.host.dram_node,
                storage=active.storage)

        def plan():
            b = PlanBuilder("step", world_size=2)
            for rank in range(2):
                # Skew the arrivals so the collective itself is not a
                # t=0 tie — the watchdog is the only refusal left.
                f = _compute(b, rank, "fwd", flops=1e12 * (1 + rank))
                b.collective(rank, "grad", "allreduce", 1e6, deps=[f])
            return b.build()

        with pytest.raises(FastPathUnsupported, match="watchdog"):
            fastpath_schedule(plan(), ctx())
        with pytest.raises(CollectiveTimeout):
            evaluate_plan(plan(), ctx(), mode="auto")
        with pytest.raises(CollectiveTimeout):
            evaluate_plan(plan(), ctx(), mode="executor")

    def test_storage_admission_tie(self):
        # Three root writes against a depth-1 command queue, all ready
        # at t=0: admission order is the event loop's to decide.
        def ctx():
            c = make_ctx(world=1)
            c.storage.spec = dataclasses.replace(c.storage.spec,
                                                 queue_depth=1)
            return c

        def plan():
            b = PlanBuilder("ckpt", world_size=1)
            for i in range(3):
                b.storage_write(0, f"shard-{i}", 1e6)
            return b.build()

        assert_falls_back(plan, ctx, match="admission")
