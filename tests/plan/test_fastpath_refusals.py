"""Every fast-path refusal must degrade, not fail: ``mode="auto"``
falls back to the event-loop executor and the engines agree.

The scalar engine refuses plans whose semantics it cannot prove it
preserves — stochastic jitter, watchdog races, storage-queue ties, and
stream or rendezvous ties between ops that different events released
when their order would change a time.  Ties that one event released run
on the fast path: both engines serve them in plan order
(``test_fifo_admission_tie``, ``test_rendezvous_tie``).  Refusal is
only safe if the public entry point turns it into an executor
evaluation with the *same* timings an explicit executor run produces;
these tests pin that contract for each refusal path.
"""

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

#: One 1e11-flop kernel on a localGPUs V100 (FP16 at half efficiency).
KERNEL_S = 1.6e-3


def cross_rank_storage_tie_plan():
    """Two root computes per rank, each followed by a 0-byte write.

    Rank 0's second write and rank 1's first write reach the storage
    queue at the same instant.
    """
    b = PlanBuilder("ckpt", world_size=2)
    for rank, flops in ((0, (1e11, 1e11)), (1, (2e11, 1e11))):
        for i, f in enumerate(flops):
            c = _compute(b, rank, f"c{i}", flops=f)
            b.storage_write(rank, f"s{2 * i + 1}", 0.0, deps=[c])
    return b.build()


def differently_released_stream_tie_plan():
    """A kernel and an equal delay end together; each releases a kernel.

    The executor's delay timer fires first (its release chain is
    shorter), so the two released kernels reach the stream in the
    opposite order to the fast path's.
    """
    b = PlanBuilder("step", world_size=1)
    kernel = _compute(b, 0, "kernel", flops=1e11)
    delay = b.delay(0, "delay", seconds=KERNEL_S)
    _compute(b, 0, "after-kernel", deps=[kernel], flops=1e11)
    _compute(b, 0, "after-delay", deps=[delay], flops=1e12)
    return b.build()


def differently_released_rendezvous_tie_plan():
    """Rank 0 joins ``a`` and ``b`` at one instant, released by a kernel
    and an equal delay; rank 1 joins ``b`` much later.

    The engines hand rank 0's two joins opposite op ids, so each one
    pairs with the other rank's early or late arrival.
    """
    b = PlanBuilder("step", world_size=2)
    kernel = _compute(b, 0, "kernel", flops=1e11)
    delay = b.delay(0, "delay", seconds=KERNEL_S)
    b.collective(0, "a", "allreduce", 1e6, deps=[kernel])
    b.collective(0, "b", "allreduce", 1e6, deps=[delay])
    b.collective(1, "a", "allreduce", 1e6)
    wait = _compute(b, 1, "wait", flops=1e12)
    b.collective(1, "b", "allreduce", 1e6, deps=[wait])
    return b.build()


def jointly_released_stream_tie_plan():
    """A kernel queued behind another and an equal delay end together.

    The fast path finishes the kernel first, so the delay's completion
    releases both ``x`` (which needs both) and ``y``; the executor
    finishes the delay first, releasing ``y`` before the kernel
    releases ``x``.
    """
    b = PlanBuilder("step", world_size=1)
    _compute(b, 0, "k1", flops=1e11)
    kernel = _compute(b, 0, "k2", flops=1e11)
    delay = b.delay(0, "delay", seconds=2 * KERNEL_S)
    _compute(b, 0, "x", deps=[kernel, delay], flops=1e12)
    _compute(b, 0, "y", deps=[delay], flops=1e11)
    return b.build()


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


def assert_stays_on_fast_path(plan_factory, ctx_factory):
    """No refusal: auto keeps the fast path, and its timings equal an
    explicit executor run's."""
    auto = evaluate_plan(plan_factory(), ctx_factory(), mode="auto")
    assert auto.mode == "fastpath"
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
        # Two root computes on one rank are ready at t=0. The seed
        # released both, so the stream admits them in plan order in
        # both engines and auto does not fall back.
        def plan():
            b = PlanBuilder("step", world_size=1)
            _compute(b, 0, "a")
            _compute(b, 0, "b")
            return b.build()

        assert_stays_on_fast_path(plan, lambda: make_ctx(world=1))

    def test_rendezvous_tie(self):
        # Back-to-back root collectives whose join arrivals coincide:
        # one event released them, so the matcher pairs them in plan
        # order and auto does not fall back.
        def plan():
            b = PlanBuilder("step", world_size=2)
            for rank in range(2):
                b.collective(rank, "g1", "allreduce", 1e6)
                b.collective(rank, "g2", "allreduce", 1e6)
            return b.build()

        assert_stays_on_fast_path(plan, make_ctx)

    def test_differently_released_stream_tie(self):
        # Two kernels reach one stream at one instant, released by
        # different events: the executor serves after-delay first.
        assert_falls_back(differently_released_stream_tie_plan,
                          lambda: make_ctx(world=1), match="event loop")

    def test_differently_released_rendezvous_tie(self):
        assert_falls_back(differently_released_rendezvous_tie_plan,
                          make_ctx, match="event loop")

    def test_jointly_released_stream_tie(self):
        # x's two deps end together, so no one event released it.
        assert_falls_back(jointly_released_stream_tie_plan,
                          lambda: make_ctx(world=1), match="event loop")

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
        def plan():
            b = PlanBuilder("ckpt", world_size=1)
            for i in range(3):
                b.storage_write(0, f"shard-{i}", 1e6)
            return b.build()

        assert_falls_back(plan, lambda: make_ctx(world=1, queue_depth=1),
                          match="admission")

    def test_cross_rank_storage_tie_diverges(self):
        # The counterexample that keeps the admission refusal: rank 0's
        # second write and rank 1's first write queue at the same
        # instant, and the engines admit them in different orders (with
        # the refusal deleted, r0:s3 ends at 0.00331 s on the fast path
        # but 0.00342 s on the executor).
        assert_falls_back(cross_rank_storage_tie_plan,
                          lambda: make_ctx(queue_depth=1),
                          match="admission")
