"""Fast-path plan evaluation: eligibility, equivalence, refusal paths."""

import dataclasses

import pytest

from repro.core import ComposableSystem
from repro.devices.gpu import Precision
from repro.devices.storage import StorageDevice
from repro.fabric.link import SATA3
from repro.plan import (
    ExecutionContext,
    FastPathUnsupported,
    PlanBuilder,
    PlanTiming,
    evaluate_plan,
    fastpath_schedule,
    fastpath_support,
)
from repro.plan.fastpath import _assert_equal, _executor_timing
from repro.telemetry import Tracer
from repro.training import Communicator


def make_ctx(world=2, jitter=None, storage=True, queue_depth=None):
    """A localGPUs context; ``queue_depth`` swaps in a scratch drive
    whose command queue is built at that depth."""
    system = ComposableSystem()
    active = system.configure("localGPUs")
    gpus = list(active.gpus)[:world]
    comm = Communicator(system.env, system.topology,
                        [g.name for g in gpus], gpus=gpus)
    drive = active.storage
    if queue_depth is not None:
        drive = StorageDevice(
            system.env, system.topology, f"{drive.name}-qd{queue_depth}",
            dataclasses.replace(drive.spec, queue_depth=queue_depth))
        system.host.rc.attach(drive.name, SATA3)
    kwargs = {} if jitter is None else {"jitter": jitter}
    return ExecutionContext(env=system.env, comm=comm, gpus=gpus,
                            topology=system.topology,
                            host_node=system.host.dram_node,
                            storage=drive if storage else None,
                            **kwargs)


def _compute(b, rank, name, deps=(), flops=1e12, jittered=False):
    return b.compute(rank, name, flops=flops, hbm_bytes=0.0,
                     precision=Precision.FP16, efficiency=0.5,
                     jittered=jittered, deps=deps)


def taxonomy_plan(world=2):
    """One plan touching every op kind (the executor test's shape)."""
    b = PlanBuilder("step", world_size=world)
    for rank in range(world):
        h = b.h2d(rank, "input", 1e6)
        f = _compute(b, rank, "forward", deps=[h])
        g = b.collective(rank, "grad", "allreduce", 1e6, deps=[f])
        o = b.collective(rank, "gather", "all_gather", 1e6, deps=[g])
        s = b.collective(rank, "shard", "reduce_scatter", 1e6, deps=[o])
        c = b.collective(rank, "bcast", "broadcast", 1e6, root=0,
                         deps=[s])
        r = b.collective(rank, "stats", "reduce", 1e6, root=1, deps=[c])
        d = b.delay(rank, "overhead", seconds=1e-4,
                    elapsed_fraction=0.01, deps=[r])
        if rank == 0:
            dh = b.d2h(0, "ckpt-d2h", 1e6, deps=[d])
            w = b.storage_write(0, "ckpt-write", 1e6, deps=[dh])
            rd = b.storage_read(0, "reload", 1e6, deps=[w])
            b.barrier(0, "sync", deps=[rd])
        else:
            p = b.p2p(rank, "send-act", 0, 1e6, deps=[d])
            b.barrier(rank, "sync", deps=[p])
    return b.build()


class TestSupport:
    def test_eligible_by_default(self):
        ctx = make_ctx()
        assert fastpath_support(taxonomy_plan(), ctx) is None

    def test_enabled_tracer_forces_executor(self):
        ctx = make_ctx()
        ctx.tracer = Tracer(ctx.env)
        reason = fastpath_support(taxonomy_plan(), ctx)
        assert reason is not None and "tracing" in reason
        with pytest.raises(FastPathUnsupported):
            fastpath_schedule(taxonomy_plan(), ctx)

    def test_traced_topology_forces_executor(self):
        ctx = make_ctx()
        ctx.topology.tracer = Tracer(ctx.env)
        assert "topology" in fastpath_support(taxonomy_plan(), ctx)

    def test_missing_communicator(self):
        ctx = make_ctx()
        ctx.comm = None
        assert "communicator" in fastpath_support(taxonomy_plan(), ctx)

    def test_missing_storage(self):
        ctx = make_ctx(storage=False)
        assert "storage" in fastpath_support(taxonomy_plan(), ctx)

    def test_stochastic_jitter_blocks_jittered_computes(self):
        ctx = make_ctx(jitter=lambda: 1.0)  # unknown sampler
        b = PlanBuilder("step", world_size=1)
        _compute(b, 0, "forward", jittered=True)
        assert "jitter" in fastpath_support(b.build(), ctx)
        # Non-jittered plans never sample, so they stay eligible.
        b = PlanBuilder("step", world_size=1)
        _compute(b, 0, "forward")
        assert fastpath_support(b.build(), ctx) is None

    def test_disabled_rng_jitter_is_deterministic(self):
        class Costs:
            rng = None

            def jitter_factor(self):
                return 1.0

        ctx = make_ctx(jitter=Costs().jitter_factor)
        b = PlanBuilder("step", world_size=1)
        _compute(b, 0, "forward", jittered=True)
        assert fastpath_support(b.build(), ctx) is None


class TestEquivalence:
    def test_taxonomy_plan_matches_executor(self):
        ctx = make_ctx()
        timing = evaluate_plan(taxonomy_plan(), ctx,
                               assert_equivalence=True)
        assert timing.mode == "fastpath"
        assert timing.makespan > 0

    def test_modes(self):
        assert evaluate_plan(taxonomy_plan(), make_ctx(),
                             mode="fastpath").mode == "fastpath"
        assert evaluate_plan(taxonomy_plan(), make_ctx(),
                             mode="executor").mode == "executor"
        with pytest.raises(ValueError, match="unknown mode"):
            evaluate_plan(taxonomy_plan(), make_ctx(), mode="warp")

    def test_auto_falls_back_when_ineligible(self):
        ctx = make_ctx()
        ctx.tracer = Tracer(ctx.env)
        assert evaluate_plan(taxonomy_plan(), ctx).mode == "executor"

    def test_delay_elapsed_fraction(self):
        ctx = make_ctx(world=1)
        b = PlanBuilder("step", world_size=1)
        f = _compute(b, 0, "forward")
        d = b.delay(0, "step-overhead", elapsed_fraction=1.0, deps=[f])
        timing = evaluate_plan(b.build(), ctx, assert_equivalence=True)
        f0, f1 = timing.op_times[f]
        d0, d1 = timing.op_times[d]
        assert d1 - d0 == pytest.approx(f1 - f0, rel=1e-12)

    def test_single_rank_collective_is_immediate(self):
        ctx = make_ctx(world=1)
        b = PlanBuilder("step", world_size=1)
        g = b.collective(0, "grad", "allreduce", 1e6)
        # Separate the joins in time: back-to-back zero-duration joins on
        # one rank trip the (conservative) rendezvous-tie refusal.
        f = _compute(b, 0, "spacer", deps=[g])
        z = b.collective(0, "empty", "allreduce", 0.0, deps=[f])
        timing = evaluate_plan(b.build(), ctx, assert_equivalence=True)
        assert timing.op_times[g][0] == timing.op_times[g][1]
        assert timing.op_times[z][0] == timing.op_times[z][1]

    def test_zero_and_epsilon_byte_transfers(self):
        ctx = make_ctx(world=1)
        b = PlanBuilder("step", world_size=1)
        z = b.h2d(0, "empty", 0.0)
        f = _compute(b, 0, "spacer", deps=[z])
        e = b.h2d(0, "tiny", 1e-9, deps=[f])  # > 0 but under epsilon
        timing = evaluate_plan(b.build(), ctx, assert_equivalence=True)
        # Both still pay the fixed per-transfer overhead + latency.
        assert timing.op_times[z][1] > timing.op_times[z][0]
        assert timing.op_times[e][1] > timing.op_times[e][0]

    def test_storage_contention_matches_executor(self):
        # Several writes land at distinct times and share the device's
        # command queue + the fluid timeline through the same links.
        ctx = make_ctx(world=2)
        b = PlanBuilder("ckpt", world_size=2)
        prev = {0: (), 1: ()}
        for i in range(3):
            for rank in range(2):
                f = _compute(b, rank, f"work-{i}", deps=prev[rank],
                             flops=1e12 * (1 + i + rank))
                w = b.storage_write(rank, f"shard-{i}", 64e6, deps=[f])
                prev[rank] = (w,)
        evaluate_plan(b.build(), ctx, assert_equivalence=True)


def assert_tie_agrees(plan_factory, ctx_factory):
    """A same-instant tie runs on the fast path and matches the executor.

    Fresh contexts per evaluation: the executor leg advances env and
    device state.
    """
    evaluate_plan(plan_factory(), ctx_factory(), assert_equivalence=True)
    assert evaluate_plan(plan_factory(), ctx_factory(),
                         mode="auto").mode == "fastpath"


class TestRefusals:
    # Same-instant ties that one event released are not refused: the
    # stream and the rendezvous serve them in plan order in both engines.
    def test_same_rank_compute_tie(self):
        # Two root computes on one rank are ready at t=0: the stream
        # admits them in program order in both engines.
        def plan():
            b = PlanBuilder("step", world_size=1)
            _compute(b, 0, "a")
            _compute(b, 0, "b")
            return b.build()

        assert_tie_agrees(plan, lambda: make_ctx(world=1))

    def test_same_rank_join_tie(self):
        # Back-to-back root collectives join at the same instant: both
        # engines match them in program order.
        def plan():
            b = PlanBuilder("step", world_size=2)
            for rank in range(2):
                b.collective(rank, "g1", "allreduce", 1e6)
                b.collective(rank, "g2", "allreduce", 1e6)
            return b.build()

        assert_tie_agrees(plan, make_ctx)

    def test_collective_mismatch(self):
        ctx = make_ctx()
        b = PlanBuilder("bad", world_size=2)
        b.collective(0, "grad", "allreduce", 1e6)
        b.collective(1, "grad", "reduce_scatter", 1e6)
        with pytest.raises(FastPathUnsupported, match="mismatch"):
            fastpath_schedule(b.build(), ctx)

    def test_dep_outside_plan(self):
        import dataclasses

        from repro.plan.ir import StepPlan
        b = PlanBuilder("step", world_size=1)
        f = _compute(b, 0, "forward")
        op = b.build().op(f)
        plan = StepPlan("step", 1,
                        [dataclasses.replace(op, deps=("ghost",))])
        with pytest.raises(FastPathUnsupported, match="outside the plan"):
            fastpath_schedule(plan, make_ctx(world=1))

    def test_unknown_collective_kind(self):
        import dataclasses

        from repro.plan.ir import StepPlan
        b = PlanBuilder("step", world_size=2)
        for rank in range(2):
            b.collective(rank, "grad", "allreduce", 1e6)
        ops = [dataclasses.replace(op, comm="all_to_all")
               for op in b.build()]
        with pytest.raises(FastPathUnsupported, match="unknown"):
            fastpath_schedule(StepPlan("step", 2, ops), make_ctx())

    def test_watchdog_race(self):
        system = ComposableSystem()
        active = system.configure("localGPUs")
        gpus = list(active.gpus)[:2]
        comm = Communicator(system.env, system.topology,
                            [g.name for g in gpus], gpus=gpus,
                            watchdog=1e-12)
        ctx = ExecutionContext(env=system.env, comm=comm, gpus=gpus,
                               topology=system.topology,
                               host_node=system.host.dram_node,
                               storage=active.storage)
        b = PlanBuilder("step", world_size=2)
        for rank in range(2):
            b.collective(rank, "grad", "allreduce", 1e6)
        with pytest.raises(FastPathUnsupported, match="watchdog"):
            fastpath_schedule(b.build(), ctx)

    def test_storage_queue_tie(self):
        ctx = make_ctx(world=1, queue_depth=1)
        b = PlanBuilder("ckpt", world_size=1)
        for i in range(3):  # three roots hit a depth-1 queue at t=0
            b.storage_write(0, f"shard-{i}", 1e6)
        with pytest.raises(FastPathUnsupported, match="admission"):
            fastpath_schedule(b.build(), ctx)

    def test_storage_queue_drains_in_fifo_order(self):
        ctx = make_ctx(world=1, queue_depth=1)
        b = PlanBuilder("ckpt", world_size=1)
        f1 = _compute(b, 0, "w1", flops=1e12)
        w1 = b.storage_write(0, "shard-1", 64e6, deps=[f1])
        f2 = _compute(b, 0, "w2", deps=[f1], flops=2e12)
        w2 = b.storage_write(0, "shard-2", 64e6, deps=[f2])
        timing = fastpath_schedule(b.build(), ctx)
        # The second write queues behind the first on the depth-1 device.
        assert timing.op_times[w2][1] > timing.op_times[w1][1]

    def test_stalled_plan(self):
        ctx = make_ctx()
        b = PlanBuilder("bad", world_size=2)
        b.collective(0, "grad", "allreduce", 1e6)
        _compute(b, 1, "forward")  # rank 1 never rendezvouses
        with pytest.raises(FastPathUnsupported, match="stalled"):
            fastpath_schedule(b.build(), ctx)


class TestAssertEqual:
    def _timing(self, times):
        makespan = max((e for _s, e in times.values()), default=0.0)
        return PlanTiming(mode="fastpath", op_times=times,
                          makespan=makespan)

    def test_coverage_mismatch(self):
        with pytest.raises(AssertionError, match="coverage"):
            _assert_equal(self._timing({"a": (0.0, 1.0)}),
                          self._timing({"b": (0.0, 1.0)}))

    def test_time_mismatch(self):
        with pytest.raises(AssertionError, match="diverges"):
            _assert_equal(self._timing({"a": (0.0, 1.0)}),
                          self._timing({"a": (0.0, 1.001)}))

    def test_makespan_mismatch(self):
        fast = PlanTiming(mode="fastpath", op_times={"a": (0.0, 1.0)},
                          makespan=1.0)
        slow = PlanTiming(mode="executor", op_times={"a": (0.0, 1.0)},
                          makespan=2.0)
        with pytest.raises(AssertionError, match="makespan"):
            _assert_equal(fast, slow)

    def test_equal_passes(self):
        _assert_equal(self._timing({"a": (0.0, 1.0)}),
                      self._timing({"a": (0.0, 1.0)}))

    def test_executor_timing_normalizes_to_env_start(self):
        ctx = make_ctx(world=1)
        ctx.env.run(ctx.env.timeout(5.0))  # non-zero env.now
        b = PlanBuilder("step", world_size=1)
        f = _compute(b, 0, "forward")
        timing = _executor_timing(b.build(), ctx)
        assert timing.op_times[f][0] == 0.0


def test_fastpath_leaves_a_live_falcon_system_untouched():
    # Purity: the engine's fluid timeline streams over the live fabric's
    # segments but accounts no traffic, starts no scheduler flow and
    # never advances the clock.
    system = ComposableSystem()
    job = system.job("resnet50", configuration="falconGPUs",
                     strategy="ddp")
    topo = system.topology

    def state():
        return (sum(counter.total for link in topo.links()
                    for counter in link.counters.values()),
                topo.scheduler.active_flows, system.env.now)

    before = state()
    timing = fastpath_schedule(job.step_plan, job._exec_ctx)
    assert timing.makespan > 0
    assert state() == before
    # The same plan run for real does move bytes over those links.
    evaluate_plan(job.step_plan, job._exec_ctx, mode="executor")
    assert state()[0] > before[0]
