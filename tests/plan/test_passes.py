"""Unit tests for the optimization passes and the pass manager."""

import pytest

from repro.devices.gpu import Precision
from repro.plan import (
    Collective,
    PlanBuilder,
    PlanValidationError,
    validate_plan,
)
from repro.plan.passes import (
    DEFAULT_PIPELINE,
    PASS_REGISTRY,
    CollectiveChunkSizing,
    CopyFusion,
    GradientBucketing,
    OverlapScheduling,
    PassContext,
    PassError,
    PassManager,
    PlanPass,
    resolve_passes,
)


def _compute(b, rank, name, deps=()):
    return b.compute(rank, name, flops=1e9, hbm_bytes=1e6,
                     precision=Precision.FP16, efficiency=0.5, deps=deps)


def _ddp_like_plan(world=2, buckets=4, bucket_bytes=10e6,
                   gate_interval=0.01):
    """What the DDP compiler emits: per-bucket gates + allreduces."""
    b = PlanBuilder("ddp-like", world_size=world)
    for rank in range(world):
        fwd = _compute(b, rank, "fwd")
        colls = []
        for i in range(buckets):
            gate = b.delay(rank, f"gate{i}",
                           seconds=gate_interval * (i + 1),
                           deps=[fwd], traced=False)
            colls.append(b.collective(rank, f"grad{i}", "allreduce",
                                      bucket_bytes, deps=[gate],
                                      payload="grad"))
        _compute(b, rank, "opt", deps=colls)
    b.declare_conservation("grad", world * buckets * bucket_bytes)
    return b.build()


# -- manager / registry ------------------------------------------------------

class TestPassManager:
    def test_rejects_invalid_input_plan(self):
        b = PlanBuilder("bad", world_size=2)
        b.collective(0, "grad", "allreduce", 1e6)  # rank 1 silent
        with pytest.raises(PlanValidationError):
            PassManager([GradientBucketing()]).run(b.build())

    def test_catches_a_pass_that_desynchronizes_ranks(self):
        class Desync(PlanPass):
            name = "desync"

            def run(self, plan, ctx):
                from repro.plan import StepPlan
                ops = [op for op in plan.ops
                       if not (isinstance(op, Collective)
                               and op.rank == 1)]
                return StepPlan(plan.name, plan.world_size, ops,
                                plan.meta)

        with pytest.raises(PlanValidationError):
            PassManager([Desync()]).run(_ddp_like_plan())

    def test_reports_and_meta_stamp(self):
        manager = PassManager([GradientBucketing(cap_bytes=25e6)])
        out = manager.run(_ddp_like_plan())
        assert out.meta["opt"] == "bucketing(cap=25MB)"
        (report,) = manager.reports
        assert report.changed
        assert report.ops_before == len(_ddp_like_plan())
        assert report.ops_after < report.ops_before
        assert report.summary().startswith("bucketing: ")

    def test_rejects_non_pass(self):
        with pytest.raises(PassError, match="not a PlanPass"):
            PassManager(["bucketing"])


class TestResolvePasses:
    def test_comma_string(self):
        pipeline = resolve_passes("bucketing,overlap")
        assert [p.name for p in pipeline] == ["bucketing", "overlap"]

    def test_all_expands_to_default_pipeline(self):
        assert [p.name for p in resolve_passes("all")] \
            == list(DEFAULT_PIPELINE)

    def test_mixed_instances_and_names(self):
        custom = GradientBucketing(cap_bytes=1e6)
        pipeline = resolve_passes([custom, "overlap"])
        assert pipeline[0] is custom
        assert pipeline[1].name == "overlap"

    def test_unknown_name_raises(self):
        with pytest.raises(PassError, match="unknown plan pass"):
            resolve_passes("bucketing,fuse-everything")

    def test_registry_covers_default_pipeline(self):
        assert set(DEFAULT_PIPELINE) <= set(PASS_REGISTRY)


# -- bucketing ---------------------------------------------------------------

class TestGradientBucketing:
    def test_fuses_up_to_cap(self):
        plan = _ddp_like_plan(buckets=4, bucket_bytes=10e6)
        out = GradientBucketing(cap_bytes=25e6).run(plan, PassContext())
        assert validate_plan(out) == []
        for rank in range(2):
            colls = [op for op in out.by_rank(rank)
                     if isinstance(op, Collective)]
            # 4 x 10 MB under a 25 MB cap -> two 20 MB pairs.
            assert [c.bytes for c in colls] == [20e6, 20e6]
            assert [c.fused for c in colls] == [2, 2]
        # Heads keep the first constituent's uid (differ-friendly).
        assert "r0:grad0" in out and "r0:grad2" in out
        assert "r0:grad1" not in out

    def test_fused_op_depends_on_every_constituent_gate(self):
        plan = _ddp_like_plan(buckets=2, bucket_bytes=10e6)
        out = GradientBucketing(cap_bytes=25e6).run(plan, PassContext())
        head = out.op("r0:grad0")
        assert set(head.deps) == {"r0:gate0", "r0:gate1"}

    def test_dependents_retargeted_to_the_head(self):
        plan = _ddp_like_plan(buckets=4, bucket_bytes=10e6)
        out = GradientBucketing(cap_bytes=25e6).run(plan, PassContext())
        assert set(out.op("r0:opt").deps) == {"r0:grad0", "r0:grad2"}

    def test_cap_blocks_fusion(self):
        plan = _ddp_like_plan(buckets=2, bucket_bytes=10e6)
        out = GradientBucketing(cap_bytes=15e6).run(plan, PassContext())
        assert out is plan  # nothing fit: identity

    def test_barrier_breaks_the_run(self):
        b = PlanBuilder("p", world_size=1)
        c0 = b.collective(0, "g0", "allreduce", 1e6, payload="grad")
        bar = b.barrier(0, "bar", deps=[c0])
        b.collective(0, "g1", "allreduce", 1e6, payload="grad",
                     deps=[bar])
        b.declare_conservation("grad", 2e6)
        plan = b.build()
        assert GradientBucketing().run(plan, PassContext()) is plan

    def test_untagged_collectives_never_fuse(self):
        b = PlanBuilder("p", world_size=1)
        c0 = b.collective(0, "g0", "allreduce", 1e6)
        b.collective(0, "g1", "allreduce", 1e6, deps=[c0])
        plan = b.build()
        assert GradientBucketing().run(plan, PassContext()) is plan

    def test_intervening_op_blocks_fusion(self):
        # A -> X(compute) -> B: fusing A and B would make X both an
        # ancestor and a descendant of the fused op — a cycle.
        b = PlanBuilder("p", world_size=1)
        a = b.collective(0, "g0", "allreduce", 1e6, payload="grad")
        x = _compute(b, 0, "rescale", deps=[a])
        b.collective(0, "g1", "allreduce", 1e6, payload="grad",
                     deps=[x])
        b.declare_conservation("grad", 2e6)
        plan = b.build()
        out = GradientBucketing().run(plan, PassContext())
        assert out is plan
        assert validate_plan(out) == []

    def test_rejects_non_positive_cap(self):
        with pytest.raises(PassError):
            GradientBucketing(cap_bytes=0)

    def test_real_ddp_plan_shrinks(self):
        from repro.core import ComposableSystem
        from repro.training import (DistributedDataParallel,
                                    TrainingConfig, TrainingJob)
        from repro.workloads import get_benchmark

        system = ComposableSystem()
        active = system.configure("falconGPUs")
        job = TrainingJob(system.env, system.topology, system.host,
                          list(active.gpus), active.storage,
                          TrainingConfig(
                              benchmark=get_benchmark("bert-large"),
                              strategy=DistributedDataParallel()))
        out = GradientBucketing().run(job.step_plan, PassContext())
        assert validate_plan(out) == []
        assert len(out) < len(job.step_plan)


# -- overlap -----------------------------------------------------------------

class TestOverlapScheduling:
    def test_retimes_each_launch_one_slab_earlier(self):
        plan = _ddp_like_plan(world=1, buckets=3, bucket_bytes=1e6,
                              gate_interval=0.01)
        out = OverlapScheduling().run(plan, PassContext())
        assert validate_plan(out) == []
        # Ready times 10/20/30 ms -> launches 0/10/20 ms: collective k
        # launches when bucket k-1 was ready, the first extrapolates one
        # interval early (clamped at the anchor).
        seconds = [out.op(f"r0:gate{i}").seconds for i in range(3)]
        assert seconds == pytest.approx([0.0, 0.01, 0.02])

    def test_first_launch_never_precedes_the_anchor(self):
        # Gates at 10/50 ms: extrapolating a 40 ms interval before the
        # first would go negative — it clamps to 0 instead.
        b = PlanBuilder("p", world_size=1)
        fwd = _compute(b, 0, "fwd")
        for i, when in enumerate((0.01, 0.05)):
            gate = b.delay(0, f"gate{i}", seconds=when, deps=[fwd],
                           traced=False)
            b.collective(0, f"g{i}", "allreduce", 1e6, deps=[gate],
                         payload="grad")
        b.declare_conservation("grad", 2e6)
        out = OverlapScheduling().run(b.build(), PassContext())
        assert out.op("r0:gate0").seconds == 0.0
        assert out.op("r0:gate1").seconds == 0.01

    def test_single_gated_collective_untouched(self):
        plan = _ddp_like_plan(buckets=1)
        assert OverlapScheduling().run(plan, PassContext()) is plan

    def test_traced_delays_are_not_gates(self):
        b = PlanBuilder("p", world_size=1)
        fwd = _compute(b, 0, "fwd")
        for i in range(2):
            gate = b.delay(0, f"gate{i}", seconds=0.01 * (i + 1),
                           deps=[fwd])  # traced: a real modeled stall
            b.collective(0, f"g{i}", "allreduce", 1e6, deps=[gate],
                         payload="grad")
        b.declare_conservation("grad", 2e6)
        plan = b.build()
        assert OverlapScheduling().run(plan, PassContext()) is plan

    def test_shared_gate_is_not_retimed(self):
        # One gate feeding two collectives is a join point, not a
        # per-bucket ready signal.
        b = PlanBuilder("p", world_size=1)
        fwd = _compute(b, 0, "fwd")
        gate = b.delay(0, "gate", seconds=0.01, deps=[fwd],
                       traced=False)
        c0 = b.collective(0, "g0", "allreduce", 1e6, deps=[gate],
                          payload="grad")
        b.collective(0, "g1", "allreduce", 1e6, deps=[gate, c0],
                     payload="grad")
        b.declare_conservation("grad", 2e6)
        plan = b.build()
        assert OverlapScheduling().run(plan, PassContext()) is plan


# -- copy fusion -------------------------------------------------------------

class TestCopyFusion:
    def test_elides_zero_byte_copy_and_rewires(self):
        b = PlanBuilder("p", world_size=1)
        a = b.h2d(0, "in", 1e6, label="input")
        z = b.h2d(0, "pad", 0.0, label="input", deps=[a])
        _compute(b, 0, "fwd", deps=[z])
        out = CopyFusion().run(b.build(), PassContext())
        assert "r0:pad" not in out
        assert out.op("r0:fwd").deps == ("r0:in",)

    def test_fuses_same_endpoint_chain_into_head(self):
        b = PlanBuilder("p", world_size=1)
        a = b.h2d(0, "in", 1e6, label="input")
        c = b.h2d(0, "in2", 2e6, label="input", deps=[a])
        d = b.h2d(0, "in3", 4e6, label="input", deps=[c])
        _compute(b, 0, "fwd", deps=[d])
        out = CopyFusion().run(b.build(), PassContext())
        head = out.op("r0:in")
        assert head.bytes == 7e6
        assert head.fused == 3
        assert "r0:in2" not in out and "r0:in3" not in out
        assert out.op("r0:fwd").deps == ("r0:in",)

    def test_label_mismatch_blocks_fusion(self):
        b = PlanBuilder("p", world_size=1)
        a = b.h2d(0, "in", 1e6, label="input")
        b.h2d(0, "w", 2e6, label="weights", deps=[a])
        plan = b.build()
        assert CopyFusion().run(plan, PassContext()) is plan

    def test_fork_blocks_fusion(self):
        b = PlanBuilder("p", world_size=1)
        a = b.h2d(0, "in", 1e6, label="input")
        b.h2d(0, "in2", 2e6, label="input", deps=[a])
        _compute(b, 0, "fwd", deps=[a])  # a has two dependents
        plan = b.build()
        assert CopyFusion().run(plan, PassContext()) is plan

    def test_kind_mismatch_blocks_fusion(self):
        b = PlanBuilder("p", world_size=1)
        a = b.h2d(0, "in", 1e6, label="x")
        b.d2h(0, "out", 2e6, label="x", deps=[a])
        plan = b.build()
        assert CopyFusion().run(plan, PassContext()) is plan


# -- chunk sizing ------------------------------------------------------------

class _Paths:
    """Topology stub with per-pair measured bandwidth."""

    def __init__(self, default, **pairs):
        self.default = default
        self.pairs = pairs

    def path_bandwidth(self, src, dst):
        return self.pairs.get(f"{src}->{dst}", self.default)


def _one_collective_plan(comm="allreduce", nbytes=40e6, root=None):
    b = PlanBuilder("p", world_size=2)
    for rank in range(2):
        b.collective(rank, "grad", comm, nbytes, root=root,
                     payload="grad")
    b.declare_conservation("grad", 2 * nbytes)
    return b.build()


class TestCollectiveChunkSizing:
    def _ctx(self, topo):
        return PassContext(topology=topo, rank_nodes=["n0", "n1"])

    def test_no_topology_falls_back_to_default_chunk(self):
        out = CollectiveChunkSizing().run(_one_collective_plan(),
                                          PassContext())
        for op in out:
            assert op.chunk_bytes == 8e6

    def test_ring_kind_uses_bottleneck_neighbour_link(self):
        topo = _Paths(default=100e9, **{"n1->n0": 4e9})
        out = CollectiveChunkSizing().run(_one_collective_plan(),
                                          self._ctx(topo))
        # min(100, 4) GB/s * 1 ms = 4 MB chunks on every rank.
        for op in out:
            assert op.chunk_bytes == 4e6

    def test_rooted_kind_measures_root_to_leaf(self):
        topo = _Paths(default=100e9, **{"n1->n0": 6e9})
        plan = _one_collective_plan(comm="broadcast", root=1)
        out = CollectiveChunkSizing().run(plan, self._ctx(topo))
        for op in out:
            assert op.chunk_bytes == 6e6

    def test_chunk_clamped_and_capped_at_payload(self):
        topo = _Paths(default=500e9)  # 1 ms would be 500 MB
        out = CollectiveChunkSizing().run(
            _one_collective_plan(nbytes=40e6), self._ctx(topo))
        for op in out:
            assert op.chunk_bytes == 40e6  # 64 MB clamp, then payload

    def test_unmeasurable_path_falls_back(self):
        class Broken:
            def path_bandwidth(self, src, dst):
                raise KeyError(src)

        out = CollectiveChunkSizing().run(_one_collective_plan(),
                                          self._ctx(Broken()))
        for op in out:
            assert op.chunk_bytes == 8e6

    def test_already_annotated_plan_untouched(self):
        plan = CollectiveChunkSizing().run(_one_collective_plan(),
                                           PassContext())
        assert CollectiveChunkSizing().run(plan, PassContext()) is plan

    def test_rejects_non_positive_target(self):
        with pytest.raises(PassError):
            CollectiveChunkSizing(target_seconds=0.0)
