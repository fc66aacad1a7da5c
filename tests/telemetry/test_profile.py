"""Plan-level profiler: critical path, attribution, what-ifs, reports."""

import json
import math

import pytest

from repro.core import ComposableSystem
from repro.devices.gpu import Precision
from repro.plan import ExecutionContext, PlanBuilder, PlanError
from repro.plan.fastpath import evaluate_plan, fastpath_schedule
from repro.telemetry.profile import (
    ATTRIBUTION_CATEGORIES,
    SCALE_BUCKETS,
    attribution,
    bottleneck_label,
    critical_path,
    imbalance,
    predict_scaled_timing,
    profile_plan,
    profile_run,
    relaxation_is_exact,
    scale_plan,
    utilization,
    what_if,
)
from repro.training import Communicator


def make_ctx(world=2, configuration="localGPUs"):
    system = ComposableSystem()
    active = system.configure(configuration)
    gpus = list(active.gpus)[:world]
    comm = Communicator(system.env, system.topology,
                        [g.name for g in gpus], gpus=gpus)
    return ExecutionContext(env=system.env, comm=comm, gpus=gpus,
                            topology=system.topology,
                            host_node=system.host.dram_node,
                            storage=active.storage)


def _compute(b, rank, name, deps=(), flops=1e12):
    return b.compute(rank, name, flops=flops, hbm_bytes=0.0,
                     precision=Precision.FP16, efficiency=0.5,
                     deps=deps)


def step_plan(world=2, comm_bytes=64e6):
    """Input copy -> forward -> allreduce -> optimizer, every rank."""
    b = PlanBuilder("step", world_size=world)
    for rank in range(world):
        h = b.h2d(rank, "input", 4e6)
        f = _compute(b, rank, "forward", deps=[h])
        g = b.collective(rank, "grad", "allreduce", comm_bytes,
                         payload="gradients", deps=[f])
        _compute(b, rank, "opt", deps=[g], flops=1e11)
    b.declare_conservation("gradients", world * comm_bytes)
    return b.build()


def storage_plan():
    b = PlanBuilder("ckpt", world_size=1)
    f = _compute(b, 0, "fwd")
    d = b.d2h(0, "ckpt-d2h", 8e6, deps=[f])
    b.storage_write(0, "ckpt-write", 8e6, deps=[d])
    return b.build()


class TestCriticalPath:
    def test_tiles_the_window_exactly(self):
        plan = step_plan()
        ctx = make_ctx()
        timing = fastpath_schedule(plan, ctx)
        path = critical_path(plan, timing, ctx=ctx)
        assert path.window == (0.0, timing.makespan)
        cursor = 0.0
        for seg in path.segments:
            assert seg.start == pytest.approx(cursor, abs=1e-12)
            assert seg.end > seg.start
            assert seg.category in ATTRIBUTION_CATEGORIES
            cursor = seg.end
        assert cursor == pytest.approx(timing.makespan, rel=1e-12)
        assert path.length == pytest.approx(timing.makespan, rel=1e-9)

    def test_attribution_sums_to_wall(self):
        plan = step_plan()
        ctx = make_ctx()
        path = critical_path(plan, fastpath_schedule(plan, ctx), ctx=ctx)
        attr = attribution(path)
        assert attr.total == pytest.approx(attr.wall, rel=1e-9)
        assert attr.seconds.get("compute", 0.0) > 0
        assert (attr.seconds.get("comm", 0.0)
                + attr.seconds.get("contention", 0.0)) > 0

    def test_storage_chain_attributes_copy_and_storage(self):
        plan = storage_plan()
        ctx = make_ctx(world=1)
        path = critical_path(plan, fastpath_schedule(plan, ctx), ctx=ctx)
        attr = attribution(path)
        assert attr.seconds.get("copy", 0.0) > 0
        assert attr.seconds.get("storage", 0.0) > 0
        assert attr.total == pytest.approx(attr.wall, rel=1e-9)

    def test_empty_timing(self):
        path = critical_path(step_plan(), {}, window=(0.0, 1.0))
        assert path.segments == [] and path.sink_uid is None


class TestLabels:
    def test_comm_heavy_plan_is_comm_bound(self):
        plan = step_plan(comm_bytes=2e9)
        ctx = make_ctx()
        prof = profile_plan(plan, ctx=ctx)
        assert prof.label == "comm-bound"
        assert prof.shares["comm"] >= 0.5

    def test_compute_heavy_plan_is_compute_bound(self):
        plan = step_plan(comm_bytes=1e3)
        ctx = make_ctx()
        prof = profile_plan(plan, ctx=ctx)
        assert prof.label == "compute-bound"

    def test_balanced_label_under_threshold(self):
        from repro.telemetry.profile import Attribution
        attr = Attribution({"compute": 0.4, "comm": 0.35,
                            "storage": 0.25}, {}, (0.0, 1.0))
        label, shares = bottleneck_label(attr)
        assert label == "balanced(compute-leaning)"
        assert sum(shares.values()) == pytest.approx(1.0)


class TestUtilizationAndImbalance:
    def test_gpu_and_link_resources_present(self):
        plan = step_plan()
        ctx = make_ctx()
        timing = fastpath_schedule(plan, ctx)
        util = utilization(plan, timing, ctx=ctx)
        assert any(name.startswith("gpu:r") for name in util)
        assert any(name.startswith("link:") for name in util)
        for stats in util.values():
            assert 0.0 <= stats["busy_frac"] <= 1.0 + 1e-9
            assert stats["contended_s"] >= 0.0

    def test_imbalance_symmetric_plan(self):
        plan = step_plan()
        ctx = make_ctx()
        imb = imbalance(plan, fastpath_schedule(plan, ctx))
        assert imb["end_spread_frac"] == pytest.approx(0.0, abs=1e-9)
        assert len(imb["per_rank"]) == plan.world_size


class TestScalePlan:
    def test_zeroing_comm_conserves_declared_zero(self):
        plan = step_plan()
        scaled = scale_plan(plan, "comm", 0.0)
        assert scaled.meta["conservation"]["gradients"] == 0.0
        from repro.plan import validate_plan
        assert validate_plan(scaled) == []

    def test_compute_scaling_preserves_bytes(self):
        plan = step_plan()
        scaled = scale_plan(plan, "compute", 0.5)
        assert scaled.meta["conservation"] == plan.meta["conservation"]
        for op, orig in zip(scaled.ops, plan.ops):
            assert op.bytes == orig.bytes

    def test_negative_factor_rejected(self):
        with pytest.raises(PlanError):
            scale_plan(step_plan(), "comm", -0.5)

    def test_unknown_bucket_rejected(self):
        with pytest.raises(PlanError):
            scale_plan(step_plan(), "network", 0.5)


class TestWhatIf:
    def test_identity_factor_is_base(self):
        plan = step_plan()
        ctx = make_ctx()
        base = fastpath_schedule(plan, ctx)
        w = what_if(plan, base, ctx, "comm", 1.0)
        assert w.predicted_makespan == pytest.approx(base.makespan,
                                                     rel=1e-12)
        assert w.predicted_ceiling == pytest.approx(1.0, rel=1e-12)
        assert w.predicted_exact

    def test_empty_bucket_is_identity(self):
        plan = step_plan()
        ctx = make_ctx()
        base = fastpath_schedule(plan, ctx)
        w = what_if(plan, base, ctx, "storage", 0.0)
        assert w.method == "identity"
        assert w.predicted_makespan == base.makespan

    def test_zeroed_comm_matches_true_reevaluation(self):
        plan = step_plan()
        ctx = make_ctx()
        base = fastpath_schedule(plan, ctx)
        eval_ctx = make_ctx()  # throwaway: executor fallback mutates
        w = what_if(plan, base, ctx, "comm", 0.0, evaluate=True,
                    evaluate_ctx=eval_ctx)
        assert w.evaluated_makespan == pytest.approx(
            w.predicted_makespan, rel=0.01)
        assert w.predicted_makespan < base.makespan

    def test_relaxation_exactness_classification(self):
        plan = step_plan()
        assert relaxation_is_exact(plan, "comm", 1.0)
        assert relaxation_is_exact(plan, "storage", 0.0)  # no such ops
        assert not relaxation_is_exact(plan, "comm", 0.5)
        # comm flows are the only fabric users besides the input copies,
        # so zeroing comm is NOT certified (copy flows shared the PCIe
        # root with the collectives), but zeroing compute is.
        assert relaxation_is_exact(plan, "compute", 0.0)

    def test_predicted_timing_replays_all_ops(self):
        plan = step_plan()
        ctx = make_ctx()
        base = fastpath_schedule(plan, ctx)
        timing = predict_scaled_timing(plan, base, ctx, "compute", 1.0)
        assert set(timing.op_times) == set(base.op_times)
        for uid, (start, end) in timing.op_times.items():
            bs, be = base.op_times[uid]
            assert start == pytest.approx(bs, abs=1e-9)
            assert end == pytest.approx(be, abs=1e-9)


class TestWhatIfIntegration:
    def test_what_if_relaxation_agrees_with_engine(self):
        plan = storage_plan()
        ctx = make_ctx(world=1)
        base = evaluate_plan(plan, ctx, mode="fastpath")
        result = what_if(plan, base, ctx, "storage", 0.5,
                         evaluate=True, evaluate_ctx=make_ctx(world=1))
        # Partial storage factors are not certified, so what_if may
        # escalate past the relaxation to an engine probe.
        assert result.method in ("relaxation", "fastpath-epsilon")
        assert result.predicted_makespan <= base.makespan
        assert result.evaluated_makespan <= base.makespan


class TestProfileRun:
    def test_run_profile_reconciles_by_construction(self):
        from repro.experiments.profiling import _build_cell_job
        job = _build_cell_job("mobilenetv2", "localGPUs", "ddp",
                              sim_steps=4)
        rp = profile_run(job)
        assert rp.reconciliation_rel_err <= 1e-9
        assert len(rp.steps) == 4
        assert rp.steady_attr.total == pytest.approx(
            rp.steady_attr.wall, rel=1e-9)
        named = sum(v for k, v in rp.steady_attr.seconds.items()
                    if k != "stall")
        assert named / rp.steady_attr.total >= 0.99


class TestAcceptanceCell:
    """ISSUE 7 acceptance: bert-large / ddp / falcon."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.experiments.profiling import profile_cell
        return profile_cell("bert-large", "falconGPUs", "ddp",
                            sim_steps=4)

    def test_comm_bound_consistent_with_fig11(self, report):
        assert report.label == "comm-bound"

    def test_reconciles_at_1e9(self, report):
        assert report.run_profile.reconciliation_rel_err <= 1e-9

    def test_attributes_99_pct_to_named_categories(self, report):
        attr = report.run_profile.steady_attr
        named = sum(v for k, v in attr.seconds.items() if k != "stall")
        assert named / attr.total >= 0.99

    def test_what_ifs_match_true_reevaluation_within_1pct(self, report):
        for w in report.what_ifs:
            assert w.evaluated_makespan is not None
            assert w.predicted_makespan == pytest.approx(
                w.evaluated_makespan, rel=0.01), w.bucket

    def test_report_serializes(self, report):
        payload = json.loads(report.render_json())
        assert payload["label"] == "comm-bound"
        assert payload["run"]["reconciliation_rel_err"] <= 1e-9
        assert len(payload["what_ifs"]) == len(SCALE_BUCKETS)
        text = report.render_text()
        assert "comm-bound" in text and "what-if" in text


@pytest.mark.parametrize("variant_name", [
    "DP-FP32", "DP-FP16", "DDP-FP32", "DDP-FP16", "Sharded-FP16",
    "Pipeline-FP16"])
def test_what_if_ceilings_all_fig16_variants(variant_name):
    """Zero-cost re-evaluation matches the predicted ceiling within 1%
    for every bucket, on each Fig. 16 strategy variant (falcon)."""
    from repro.experiments.software_opts import VARIANTS

    variant = next(v for v in VARIANTS if v.name == variant_name)
    job = variant.build_job("falconGPUs")
    plan = job.step_plan
    base = fastpath_schedule(plan, job._exec_ctx)
    for bucket in SCALE_BUCKETS:
        throwaway = variant.build_job("falconGPUs")
        w = what_if(plan, base, job._exec_ctx, bucket, 0.0,
                    evaluate=True, evaluate_ctx=throwaway._exec_ctx)
        assert w.evaluated_makespan is not None
        assert w.predicted_makespan == pytest.approx(
            w.evaluated_makespan, rel=0.01), (variant_name, bucket)
        # Zeroing a cost never slows the plan down beyond scheduling
        # noise (executor tie-breaks can differ from the fastpath base).
        assert w.evaluated_makespan <= base.makespan * 1.01


def test_bottleneck_labels_grid_smoke():
    from repro.experiments.profiling import bottleneck_labels
    from repro.experiments.software_opts import VARIANTS

    ddp16 = [v for v in VARIANTS if v.name == "DDP-FP16"]
    grid = bottleneck_labels(configurations=("localGPUs", "falconGPUs"),
                             variants=ddp16)
    assert grid["localGPUs"]["DDP-FP16"]["label"] == "compute-bound"
    assert grid["falconGPUs"]["DDP-FP16"]["label"] == "comm-bound"
