"""Tests for the parametric overhead-scaling sweeps."""

import pytest

from repro.core import ComposableSystem
from repro.experiments import (
    overhead_vs_batch,
    overhead_vs_model_size,
)
from repro.experiments.scaling_laws import (
    BACKENDS,
    _bert_family_benchmark,
    _measure,
)


@pytest.mark.parametrize("config", [
    {}, {"global_batch": 16, "accumulation_steps": 2}],
    ids=["native", "batch-16-acc-2"])
def test_step_times_match_des_training(config):
    # Each point is one step-plan evaluation per backend; training the
    # same job through the event loop gives the same steady step.
    bench = _bert_family_benchmark(4, 1024, 16)
    for configuration, step_time in zip(BACKENDS, _measure(bench,
                                                           **config)):
        trained = ComposableSystem().train(
            bench, configuration, "ddp", sim_steps=4, sim_checkpoints=0,
            **config).step_time
        assert step_time == pytest.approx(trained, rel=1e-9)


class TestDepthSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return overhead_vs_model_size(layer_counts=(4, 24))

    def test_params_grow_with_depth(self, points):
        assert points[0].params_m < points[1].params_m

    def test_absolute_times_grow_with_depth(self, points):
        assert points[1].local_step_time > points[0].local_step_time
        assert points[1].falcon_step_time > points[0].falcon_step_time

    def test_all_points_heavily_penalized_on_falcon(self, points):
        # NLP-class overhead at batch 6 regardless of depth.
        assert all(p.overhead_pct > 50.0 for p in points)

    def test_embedding_effect_small_models_relatively_worse(self, points):
        """Fixed-vocabulary embeddings carry gradient bytes but no FLOPs,
        so the shallow family member is *more* communication-bound."""
        assert points[0].overhead_pct > points[1].overhead_pct


class TestBatchSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return overhead_vs_batch(batches=(2, 6))

    def test_overhead_falls_with_batch(self, points):
        """The real mediator of the paper's size-overhead correlation:
        compute scales with the batch, gradients do not."""
        assert points[0].overhead_pct > points[1].overhead_pct + 30.0

    def test_throughput_still_improves_with_batch(self, points):
        per_sample_small = points[0].falcon_step_time / 2
        per_sample_large = points[1].falcon_step_time / 6
        assert per_sample_large < per_sample_small
