"""Unit tests for parallel strategies (DP / DDP / sharded)."""

import pytest

from repro.devices import Precision, V100_SXM2_16GB
from repro.training import (
    AMP_POLICY,
    DataParallel,
    DistributedDataParallel,
    FP32_POLICY,
    ShardedDataParallel,
    StepCosts,
    activation_factor,
)
from repro.training.parallel import FRAMEWORK_OVERHEAD_BYTES
from repro.workloads import bert_large, get_benchmark, mobilenet_v2


class TestPrecisionPolicy:
    def test_amp_halves_gradient_bytes(self):
        model = bert_large()
        assert AMP_POLICY.gradient_bytes(model) == pytest.approx(
            FP32_POLICY.gradient_bytes(model) / 2)

    def test_amp_has_step_overhead(self):
        assert AMP_POLICY.step_overhead > 0
        assert FP32_POLICY.step_overhead == 0


class TestStepCosts:
    def test_backward_is_2x_forward(self):
        b = get_benchmark("resnet50")
        costs = StepCosts.for_benchmark(b.build(), AMP_POLICY, 0.1, 16)
        assert costs.backward_flops == pytest.approx(2 * costs.forward_flops)

    def test_scales_with_batch(self):
        b = get_benchmark("resnet50")
        model = b.build()
        c1 = StepCosts.for_benchmark(model, AMP_POLICY, 0.1, 8)
        c2 = StepCosts.for_benchmark(model, AMP_POLICY, 0.1, 16)
        assert c2.forward_flops == pytest.approx(2 * c1.forward_flops)
        # Gradient bytes are batch-independent.
        assert c2.gradient_bytes == c1.gradient_bytes


class TestMemoryModel:
    def test_activation_factor_by_family(self):
        assert activation_factor(bert_large()) > \
            activation_factor(mobilenet_v2())

    def test_sharding_reduces_memory(self):
        model = bert_large()
        ddp = DistributedDataParallel()
        sharded = ShardedDataParallel()
        m_ddp = ddp.memory_per_gpu(model, AMP_POLICY, 6, 8)
        m_sh = sharded.memory_per_gpu(model, AMP_POLICY, 6, 8)
        assert m_sh < m_ddp
        # The saving is ~7/8 of optimizer state + gradients.
        expected_saving = (model.params * 12.0 + model.params * 2.0) * 7 / 8
        assert m_ddp - m_sh == pytest.approx(expected_saving, rel=1e-6)

    def test_bert_large_batch6_fits_ddp_but_7_does_not(self):
        """The lever behind Fig. 16: DDP caps BERT-large at 6/GPU."""
        model = bert_large()
        ddp = DistributedDataParallel()
        cap = V100_SXM2_16GB.memory_bytes
        assert ddp.max_batch_per_gpu(model, AMP_POLICY, cap, 8) == 6

    def test_sharded_lifts_bert_large_to_10(self):
        """Paper §V-C.4: sharded training lifts the batch from 6 to 10."""
        model = bert_large()
        sharded = ShardedDataParallel()
        cap = V100_SXM2_16GB.memory_bytes
        assert sharded.max_batch_per_gpu(model, AMP_POLICY, cap, 8) == 10

    def test_fp32_memory_larger_than_amp(self):
        model = bert_large()
        ddp = DistributedDataParallel()
        assert ddp.memory_per_gpu(model, FP32_POLICY, 6, 8) > \
            ddp.memory_per_gpu(model, AMP_POLICY, 6, 8)

    def test_zero_free_memory_gives_zero_batch(self):
        model = bert_large()
        ddp = DistributedDataParallel()
        assert ddp.max_batch_per_gpu(model, AMP_POLICY,
                                     FRAMEWORK_OVERHEAD_BYTES, 8) == 0

    def test_small_model_fits_large_batches(self):
        model = mobilenet_v2()
        ddp = DistributedDataParallel()
        cap = V100_SXM2_16GB.memory_bytes
        assert ddp.max_batch_per_gpu(model, AMP_POLICY, cap, 8) > 128


class TestBucketPlan:
    def test_bucket_count(self):
        ddp = DistributedDataParallel(bucket_bytes=25e6)
        b = get_benchmark("bert-large")
        costs = StepCosts.for_benchmark(b.build(), AMP_POLICY, 0.22, 6)
        plan = ddp._bucket_plan(costs, backward_time=1.0)
        assert len(plan) == 27  # 670 MB / 25 MB
        total = sum(nbytes for _, nbytes in plan)
        assert total == pytest.approx(costs.gradient_bytes)

    def test_ready_times_monotone_within_backward(self):
        ddp = DistributedDataParallel()
        b = get_benchmark("resnet50")
        costs = StepCosts.for_benchmark(b.build(), AMP_POLICY, 0.08, 16)
        plan = ddp._bucket_plan(costs, backward_time=2.0)
        times = [t for t, _ in plan]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(2.0)
        assert times[0] > 0

    def test_invalid_bucket_bytes(self):
        with pytest.raises(ValueError):
            DistributedDataParallel(bucket_bytes=0)


class TestStrategyNames:
    def test_names(self):
        assert DataParallel().name == "dp"
        assert DistributedDataParallel().name == "ddp"
        assert ShardedDataParallel().name == "sharded"
        assert ShardedDataParallel.sharded
        assert not DistributedDataParallel.sharded
