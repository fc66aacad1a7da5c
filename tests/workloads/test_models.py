"""Tests that the architecture builders reproduce Table II."""

import pytest

from repro.devices import Precision
from repro.workloads import (
    BENCHMARKS,
    bert,
    bert_base,
    bert_large,
    benchmark_names,
    get_benchmark,
    mobilenet_v2,
    resnet50,
    yolov5l,
)


class TestTable2ParameterCounts:
    """Paper Table II: parameters of the evaluated benchmarks."""

    def test_mobilenetv2_params(self):
        assert mobilenet_v2().params / 1e6 == pytest.approx(3.4, rel=0.05)

    def test_resnet50_params(self):
        assert resnet50().params / 1e6 == pytest.approx(25.6, rel=0.01)

    def test_yolov5l_params(self):
        assert yolov5l().params / 1e6 == pytest.approx(47.0, rel=0.03)

    def test_bert_base_params(self):
        assert bert_base().params / 1e6 == pytest.approx(110.0, rel=0.02)

    def test_bert_large_params(self):
        assert bert_large().params / 1e6 == pytest.approx(340.0, rel=0.02)


class TestDepths:
    def test_resnet50_depth_is_50(self):
        assert resnet50().depth == 50

    def test_mobilenetv2_depth_is_53(self):
        assert mobilenet_v2().depth == 53

    def test_bert_encoder_blocks(self):
        # Table II depth convention for BERT: encoder blocks.
        base = bert_base()
        attn_layers = [l for l in base.layers if "attention" in l.name
                       and l.weighted]
        assert len(attn_layers) == 12
        large = bert_large()
        attn_layers = [l for l in large.layers if "attention" in l.name
                       and l.weighted]
        assert len(attn_layers) == 24


class TestFlops:
    def test_resnet50_forward_flops(self):
        # ~4.1 GMAC = ~8.2 GFLOP at 224px (2xMAC convention, incl. BN etc).
        g = resnet50()
        assert g.forward_flops_per_sample / 1e9 == pytest.approx(8.2,
                                                                 rel=0.10)

    def test_mobilenetv2_forward_flops(self):
        # ~0.3 GMAC = ~0.6 GFLOP at 224px.
        g = mobilenet_v2()
        assert g.forward_flops_per_sample / 1e9 == pytest.approx(0.6,
                                                                 rel=0.15)

    def test_yolov5l_forward_flops(self):
        # Ultralytics reports 109.1 GFLOPs at 640px.
        g = yolov5l()
        assert g.forward_flops_per_sample / 1e9 == pytest.approx(109.1,
                                                                 rel=0.05)

    def test_bert_flops_scale_with_seq_len(self):
        short = bert("b", 768, 12, 12, seq_len=128)
        long = bert("b", 768, 12, 12, seq_len=384)
        assert long.forward_flops_per_sample > \
            3 * short.forward_flops_per_sample  # superlinear (attention)

    def test_ordering_matches_model_size(self):
        flops = {k: get_benchmark(k).build().forward_flops_per_sample
                 for k in benchmark_names()}
        assert flops["mobilenetv2"] < flops["resnet50"] < flops["yolov5l"]
        assert flops["bert-base"] < flops["bert-large"]


class TestMemoryFootprints:
    def test_bert_large_weights_dont_fit_many_replicas(self):
        g = bert_large()
        # FP32 weights + Adam state (FP32 master + two moments) ~= 16
        # bytes/param ~ 5.4 GB.
        total = g.weight_bytes(Precision.FP32) + g.params * 3 * 4
        assert total / 1e9 == pytest.approx(5.4, rel=0.1)

    def test_activation_bytes_positive(self):
        for key in benchmark_names():
            g = get_benchmark(key).build()
            assert g.activation_bytes_per_sample() > 0

    def test_hbm_bytes_exceed_weights(self):
        g = resnet50()
        assert g.hbm_bytes_per_sample() > g.weight_bytes()


class TestBertValidation:
    def test_seq_len_bounds(self):
        with pytest.raises(ValueError):
            bert("b", 768, 12, 12, seq_len=0)
        with pytest.raises(ValueError):
            bert("b", 768, 12, 12, seq_len=513)

    def test_qa_head_optional(self):
        with_head = bert("b", 768, 2, 12, qa_head=True)
        without = bert("b", 768, 2, 12, qa_head=False)
        assert with_head.params == without.params + (768 * 2 + 2)


class TestRegistry:
    def test_all_five_benchmarks_present(self):
        assert benchmark_names() == [
            "mobilenetv2", "resnet50", "yolov5l", "bert-base", "bert-large"]
        assert set(benchmark_names()) == set(BENCHMARKS)

    def test_unknown_key_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="available"):
            get_benchmark("alexnet")

    def test_paper_run_parameters(self):
        # Paper §V-C.1: epochs and batch sizes per benchmark.
        assert get_benchmark("yolov5l").global_batch == 88
        assert get_benchmark("yolov5l").epochs == 20
        assert get_benchmark("resnet50").paper_batch_size == 128
        assert get_benchmark("resnet50").global_batch == 128 * 8
        assert get_benchmark("mobilenetv2").paper_batch_size == 64
        assert get_benchmark("mobilenetv2").epochs == 10
        assert get_benchmark("bert-base").global_batch == 96
        assert get_benchmark("bert-large").global_batch == 48
        assert get_benchmark("bert-large").seq_len == 384

    def test_yolo_mosaic_disk_factor(self):
        assert get_benchmark("yolov5l").disk_read_factor == 4.0
        assert get_benchmark("resnet50").disk_read_factor == 1.0

    def test_efficiency_tables_complete(self):
        for key in benchmark_names():
            b = get_benchmark(key)
            assert Precision.FP16 in b.efficiency
            assert Precision.FP32 in b.efficiency
            assert 0 < b.efficiency[Precision.FP16] <= 1
            # FP32 efficiency (vs the much lower FP32 peak) is higher.
            assert b.efficiency[Precision.FP32] > b.efficiency[Precision.FP16]

    def test_dataset_validation(self):
        from repro.workloads import DatasetSpec
        with pytest.raises(ValueError):
            DatasetSpec("bad", "x", 0, 1, 1, 1)
        with pytest.raises(ValueError):
            DatasetSpec("bad", "x", 10, -1, 1, 1)

    def test_steps_per_epoch_validation(self):
        from repro.workloads import IMAGENET
        with pytest.raises(ValueError):
            IMAGENET.steps_per_epoch(0)
        assert IMAGENET.steps_per_epoch(10 ** 9) == 1
