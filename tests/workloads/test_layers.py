"""Unit and property tests for the layer cost primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.devices import Precision
from repro.workloads import (
    Layer,
    ModelGraph,
    batchnorm2d,
    conv2d,
    embedding,
    layernorm,
    linear,
    multihead_attention,
    pooling,
)


class TestConv2d:
    def test_params_and_flops(self):
        # 3x3 conv, 16->32 channels, 10x10 output.
        layer = conv2d("c", 16, 32, 3, (10, 10))
        assert layer.params == 3 * 3 * 16 * 32
        assert layer.forward_flops == 2 * layer.params * 100

    def test_bias(self):
        layer = conv2d("c", 16, 32, 1, (1, 1), bias=True)
        assert layer.params == 16 * 32 + 32

    def test_grouped(self):
        layer = conv2d("c", 16, 32, 3, (10, 10), groups=4)
        assert layer.params == 3 * 3 * 4 * 32

    def test_groups_must_divide(self):
        with pytest.raises(ValueError):
            conv2d("c", 15, 32, 3, (10, 10), groups=4)

    def test_activation_bytes(self):
        layer = conv2d("c", 3, 8, 3, (5, 5))
        assert layer.activation_bytes == 8 * 25 * 4


class TestLinear:
    def test_params(self):
        layer = linear("fc", 100, 10)
        assert layer.params == 1010

    def test_tokens_scale_flops_not_params(self):
        l1 = linear("fc", 64, 64, tokens=1)
        l2 = linear("fc", 64, 64, tokens=10)
        assert l1.params == l2.params
        assert l2.forward_flops == 10 * l1.forward_flops


class TestAttention:
    def test_params_are_four_projections(self):
        layer = multihead_attention("attn", 768, 12, 384)
        assert layer.params == 4 * (768 * 768 + 768)

    def test_quadratic_token_scaling(self):
        short = multihead_attention("a", 768, 12, 128)
        long = multihead_attention("a", 768, 12, 256)
        # Attention-score FLOPs grow ~4x when tokens double.
        proj = 2 * 4 * 768 * 768
        score_short = short.forward_flops - proj * 128
        score_long = long.forward_flops - proj * 256
        assert score_long == pytest.approx(4 * score_short)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            multihead_attention("a", 100, 7, 10)


class TestMiscLayers:
    def test_batchnorm_not_weighted(self):
        assert not batchnorm2d("bn", 64, (10, 10)).weighted

    def test_layernorm_params(self):
        assert layernorm("ln", 768).params == 1536

    def test_embedding_no_flops(self):
        layer = embedding("emb", 30522, 768, tokens=384)
        assert layer.forward_flops == 0.0
        assert layer.params == 30522 * 768

    def test_pooling_no_params(self):
        assert pooling("p", 64, (7, 7)).params == 0

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            Layer("bad", -1, 0.0, 0.0)


class TestModelGraph:
    def make_graph(self):
        g = ModelGraph("toy")
        g.add(conv2d("c1", 3, 8, 3, (10, 10)))
        g.add(batchnorm2d("bn", 8, (10, 10)))
        g.add(linear("fc", 800, 10))
        return g

    def test_aggregates(self):
        g = self.make_graph()
        assert g.params == (3 * 3 * 3 * 8) + 16 + 8010
        assert g.depth == 2  # conv + linear (bn unweighted)

    def test_precision_halves_bytes(self):
        g = self.make_graph()
        assert g.weight_bytes(Precision.FP16) == pytest.approx(
            g.weight_bytes(Precision.FP32) / 2)
        assert g.gradient_bytes(Precision.FP16) == pytest.approx(
            g.params * 2)
        assert g.activation_bytes_per_sample(Precision.FP16) == \
            pytest.approx(g.activation_bytes_per_sample(Precision.FP32) / 2)


    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=64))
    def test_property_conv_params_positive_monotone(self, cin, cout):
        small = conv2d("c", cin, cout, 1, (4, 4))
        big = conv2d("c", cin, cout, 3, (4, 4))
        assert 0 < small.params < big.params
