"""Virtual-node batch semantics: the resize-invariant decomposition."""

import pytest

from repro.elastic import VirtualBatchSpec


class TestValidation:
    def test_global_batch_must_be_multiple_of_virtual_nodes(self):
        with pytest.raises(ValueError, match="multiple of virtual_nodes"):
            VirtualBatchSpec(4, 10)

    def test_virtual_nodes_must_be_positive(self):
        with pytest.raises(ValueError, match="virtual_nodes"):
            VirtualBatchSpec(0, 8)

    def test_accumulation_must_divide_per_vnode_batch(self):
        with pytest.raises(ValueError, match="not divisible"):
            VirtualBatchSpec(2, 8, base_accumulation=3)

    def test_accumulation_must_be_positive(self):
        with pytest.raises(ValueError, match="base_accumulation"):
            VirtualBatchSpec(2, 8, base_accumulation=0)


class TestInvariants:
    def test_global_batch_constant_across_every_feasible_world(self):
        spec = VirtualBatchSpec(8, 64, base_accumulation=2)
        for world in (1, 2, 4, 8):
            assert spec.config_overrides(world)["global_batch"] == 64

    def test_micro_batch_constant_across_every_feasible_world(self):
        # The micro-batch (kernel shapes, activation memory) must not
        # change on resize: G / (world * accumulation) is invariant.
        spec = VirtualBatchSpec(8, 64, base_accumulation=2)
        for world in (1, 2, 4, 8):
            ov = spec.config_overrides(world)
            micro = ov["global_batch"] // (world * ov["accumulation_steps"])
            assert micro == 4

    def test_accumulation_scales_inversely_with_world(self):
        spec = VirtualBatchSpec(4, 8)
        assert spec.config_overrides(4)["accumulation_steps"] == 1
        assert spec.config_overrides(2)["accumulation_steps"] == 2
        assert spec.config_overrides(1)["accumulation_steps"] == 4


class TestFeasibleWorld:
    def test_snaps_down_to_the_largest_divisor(self):
        spec = VirtualBatchSpec(4, 8)
        assert [spec.feasible_world(n) for n in range(7)] \
            == [0, 1, 2, 2, 4, 4, 4]

    def test_never_exceeds_the_virtual_node_count(self):
        assert VirtualBatchSpec(2, 8).feasible_world(16) == 2

    def test_overrides_reject_a_non_divisor_world(self):
        with pytest.raises(ValueError, match="feasible_world"):
            VirtualBatchSpec(4, 8).config_overrides(3)
