"""Unit tests for repro.fabric.link."""

import pytest

from repro.fabric import (
    CDFP_400G,
    GB,
    Link,
    LinkSpec,
    NVLINK2_X1,
    NVLINK2_X2,
    PCIE_GEN4_X8,
    PCIE_GEN4_X16,
    Protocol,
)


class TestLinkSpec:
    def test_catalog_sanity(self):
        assert PCIE_GEN4_X16.lanes == 16
        assert PCIE_GEN4_X16.protocol is Protocol.PCIE4
        assert NVLINK2_X2.bandwidth == pytest.approx(2 * NVLINK2_X1.bandwidth)

    def test_bidirectional_bandwidth(self):
        assert PCIE_GEN4_X16.bidirectional_bandwidth == pytest.approx(
            2 * PCIE_GEN4_X16.bandwidth)

    def test_scaled_lanes(self):
        assert PCIE_GEN4_X8.lanes == 8
        assert PCIE_GEN4_X8.bandwidth == pytest.approx(
            PCIE_GEN4_X16.bandwidth / 2)
        assert "x8" in PCIE_GEN4_X8.name

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            PCIE_GEN4_X16.scaled(0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", Protocol.PCIE4, 0, 1 * GB, 1e-6)
        with pytest.raises(ValueError):
            LinkSpec("bad", Protocol.PCIE4, 16, -1.0, 1e-6)
        with pytest.raises(ValueError):
            LinkSpec("bad", Protocol.PCIE4, 16, 1 * GB, -1e-6)

    def test_falcon_calibration_table4(self):
        # Table IV effective payload bandwidths (bidirectional, GB/s).
        assert PCIE_GEN4_X16.bidirectional_bandwidth / GB == pytest.approx(
            24.6, abs=0.5)  # F-F 24.47
        assert CDFP_400G.bidirectional_bandwidth / GB == pytest.approx(
            19.7, abs=0.5)  # F-L 19.64
        # NVLink mesh: mean over 1-link and 2-link adjacent pairs ~ 72.3
        mean = (NVLINK2_X1.bidirectional_bandwidth
                + NVLINK2_X2.bidirectional_bandwidth) / 2 / GB
        assert mean == pytest.approx(72.3, abs=1.0)  # L-L 72.37


class TestLink:
    def test_endpoints_and_other(self):
        link = Link(PCIE_GEN4_X16, "a", "b")
        assert link.other("a") == "b"
        assert link.other("b") == "a"
        with pytest.raises(ValueError):
            link.other("c")

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Link(PCIE_GEN4_X16, "x", "x")

    def test_directional_accounting(self):
        link = Link(PCIE_GEN4_X16, "a", "b")
        link.counters[("a", "b")].add(1.0, 1000.0)
        link.counters[("b", "a")].add(2.0, 500.0)
        assert link.bytes_moved("a", "b") == 1000.0
        assert link.bytes_moved("b", "a") == 500.0

    def test_invalid_direction_rejected(self):
        link = Link(PCIE_GEN4_X16, "a", "b")
        with pytest.raises(ValueError):
            link.direction("a", "c")

    def test_mean_rate(self):
        link = Link(PCIE_GEN4_X16, "a", "b")
        link.counters[("a", "b")].add(10.0, 100.0 * GB)
        assert link.mean_rate("a", "b", 0.0, 10.0) == pytest.approx(10 * GB)

    def test_unique_ids(self):
        l1 = Link(PCIE_GEN4_X16, "a", "b")
        l2 = Link(PCIE_GEN4_X16, "a", "b")
        assert l1.id != l2.id
