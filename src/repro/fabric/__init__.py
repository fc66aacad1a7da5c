"""Interconnect fabric: links, flows, topology, NVLink mesh, Falcon 4016.

This package models everything between devices: link specifications
(:mod:`~repro.fabric.link`), a max-min fair fluid-flow bandwidth model
(:mod:`~repro.fabric.flows`), a routable topology graph with dynamic
attach/detach (:mod:`~repro.fabric.topology`), the DGX-1V NVLink hybrid
cube mesh (:mod:`~repro.fabric.nvlink`), PCIe switches and root complexes
(:mod:`~repro.fabric.pcie`), and the Falcon 4016 composable chassis
(:mod:`~repro.fabric.falcon`).
"""

from .falcon import Drawer, Falcon4016, FalconError, FalconMode, Slot
from .flows import Flow, FlowScheduler, Segment
from .maxmin import MaxMinSolver, water_fill
from .link import (
    CDFP_400G,
    DDR4_CHANNEL,
    ETH_10G,
    GB,
    GIB,
    Link,
    LinkSpec,
    NVLINK2_X1,
    NVLINK2_X2,
    PCIE_GEN3_X16,
    PCIE_GEN4_X16,
    PCIE_GEN4_X4,
    PCIE_GEN4_X8,
    Protocol,
    SATA3,
    US,
)
from .nvlink import HYBRID_CUBE_MESH_EDGES, RING_ORDER, build_hybrid_cube_mesh
from .pcie import PCIeSwitch, RootComplex
from .topology import (
    DeviceFailure,
    LinkFailure,
    NoRouteError,
    Node,
    Route,
    Topology,
)

__all__ = [
    "Link",
    "LinkSpec",
    "Protocol",
    "GB",
    "GIB",
    "US",
    "PCIE_GEN3_X16",
    "PCIE_GEN4_X4",
    "PCIE_GEN4_X8",
    "PCIE_GEN4_X16",
    "NVLINK2_X1",
    "NVLINK2_X2",
    "CDFP_400G",
    "ETH_10G",
    "SATA3",
    "DDR4_CHANNEL",
    "Flow",
    "FlowScheduler",
    "MaxMinSolver",
    "Segment",
    "water_fill",
    "Topology",
    "Node",
    "Route",
    "NoRouteError",
    "LinkFailure",
    "DeviceFailure",
    "PCIeSwitch",
    "RootComplex",
    "Falcon4016",
    "FalconMode",
    "FalconError",
    "Drawer",
    "Slot",
    "HYBRID_CUBE_MESH_EDGES",
    "RING_ORDER",
    "build_hybrid_cube_mesh",
]
