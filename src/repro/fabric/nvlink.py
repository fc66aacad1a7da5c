"""NVLink hybrid cube mesh (paper Fig. 7).

Builds the 8-GPU DGX-1V NVLink 2.0 topology used by the host servers'
locally-attached V100 SXM2 GPUs.  Each GPU has six NVLink bricks spread
over four neighbours — two neighbours with a single link (NV1) and two
with a dual link (NV2):

======  ===========================
GPU     neighbours (link count)
======  ===========================
0       1 (1), 2 (1), 3 (2), 4 (2)
1       0 (1), 3 (1), 2 (2), 5 (2)
2       0 (1), 6 (1), 1 (2), 3 (2)
3       1 (1), 7 (1), 0 (2), 2 (2)
4       5 (1), 6 (1), 0 (2), 7 (2)
5       4 (1), 7 (1), 1 (2), 6 (2)
6       2 (1), 4 (1), 5 (2), 7 (2)
7       3 (1), 5 (1), 4 (2), 6 (2)
======  ===========================

The mean bidirectional P2P bandwidth over the sixteen adjacent pairs is
(8 x 2-link + 8 x 1-link)/16 ≈ 72 GB/s, matching Table IV's L-L figure.

A Hamiltonian cycle over NVLink edges (``RING_ORDER``) is exported for
NCCL-style ring collectives, so every ring hop stays on NVLink.
"""

from __future__ import annotations

from typing import Sequence

from .link import Link, NVLINK2_X1, NVLINK2_X2
from .topology import Topology

__all__ = ["HYBRID_CUBE_MESH_EDGES", "RING_ORDER", "build_hybrid_cube_mesh"]

#: (gpu_a, gpu_b, link_count) edges of the DGX-1V hybrid cube mesh.
HYBRID_CUBE_MESH_EDGES: tuple[tuple[int, int, int], ...] = (
    (0, 1, 1), (0, 2, 1), (0, 3, 2), (0, 4, 2),
    (1, 2, 2), (1, 3, 1), (1, 5, 2),
    (2, 3, 2), (2, 6, 1),
    (3, 7, 1),
    (4, 5, 1), (4, 6, 1), (4, 7, 2),
    (5, 6, 2), (5, 7, 1),
    (6, 7, 2),
)

#: A Hamiltonian cycle over NVLink edges (every consecutive pair,
#: including the wrap-around, is directly NVLink-connected).
RING_ORDER: tuple[int, ...] = (0, 4, 6, 2, 3, 7, 5, 1)


def build_hybrid_cube_mesh(topology: Topology,
                           gpu_nodes: Sequence[str]) -> list[Link]:
    """Wire 8 existing GPU nodes into the hybrid cube mesh.

    Parameters
    ----------
    topology:
        The fabric to add NVLink links to.
    gpu_nodes:
        Names of exactly eight GPU nodes, indexed 0..7 in mesh order.

    Returns the created links.
    """
    if len(gpu_nodes) != 8:
        raise ValueError(
            f"hybrid cube mesh needs exactly 8 GPUs, got {len(gpu_nodes)}")
    links = []
    for a, b, count in HYBRID_CUBE_MESH_EDGES:
        spec = NVLINK2_X2 if count == 2 else NVLINK2_X1
        links.append(topology.add_link(spec, gpu_nodes[a], gpu_nodes[b]))
    return links

