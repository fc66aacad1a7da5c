"""Virtual-node batch semantics: world-size-invariant training batches.

Elastic training changes the ring size mid-run, but the *optimization
problem* must not change with it: learning-rate schedules, convergence
behaviour and epoch accounting are all calibrated to one effective
global batch.  The standard trick (VirtualFlow, Pollux-style elastic
trainers) is to fix a number of **virtual nodes** ``V`` and map them
onto however many physical GPUs are currently in the ring: at world size
``W`` each GPU hosts ``V / W`` virtual nodes and runs that many more
gradient-accumulation micro-steps, so

* the effective global batch ``G`` is invariant across resizes,
* the micro-batch ``G / (V * a)`` (the unit that determines activation
  memory and kernel shapes) is invariant too — recompiled plans reuse
  the same kernels at every world size,
* only the accumulation depth ``a * V / W`` varies.

The mapping is exact only when ``W`` divides ``V``, so elastic resizes
snap to the largest feasible world (:meth:`VirtualBatchSpec.
feasible_world`); leftover GPUs are *parked* (returned to the spare
pool) rather than admitted into a ring they would unbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VirtualBatchSpec"]


@dataclass(frozen=True)
class VirtualBatchSpec:
    """Fixed logical decomposition of one training batch.

    Parameters
    ----------
    virtual_nodes:
        Number of logical workers ``V`` the batch is cut into — an upper
        bound on the physical world size, fixed for the whole run.
    global_batch:
        Effective global batch ``G``; must be a multiple of ``V``.
    base_accumulation:
        Accumulation micro-steps per virtual node at full deployment
        (``W == V``); scales up as the ring shrinks.
    """

    virtual_nodes: int
    global_batch: int
    base_accumulation: int = 1

    def __post_init__(self):
        if self.virtual_nodes < 1:
            raise ValueError(
                f"virtual_nodes must be >= 1, got {self.virtual_nodes}")
        if self.global_batch < 1 \
                or self.global_batch % self.virtual_nodes != 0:
            raise ValueError(
                f"global batch {self.global_batch} must be a positive "
                f"multiple of virtual_nodes {self.virtual_nodes}")
        if self.base_accumulation < 1:
            raise ValueError(
                f"base_accumulation must be >= 1, "
                f"got {self.base_accumulation}")
        if self.per_vnode_batch % self.base_accumulation != 0:
            raise ValueError(
                f"per-virtual-node batch {self.per_vnode_batch} not "
                f"divisible by accumulation {self.base_accumulation}")

    @property
    def per_vnode_batch(self) -> int:
        """Samples per virtual node per optimizer step (invariant)."""
        return self.global_batch // self.virtual_nodes

    def feasible_world(self, available: int) -> int:
        """Largest world size ``<= available`` that divides ``V``.

        0 when no GPU is available.  Elastic resizes snap down to this;
        the remainder GPUs are parked.
        """
        if available < 1:
            return 0
        world = min(available, self.virtual_nodes)
        while self.virtual_nodes % world != 0:
            world -= 1
        return world

    def config_overrides(self, world: int) -> dict:
        """Training-config fields realizing this spec at ``world`` GPUs.

        Returns ``global_batch`` (constant) and ``accumulation_steps``
        (scaled so each GPU serves its ``V / world`` virtual nodes).
        """
        if world < 1 or self.virtual_nodes % world != 0:
            raise ValueError(
                f"world {world} does not divide virtual_nodes "
                f"{self.virtual_nodes}; snap with feasible_world() first")
        return {
            "global_batch": self.global_batch,
            "accumulation_steps":
                self.base_accumulation * (self.virtual_nodes // world),
        }
