"""Autoscaling policies: when should an elastic job claim free GPUs?

Policies observe the world at each step boundary (the elastic runtime's
safe points) and answer one question: *grow now?*  Shrinks are driven by
faults and preemptions, not policy, so the interface is deliberately
one-sided.

Two reference policies bracket the design space the elasticity study
compares:

* :class:`EagerGrowPolicy` grabs capacity the moment it appears.
  Maximum opportunism, but every grow attempt costs a teardown +
  recompose stall — when the free capacity is not actually admissible
  (it does not reach the next feasible world size, or another tenant
  wins the claim race) the stall bought nothing.
* :class:`HysteresisPolicy` requires capacity to stay free for ``hold``
  consecutive observations before acting, and enters a ``cooldown``
  refractory period after each attempt.  It forgoes some upside on
  genuinely free capacity but is robust to flapping spares and claim
  races.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["AutoscalePolicy", "EagerGrowPolicy", "HysteresisPolicy"]


class AutoscalePolicy:
    """Interface: one observation per safe point, maybe a verdict.

    ``observe(now, step, world, spare_count)`` returns ``"grow"`` to
    request a resize, or None to hold.
    """


class EagerGrowPolicy(AutoscalePolicy):
    """Grow whenever any spare is visible."""

    name = "eager"

    def observe(self, now: float, step: int, world: int,
                spare_count: int) -> Optional[str]:
        return "grow" if spare_count > 0 else None


class HysteresisPolicy(AutoscalePolicy):
    """Grow only after sustained free capacity; cool down between tries.

    ``hold`` consecutive observations with at least one spare are
    required before a grow fires; after firing (successful or not) the
    policy ignores ``cooldown`` observations so a single inadmissible
    spare cannot thrash the job with back-to-back teardowns.
    """

    name = "hysteresis"

    def __init__(self, hold: int = 3, cooldown: int = 4):
        if hold < 1 or cooldown < 0:
            raise ValueError("hold must be >= 1 and cooldown >= 0")
        self.hold = hold
        self.cooldown = cooldown
        self._streak = 0
        self._refractory = 0

    def observe(self, now: float, step: int, world: int,
                spare_count: int) -> Optional[str]:
        if self._refractory > 0:
            self._refractory -= 1
            self._streak = 0
            return None
        if spare_count <= 0:
            self._streak = 0
            return None
        self._streak += 1
        if self._streak >= self.hold:
            self._streak = 0
            self._refractory = self.cooldown
            return "grow"
        return None
