"""Fault scenario description format.

A scenario is an ordered list of :class:`FaultEvent` records — *when*
(simulated seconds), *what* (action name), *where* (a target string) and
action parameters.  The same format serves scripted experiment
scenarios, test fixtures, and seeded random scenarios.

Target syntax
-------------
``port:H1``
    A Falcon host port (the CDFP cable + adapter).
``node:<topology node>``
    Any fabric endpoint, e.g. ``node:falcon0/gpu3`` or
    ``node:falcon0/nvme``.

Actions
-------
``degrade_link``
    Retrain the target's link at reduced width (``lanes`` param).
``restore_link``
    Heal the target's link (reverses both degradation and a pull).
``pull_cable``
    Hard-fail the target's link; in-flight transfers abort.
``reseat_cable``
    Re-seat a pulled link (alias of ``restore_link``).
``port_flap``
    ``pull_cable`` now, automatic ``restore_link`` after ``down``
    seconds — the transient fault a backoff-retry policy rides out.
``gpu_drop``
    Fail *every* link of the target node with a
    :class:`~repro.fabric.topology.DeviceFailure` (device fell off the
    fabric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

__all__ = ["FaultEvent", "FaultScenario", "ScenarioError", "ACTIONS"]

#: Recognized fault actions.
ACTIONS = (
    "degrade_link",
    "restore_link",
    "pull_cable",
    "reseat_cable",
    "port_flap",
    "gpu_drop",
)


class ScenarioError(Exception):
    """Malformed scenario or event description."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: time, action, target, parameters."""

    at: float
    action: str
    target: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ScenarioError(f"event time must be >= 0, got {self.at}")
        if self.action not in ACTIONS:
            raise ScenarioError(
                f"unknown action {self.action!r}; known: {ACTIONS}")
        if ":" not in self.target:
            raise ScenarioError(
                f"target {self.target!r} must be 'kind:name' "
                "(e.g. 'port:H1', 'node:falcon0/gpu3')")


class FaultScenario:
    """A named, ordered fault schedule."""

    def __init__(self, name: str, events: Iterable[FaultEvent],
                 seed: Optional[int] = None):
        self.name = name
        self.events = sorted(events, key=lambda e: e.at)
        #: The seed a randomized scenario was drawn from (provenance).
        self.seed = seed

    def __iter__(self):
        return iter(self.events)

    # -- randomized scenarios ------------------------------------------------
    @classmethod
    def random(cls, seed: int, duration: float,
               targets: Sequence[str],
               count: int = 3,
               actions: Sequence[str] = ("degrade_link", "port_flap",
                                         "pull_cable"),
               name: Optional[str] = None) -> "FaultScenario":
        """A seeded random scenario: identical for identical arguments.

        Times are drawn uniformly over ``[0.1, 0.9] * duration``; every
        ``pull_cable`` is paired with a ``reseat_cable`` before the end
        so random scenarios stay survivable; ``degrade_link`` draws
        lanes from {8, 4}; ``port_flap`` downtime is 2-10% of duration.
        """
        if not targets:
            raise ScenarioError("random scenario needs at least one target")
        if duration <= 0:
            raise ScenarioError("duration must be positive")
        for action in actions:
            if action not in ACTIONS:
                raise ScenarioError(f"unknown action {action!r}")
        import numpy as np
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        for _ in range(count):
            at = float(rng.uniform(0.1, 0.9)) * duration
            action = str(rng.choice(list(actions)))
            target = str(rng.choice(list(targets)))
            params: dict = {}
            if action == "degrade_link":
                params["lanes"] = int(rng.choice([8, 4]))
            elif action == "port_flap":
                params["down"] = float(rng.uniform(0.02, 0.10)) * duration
            events.append(FaultEvent(at, action, target, params))
            if action == "pull_cable":
                heal = at + float(rng.uniform(0.02, 0.10)) * duration
                events.append(FaultEvent(heal, "reseat_cable", target))
        return cls(name or f"random-{seed}", events, seed=seed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultScenario {self.name!r} events={len(self.events)}>"
