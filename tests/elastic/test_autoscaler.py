"""Autoscaling policies: eager vs hysteresis grow decisions."""

import pytest

from repro.elastic import EagerGrowPolicy, HysteresisPolicy


def observe_series(policy, spares):
    return [policy.observe(float(i), i, 2, s)
            for i, s in enumerate(spares)]


def test_eager_fires_the_moment_a_spare_appears():
    assert observe_series(EagerGrowPolicy(), [0, 1, 0, 2]) \
        == [None, "grow", None, "grow"]


class TestHysteresis:
    def test_requires_hold_consecutive_sightings(self):
        policy = HysteresisPolicy(hold=3, cooldown=0)
        assert observe_series(policy, [1, 1, 1]) == [None, None, "grow"]

    def test_streak_resets_when_spares_vanish(self):
        policy = HysteresisPolicy(hold=2, cooldown=0)
        # The blip at step 2 restarts the count.
        assert observe_series(policy, [1, 0, 1, 1]) \
            == [None, None, None, "grow"]

    def test_cooldown_suppresses_back_to_back_grows(self):
        policy = HysteresisPolicy(hold=1, cooldown=2)
        # Fires, then sits out two observations, then fires again.
        assert observe_series(policy, [1, 1, 1, 1]) \
            == ["grow", None, None, "grow"]

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            HysteresisPolicy(hold=0)
        with pytest.raises(ValueError):
            HysteresisPolicy(hold=1, cooldown=-1)
