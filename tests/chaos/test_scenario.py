"""Scenario format: validation and seeded determinism."""

import pytest

from repro.chaos import FaultEvent, FaultScenario, ScenarioError


class TestFaultEventValidation:
    def test_valid_event(self):
        e = FaultEvent(1.0, "pull_cable", "port:H1")
        assert e.at == 1.0
        assert e.params == {}

    def test_negative_time_rejected(self):
        with pytest.raises(ScenarioError):
            FaultEvent(-0.1, "pull_cable", "port:H1")

    def test_unknown_action_rejected(self):
        with pytest.raises(ScenarioError):
            FaultEvent(1.0, "set_on_fire", "port:H1")

    def test_bare_target_rejected(self):
        with pytest.raises(ScenarioError):
            FaultEvent(1.0, "pull_cable", "H1")


class TestScenario:
    def test_events_sorted_by_time(self):
        s = FaultScenario("s", [
            FaultEvent(5.0, "restore_link", "port:H1"),
            FaultEvent(1.0, "pull_cable", "port:H1"),
        ])
        assert [e.at for e in s] == [1.0, 5.0]


class TestRandomScenarios:
    def test_same_seed_same_events(self):
        a = FaultScenario.random(42, 10.0, ["port:H1", "port:H2"])
        b = FaultScenario.random(42, 10.0, ["port:H1", "port:H2"])
        assert list(a) == list(b)

    def test_different_seed_different_events(self):
        a = FaultScenario.random(1, 10.0, ["port:H1", "port:H2"], count=5)
        b = FaultScenario.random(2, 10.0, ["port:H1", "port:H2"], count=5)
        assert list(a) != list(b)

    def test_every_pull_is_healed(self):
        s = FaultScenario.random(3, 10.0, ["port:H1"], count=8,
                                 actions=("pull_cable",))
        pulls = [e for e in s if e.action == "pull_cable"]
        heals = [e for e in s if e.action == "reseat_cable"]
        assert len(pulls) == 8
        assert len(heals) == 8
        for pull in pulls:
            assert any(h.at > pull.at and h.target == pull.target
                       for h in heals)

    def test_times_within_window(self):
        s = FaultScenario.random(4, 100.0, ["port:H1"], count=10)
        for e in s:
            assert 0.0 < e.at < 110.0  # heal events may run past 90%

    def test_validation(self):
        with pytest.raises(ScenarioError):
            FaultScenario.random(1, 10.0, [])
        with pytest.raises(ScenarioError):
            FaultScenario.random(1, -1.0, ["port:H1"])
        with pytest.raises(ScenarioError):
            FaultScenario.random(1, 10.0, ["port:H1"],
                                 actions=("set_on_fire",))
