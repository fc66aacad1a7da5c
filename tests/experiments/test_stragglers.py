"""Tests for kernel jitter, the simulator's straggler model."""

import pytest

from repro import ComposableSystem
from repro.training import AMP_POLICY, StepCosts
from repro.workloads import get_benchmark


class TestJitterPrimitive:
    def make_costs(self, jitter, seed=7):
        b = get_benchmark("bert-large")
        return StepCosts.for_benchmark(b.build(), AMP_POLICY, 0.22, 6,
                                       jitter=jitter, seed=seed)

    def test_zero_jitter_is_exactly_one(self):
        costs = self.make_costs(0.0)
        assert all(costs.jitter_factor() == 1.0 for _ in range(5))

    def test_jitter_samples_vary_positively(self):
        costs = self.make_costs(0.2)
        samples = [costs.jitter_factor() for _ in range(50)]
        assert all(s > 0 for s in samples)
        assert len(set(samples)) > 40

    def test_seeded_reproducibility(self):
        a = self.make_costs(0.2, seed=42)
        b = self.make_costs(0.2, seed=42)
        assert [a.jitter_factor() for _ in range(10)] == \
            [b.jitter_factor() for _ in range(10)]

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            self.make_costs(-0.1)


class TestJitteredTraining:
    def test_jittered_run_reproducible_at_fixed_seed(self):
        steps = []
        for _ in range(2):
            system = ComposableSystem()
            r = system.train("bert-base", sim_steps=5,
                             kernel_jitter=0.1, jitter_seed=123)
            steps.append(r.step_time)
        assert steps[0] == steps[1]

    def test_jitter_raises_step_variance(self):
        system = ComposableSystem()
        det = system.train("bert-base", sim_steps=6)
        system = ComposableSystem()
        jit = system.train("bert-base", sim_steps=6, kernel_jitter=0.15)
        assert jit.step_time_std > det.step_time_std
