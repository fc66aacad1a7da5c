"""Property-based tests on discrete-event kernel invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Resource, Store


class TestEventOrdering:
    @settings(max_examples=30, deadline=None)
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                           min_size=1, max_size=30))
    def test_completion_order_matches_sorted_delays(self, delays):
        env = Environment()
        log = []

        def proc(i, d):
            yield env.timeout(d)
            log.append((env.now, i))

        for i, d in enumerate(delays):
            env.process(proc(i, d))
        env.run()
        times = [t for t, _ in log]
        assert times == sorted(times)
        assert len(log) == len(delays)

    @settings(max_examples=30, deadline=None)
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=50.0),
                           min_size=1, max_size=20))
    def test_clock_never_goes_backward(self, delays):
        env = Environment()
        observed = []

        def proc(d):
            yield env.timeout(d)
            observed.append(env.now)
            yield env.timeout(d)
            observed.append(env.now)

        for d in delays:
            env.process(proc(d))
        env.run()
        assert observed == sorted(observed)

    @settings(max_examples=20, deadline=None)
    @given(
        delays=st.lists(st.floats(min_value=0.1, max_value=10.0),
                        min_size=2, max_size=10),
        seed=st.randoms(),
    )
    def test_determinism_independent_of_creation_order_values(self, delays,
                                                              seed):
        """Two environments running the same schedule agree exactly."""

        def run_once():
            env = Environment()
            log = []

            def proc(i, d):
                yield env.timeout(d)
                log.append((env.now, i))

            for i, d in enumerate(delays):
                env.process(proc(i, d))
            env.run()
            return log

        assert run_once() == run_once()


class TestResourceProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=5),
        holds=st.lists(st.floats(min_value=0.1, max_value=5.0),
                       min_size=1, max_size=12),
    )
    def test_makespan_bounds(self, capacity, holds):
        """Total time within [sum/capacity, sum] for a shared resource."""
        env = Environment()
        res = Resource(env, capacity=capacity)

        def user(h):
            with res.request() as req:
                yield req
                yield env.timeout(h)

        for h in holds:
            env.process(user(h))
        env.run()
        total = sum(holds)
        assert env.now >= total / capacity - 1e-9
        assert env.now <= total + 1e-9
        assert len(res.users) == 0

    @settings(max_examples=25, deadline=None)
    @given(items=st.lists(st.integers(), min_size=1, max_size=30))
    def test_store_fifo_preserves_order(self, items):
        env = Environment()
        store = Store(env)
        received = []

        def producer():
            for item in items:
                yield store.put(item)

        def consumer():
            for _ in items:
                value = yield store.get()
                received.append(value)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == items
