"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_timeout_ordering():
    env = Environment()
    log = []

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker("late", 5.0))
    env.process(worker("early", 1.0))
    env.process(worker("mid", 2.5))
    env.run()
    assert log == [(1.0, "early"), (2.5, "mid"), (5.0, "late")]


def test_same_time_events_fifo():
    env = Environment()
    log = []

    def worker(name):
        yield env.timeout(1.0)
        log.append(name)

    for name in "abc":
        env.process(worker(name))
    env.run()
    assert log == ["a", "b", "c"]


def test_zero_delay_timeout():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(0.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0.0]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(2.0)
        return 42

    def parent():
        value = yield env.process(child())
        return value + 1

    proc = env.process(parent())
    result = env.run(until=proc)
    assert result == 43
    assert env.now == 2.0


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1.0)

    env.process(ticker())
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_event_succeed_value_propagates():
    env = Environment()
    evt = env.event()
    got = []

    def waiter():
        value = yield evt
        got.append(value)

    env.process(waiter())

    def trigger():
        yield env.timeout(3.0)
        evt.succeed("payload")

    env.process(trigger())
    env.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_raises_in_process():
    env = Environment()
    caught = []

    def waiter(evt):
        try:
            yield evt
        except RuntimeError as exc:
            caught.append(str(exc))

    evt = env.event()
    env.process(waiter(evt))

    def trigger():
        yield env.timeout(1.0)
        evt.fail(RuntimeError("boom"))

    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(bad())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_failed_process_awaited_reraises_in_parent():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise KeyError("inner")

    def parent():
        try:
            yield env.process(bad())
        except KeyError:
            return "caught"

    result = env.run(until=env.process(parent()))
    assert result == "caught"


def test_all_of_waits_for_all():
    env = Environment()

    def worker(delay, value):
        yield env.timeout(delay)
        return value

    def parent():
        a = env.process(worker(1.0, "a"))
        b = env.process(worker(3.0, "b"))
        results = yield env.all_of([a, b])
        return sorted(results.values())

    result = env.run(until=env.process(parent()))
    assert result == ["a", "b"]
    assert env.now == 3.0


def test_any_of_fires_on_first():
    env = Environment()

    def worker(delay, value):
        yield env.timeout(delay)
        return value

    def parent():
        a = env.process(worker(1.0, "fast"))
        b = env.process(worker(9.0, "slow"))
        results = yield env.any_of([a, b])
        return list(results.values())

    result = env.run(until=env.process(parent()))
    assert result == ["fast"]
    assert env.now == 1.0


def test_all_of_empty_fires_immediately():
    env = Environment()

    def parent():
        yield env.all_of([])
        return env.now

    assert env.run(until=env.process(parent())) == 0.0


def test_interrupt_delivery_and_cause():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(2.0)
        proc.interrupt(cause="wakeup")

    env.process(interrupter())
    env.run()
    assert log == [(2.0, "wakeup")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_rewait_original_event():
    env = Environment()
    log = []

    def sleeper():
        deadline = env.timeout(10.0)
        try:
            yield deadline
        except Interrupt:
            log.append(("interrupted", env.now))
            yield deadline
            log.append(("resumed", env.now))

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(4.0)
        proc.interrupt()

    env.process(interrupter())
    env.run()
    assert log == [("interrupted", 4.0), ("resumed", 10.0)]


def test_peek_and_step():
    env = Environment()

    def proc():
        yield env.timeout(7.0)

    env.process(proc())
    assert env.peek() == 0.0
    env.run()
    assert env.peek() == float("inf")


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive
    assert p.ok


def test_run_until_event_never_fires():
    env = Environment()
    evt = env.event()
    with pytest.raises(SimulationError):
        env.run(until=evt)


def test_nested_process_chain_timing():
    env = Environment()

    def leaf():
        yield env.timeout(1.0)
        return 1

    def mid():
        v = yield env.process(leaf())
        yield env.timeout(1.0)
        return v + 1

    def root():
        v = yield env.process(mid())
        yield env.timeout(1.0)
        return v + 1

    assert env.run(until=env.process(root())) == 3
    assert env.now == 3.0
