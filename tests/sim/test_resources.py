"""Unit tests for repro.sim.resources."""

import pytest

from repro.sim import (
    Container,
    Environment,
    Resource,
    SimulationError,
    Store,
)


def test_resource_serializes_access():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(name, hold):
        req = res.request()
        yield req
        log.append(("start", name, env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append(("end", name, env.now))

    env.process(user("a", 2.0))
    env.process(user("b", 3.0))
    env.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 2.0),
        ("start", "b", 2.0),
        ("end", "b", 5.0),
    ]


def test_resource_capacity_two_runs_concurrently():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def user(name):
        with res.request() as req:
            yield req
            starts.append((name, env.now))
            yield env.timeout(1.0)

    for name in "abc":
        env.process(user(name))
    env.run()
    assert starts == [("a", 0.0), ("b", 0.0), ("c", 1.0)]


def test_resource_count_tracks_usage():
    env = Environment()
    res = Resource(env, capacity=2)

    def user():
        with res.request() as req:
            yield req
            assert len(res.users) >= 1
            yield env.timeout(1.0)

    env.process(user())
    env.run()
    assert len(res.users) == 0


def test_release_without_holding_raises():
    env = Environment()
    res = Resource(env, capacity=1)

    def bad():
        req = res.request()
        yield req
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    env.run(until=env.process(bad()))


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_request_cancel_removes_from_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    def impatient():
        yield env.timeout(1.0)
        req = res.request()
        result = yield env.any_of([req, env.timeout(2.0)])
        if req not in result:
            req.cancel()
            got.append("gave up")
        else:
            res.release(req)
            got.append("served")

    def patient():
        yield env.timeout(1.5)
        req = res.request()
        yield req
        got.append(("patient", env.now))
        res.release(req)

    env.process(holder())
    env.process(impatient())
    env.process(patient())
    env.run()
    assert "gave up" in got
    assert ("patient", 10.0) in got


def test_container_put_get():
    env = Environment()
    tank = Container(env, capacity=100.0, init=10.0)
    log = []

    def producer():
        for _ in range(3):
            yield env.timeout(1.0)
            yield tank.put(30.0)

    def consumer():
        yield tank.get(80.0)
        log.append(env.now)

    env.process(producer())
    env.process(consumer())
    env.run()
    # Needs 80: 10 initial + 30 + 30 + 30 -> available at t=3
    assert log == [3.0]
    assert tank.level == pytest.approx(20.0)


def test_container_capacity_blocks_put():
    env = Environment()
    tank = Container(env, capacity=50.0, init=40.0)
    log = []

    def producer():
        yield tank.put(20.0)  # blocks until space
        log.append(("put", env.now))

    def consumer():
        yield env.timeout(2.0)
        yield tank.get(30.0)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [("put", 2.0)]


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=-1)
    with pytest.raises(ValueError):
        Container(env, capacity=10, init=20)
    tank = Container(env, capacity=10)
    with pytest.raises(ValueError):
        tank.put(0)
    with pytest.raises(ValueError):
        tank.get(-1)


def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for item in ["x", "y", "z"]:
            yield store.put(item)
            yield env.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert [item for item, _ in got] == ["x", "y", "z"]


def test_store_capacity_backpressure():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("first")
        log.append(("put1", env.now))
        yield store.put("second")
        log.append(("put2", env.now))

    def consumer():
        yield env.timeout(5.0)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [("put1", 0.0), ("put2", 5.0)]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    def producer():
        yield env.timeout(4.0)
        yield store.put(99)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(99, 4.0)]


def test_store_len():
    env = Environment()
    store = Store(env)

    def fill():
        yield store.put("a")
        yield store.put("b")

    env.run(until=env.process(fill()))
    assert len(store.items) == 2
