"""Shared-resource primitives for the simulation kernel.

Mirrors the SimPy resource family:

- :class:`Resource` — a pool of ``capacity`` identical slots with FIFO
  queuing (e.g. DMA engines, NVMe submission queues).
- :class:`Container` — a homogeneous quantity that can be ``put`` and
  ``get`` in fractional amounts (e.g. bytes of free GPU memory).
- :class:`Store` — a FIFO queue of discrete Python objects (e.g. batches
  moving through a data pipeline).

Requests are events; processes ``yield`` them and later ``release`` them
(or use the request as a context manager inside the generator).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .core import Environment, Event, SimulationError

__all__ = [
    "Resource",
    "Container",
    "Store",
]


class Request(Event):
    """A claim on one slot of a :class:`Resource`."""

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self.usage_since: Optional[float] = None
        resource._do_request(self)

    # Allow `with resource.request() as req: yield req` style inside
    # generator processes.
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` identical slots with FIFO queuing."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a slot; grants the next queued request, if any."""
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError(f"{request!r} does not hold this resource")
        self._trigger_waiters()

    # -- internals ------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self._grant(request)
        else:
            self.queue.append(request)

    def _grant(self, request: Request) -> None:
        self.users.append(request)
        request.usage_since = self.env.now
        request.succeed(request)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            raise SimulationError(f"{request!r} is not queued here")

    def _trigger_waiters(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            self._grant(self.queue.popleft())


class ContainerPut(Event):
    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.container = container
        self.amount = amount
        container._put_queue.append(self)
        container._update()

    def cancel(self) -> None:
        """Withdraw an un-granted put (e.g. the requester was interrupted).

        A queued put left behind by a dead process would otherwise fire
        whenever capacity frees up, silently leaking level.  No-op if the
        put was already granted.
        """
        if not self.triggered:
            try:
                self.container._put_queue.remove(self)
            except ValueError:  # pragma: no cover - already granted/removed
                pass


class ContainerGet(Event):
    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.container = container
        self.amount = amount
        container._get_queue.append(self)
        container._update()

    def cancel(self) -> None:
        """Withdraw an un-granted get.  No-op if already granted."""
        if not self.triggered:
            try:
                self.container._get_queue.remove(self)
            except ValueError:  # pragma: no cover - already granted/removed
                pass


class Container:
    """A homogeneous, divisible quantity with optional capacity bound."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not (0 <= init <= capacity):
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._put_queue: deque[ContainerPut] = deque()
        self._get_queue: deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def _update(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue:
                put = self._put_queue[0]
                if self._level + put.amount <= self.capacity:
                    self._put_queue.popleft()
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._get_queue:
                get = self._get_queue[0]
                if self._level >= get.amount:
                    self._get_queue.popleft()
                    self._level -= get.amount
                    get.succeed(get.amount)
                    progressed = True


class StorePut(Event):
    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._update()


class StoreGet(Event):
    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._get_queue.append(self)
        store._update()


class Store:
    """A FIFO queue of discrete items with optional capacity bound."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque = deque()
        self._put_queue: deque[StorePut] = deque()
        self._get_queue: deque[StoreGet] = deque()

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _update(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            while self._get_queue and self.items:
                self._get_queue.popleft().succeed(self.items.popleft())
                progressed = True
