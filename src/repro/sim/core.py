"""Discrete-event simulation kernel.

A from-scratch, generator-based discrete-event simulator in the style of
SimPy (which is not available in this offline environment).  Processes are
Python generators that ``yield`` events; the :class:`Environment` owns a
priority queue of scheduled events and advances simulated time from event
to event.

Only the features required by the composable-system models are
implemented, but they are implemented fully: timeouts, process joining,
event composition (:class:`AllOf` / :class:`AnyOf`), interrupts, and
failure propagation.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for structural errors in the simulation (not model failures)."""


class Interrupt(Exception):
    """Raised inside a process that has been interrupted.

    Parameters
    ----------
    cause:
        Arbitrary object describing why the interrupt happened.  Available
        as :attr:`cause` on the caught exception.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"


# Event lifecycle sentinels.
_PENDING = object()


class Event:
    """A condition that may happen at some point in simulated time.

    Events start *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers them, which schedules their callbacks to run at the current
    simulation time.  An event's :attr:`value` is available once it has
    been processed.
    """

    # Events dominate the simulator's allocation profile; __slots__ cuts
    # per-instance memory and speeds attribute access on the hot path.
    # Subclasses that add ad-hoc attributes (resources, conditions)
    # simply omit __slots__ and regain a __dict__.
    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: True once a failure value has been retrieved or handled.
        self.defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True if the event has been scheduled (succeed/fail called)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid after triggering."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # _schedule inlined: succeed is on the kernel's hottest path.
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now, 1, eid, self))  # NORMAL
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires after ``delay`` units of simulated time."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 eid: Optional[int] = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Event.__init__ and Environment._schedule inlined: a timeout
        # is the kernel's most frequent allocation.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self._delay = delay
        if eid is None:
            env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + delay, 1, eid, self))  # NORMAL

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Timeout delay={self._delay}>"


class Initialize(Event):
    """Immediate event used to start a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, priority=Environment.URGENT)


class Process(Event):
    """A running process.  Also an event that fires when the process ends.

    The process's generator is resumed each time the event it yielded is
    processed.  Yielding a failed event re-raises the failure inside the
    generator, allowing ``try/except`` around ``yield``.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self._target is None:
            raise SimulationError(f"{self!r} is not waiting; cannot interrupt")
        # Deliver via a high-priority event so interrupts beat same-time
        # regular events.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        # Detach from the event we were waiting on: we will be resumed by
        # the interrupt instead.  The original event may still fire later;
        # the process can re-wait on it.  Defuse it too — if it instead
        # *fails* later (a teardown racing an in-flight fault cascade) and
        # every waiter was interrupted away, the orphaned failure must not
        # crash the simulation.  Defusing never hides the failure from
        # surviving waiters: delivery marks the event defused anyway.
        self._target.defused = True
        if self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        event.callbacks.append(self._resume)
        self.env._schedule(event, priority=Environment.URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or failure) of ``event``."""
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event.defused = True
                    exc = event._value
                    next_event = self._generator.throw(exc)
            except StopIteration as exc:
                self._target = None
                self.succeed(exc.value)
                return
            except BaseException as exc:
                self._target = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                self._generator.throw(
                    SimulationError(
                        f"process yielded a non-event: {next_event!r}"))
                continue

            if next_event.callbacks is not None:
                # Event not yet processed: register and suspend.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                return
            # Event already processed: feed its value straight back in.
            event = next_event

    def __repr__(self) -> str:  # pragma: no cover
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name} {'alive' if self.is_alive else 'done'}>"


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        # Immediately evaluate already-processed events, register on others.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self._events and not self.triggered:
            self.succeed(ConditionValue({}))

    def _check(self, event: Event) -> None:
        if self.triggered:
            # A sibling already decided this condition.  Late failures must
            # still be defused, or the unhandled-failure check in
            # Environment.step would crash the simulation — e.g. a link
            # failure killing several in-flight transfers fails every
            # transfer process feeding one AllOf at the same instant.
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate():
            self.succeed(ConditionValue(
                {e: e._value for e in self._events if e.triggered and e._ok}))


class ConditionValue(dict):
    """Mapping of event -> value for composite events.

    Iterating yields values in the order the events were supplied, which
    makes ``a, b = yield env.all_of([ea, eb])`` unpacking natural.
    """

    def __init__(self, mapping: dict):
        super().__init__(mapping)


class AllOf(_Condition):
    """Fires once all component events have fired."""

    def _evaluate(self) -> bool:
        return self._count >= len(self._events)


class AnyOf(_Condition):
    """Fires once any component event has fired."""

    def _evaluate(self) -> bool:
        return self._count >= 1 or not self._events


class Environment:
    """Execution environment: event queue and simulated clock."""

    #: Priority for events that must run before normal events at a time.
    URGENT = 0
    #: Default priority.
    NORMAL = 1
    #: Priority for events that run after every other event at a time.
    LAST = 2

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []
        # Monotonic event id: FIFO tie-break for same-(time, priority)
        # entries.  A plain int beats itertools.count() here — no
        # iterator-protocol dispatch on the hottest call in the kernel.
        self._eid = 0

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                eid: Optional[int] = None) -> Timeout:
        """An event firing ``delay`` time units from now.

        ``eid``, taken earlier from :meth:`reserve`, orders it among
        same-time events as if it had been scheduled when reserved.
        """
        return Timeout(self, delay, value, eid)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def defer(self, callback: Callable[[Event], None]) -> None:
        """Run ``callback`` after every other event at the current time,
        those scheduled for it in the meantime included."""
        event = Event(self)
        event._ok = True
        event._value = None
        event.callbacks.append(callback)
        self._schedule(event, priority=Environment.LAST)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL,
                  delay: float = 0.0, eid: Optional[int] = None) -> None:
        if eid is None:
            self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, priority, eid, event))

    def reserve(self) -> int:
        """Take the next event id now for an event scheduled later (see
        :meth:`timeout`)."""
        self._eid += 1
        return self._eid

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("no more events")
        when, _prio, _eid, event = heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # An unhandled failure: propagate out of the simulation loop.
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue is empty.
            a number — run until simulated time reaches it.
            an :class:`Event` — run until the event is processed and
            return its value (raising if it failed).
        """
        # Bind the queue and step to locals: the run loop is the hottest
        # code in the simulator and repeated self-attribute loads add up.
        queue = self._queue
        step = self.step

        if until is None:
            while queue:
                step()
            return None

        if isinstance(until, Event):
            stop = until
            while stop.callbacks is not None:  # not yet processed
                if not queue:
                    raise SimulationError(
                        "simulation ended before the awaited event fired")
                step()
            if stop._ok:
                return stop._value
            stop.defused = True
            raise stop._value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"until={horizon} is in the past (now={self._now})")
        while queue and queue[0][0] <= horizon:
            step()
        self._now = horizon
        return None
