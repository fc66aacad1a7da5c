"""Discrete-event simulation kernel (SimPy-style, from scratch).

Public surface:

- :class:`Environment`, :class:`Event`, :class:`Process`, :class:`Timeout`
- Composition: :class:`AllOf`, :class:`AnyOf`
- Exceptions: :class:`Interrupt`, :class:`SimulationError`
- Resources: :class:`Resource`, :class:`Container`, :class:`Store`
- Instrumentation: :class:`TimeSeries`, :class:`CounterMonitor`
"""

from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .monitor import CounterMonitor, SummaryStats, TimeSeries
from .resources import (
    Container,
    Resource,
    Store,
)

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "Resource",
    "Container",
    "Store",
    "TimeSeries",
    "CounterMonitor",
    "SummaryStats",
]
