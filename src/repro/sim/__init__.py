"""Discrete-event simulation kernel (SimPy-style, self-contained).

The kernel replaces the paper's Mininet real-time testbed: all latencies,
bandwidth effects and CPU costs in the reproduction are expressed as events
on a single deterministic simulated clock.
"""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Periodic,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Periodic",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
