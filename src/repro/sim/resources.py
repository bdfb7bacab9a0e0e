"""Waitable resource primitives built on the DES kernel.

Provides the two primitives the network substrate needs:

* :class:`Store` — an unbounded-or-bounded FIFO mailbox.  Hosts and
  controller channels use stores as receive queues.
* :class:`Resource` — a counted resource with FIFO waiters, used to model
  exclusive access (e.g. a CPU core executing crypto operations serially).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Event, SimulationError, Simulator

__all__ = ["Store", "Resource"]


class Store:
    """FIFO mailbox: ``put`` items, processes ``get`` events to receive them.

    If ``capacity`` is given, ``put`` raises :class:`SimulationError` when
    full (network queues model drops explicitly instead of blocking senders).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """True when a bounded store is at capacity."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def try_put(self, item: Any) -> bool:
        """Put if there is room; returns False (item dropped) when full."""
        if self.is_full:
            return False
        self.put(item)
        return True

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self.is_full:
            raise SimulationError("store is full")
        if self.sim._sanitizer is not None:
            self.sim._sanitizer.touch(self, "append")
        # Hand the item straight to a waiter when one exists: FIFO fairness.
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:  # skip cancelled/interrupted waiters
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next item (immediately if queued)."""
        if self.sim._sanitizer is not None:
            self.sim._sanitizer.touch(self, "take")
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (for inspection/attacks, not removal)."""
        return list(self._items)


class Resource:
    """A counted resource with FIFO waiters.

    ``request()`` returns an event that fires when a slot is acquired;
    ``release()`` frees a slot.  Used to serialize CPU-bound work.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if not capacity >= 1:  # nan included
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of waiters queued for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """An event that fires once a slot is acquired."""
        if self.sim._sanitizer is not None:
            self.sim._sanitizer.touch(self, "write")
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free one slot, waking the oldest waiter."""
        if self._in_use <= 0:
            raise SimulationError("release without matching request")
        if self.sim._sanitizer is not None:
            self.sim._sanitizer.touch(self, "write")
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.succeed()
                return
        self._in_use -= 1
