"""Discrete resources on top of the simulation kernel.

:class:`Resource` is a counting semaphore with FIFO waiters — used for
Hadoop task *slots* (map/reduce slots per TaskTracker).  ``acquire``
returns an event a process yields on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import ResourceError
from repro.sim.kernel import Event, Simulator


class Resource:
    """Counting semaphore with FIFO granting order."""

    __slots__ = ("sim", "capacity", "name", "in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Return an event that triggers when one unit is granted."""
        event = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit; grants the oldest waiter if any."""
        if self.in_use <= 0:
            raise ResourceError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            # Hand the unit straight to the next waiter; in_use unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self.in_use -= 1

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Resource {self.name} {self.in_use}/{self.capacity} "
                f"queued={len(self._waiters)}>")
