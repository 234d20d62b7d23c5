"""Contended resources for the simulation kernel.

:class:`Resource` models mutually-exclusive hardware units (a flash chip, a
channel bus, a dispatch thread): FIFO granting, fixed capacity.
:class:`Store` is an unbounded FIFO queue of items used for message passing
between processes (e.g. the LightLSM dispatch queue).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator


class Resource:
    """A capacity-limited resource with priority-then-FIFO granting.

    Lower ``priority`` values are served first (default 0); requests of
    equal priority are FIFO.  Device models use a negative priority for
    latency-critical metadata operations (FUA writes) so they do not queue
    behind bulk data programs.

    Usage inside a process::

        grant = resource.request()
        yield grant
        try:
            ...  # critical section
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: list[tuple[int, int, Event]] = []
        self._abandoned: set[Event] = set()
        self._sequence = 0
        # Cumulative busy integral for utilization reporting.
        self._busy_since: Optional[float] = None
        self._busy_total = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    def request(self, priority: int = 0) -> Event:
        """Return an event that succeeds once a unit is granted.

        A grant abandoned by an interrupted waiter is reclaimed
        automatically (the event's ``abandon_callback`` hands the unit
        back or removes the request from the queue).
        """
        grant = self.sim.event()
        grant.abandon_callback = self._abandon
        if self._in_use < self.capacity:
            self._grant(grant)
        else:
            self._sequence += 1
            heapq.heappush(self._waiters, (priority, self._sequence, grant))
        return grant

    def try_acquire(self) -> bool:
        """Claim a free unit synchronously, without an event round-trip.

        Returns True (and the caller owns one unit, to be handed back with
        :meth:`release`) when a unit is free, False when at capacity.  The
        uncontended case is the hot path in the device model: the grant
        would succeed at the current instant anyway, so skipping the event
        changes neither timing nor fairness.
        """
        if self._in_use >= self.capacity:
            return False
        if self._in_use == 0:
            self._busy_since = self.sim.now
        self._in_use += 1
        return True

    def release(self) -> None:
        """Return one granted unit; wakes the best-placed waiter."""
        if self._in_use == 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self._busy_total += self.sim.now - self._busy_since
            self._busy_since = None
        while self._waiters:
            __, __, grant = heapq.heappop(self._waiters)
            if grant in self._abandoned:
                self._abandoned.discard(grant)
                continue
            self._grant(grant)
            break

    def _abandon(self, grant: Event) -> None:
        if grant.triggered:
            # The unit was already granted: hand it back.
            self.release()
        else:
            self._abandoned.add(grant)

    def busy_time(self) -> float:
        """Total simulated time during which at least one unit was in use."""
        total = self._busy_total
        if self._busy_since is not None:
            total += self.sim.now - self._busy_since
        return total

    def utilization(self) -> float:
        """Fraction of elapsed simulation time the resource was busy."""
        if self.sim.now == 0:
            return 0.0
        return self.busy_time() / self.sim.now

    def _grant(self, grant: Event) -> None:
        if self._in_use == 0:
            self._busy_since = self.sim.now
        self._in_use += 1
        grant.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Resource {self.name!r} {self._in_use}/{self.capacity} "
                f"({len(self._waiters)} waiting)>")


class Store:
    """An unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that succeeds with the
    next item (immediately if one is available, otherwise when one arrives).
    Pending getters are served in FIFO order.
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the longest-waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        request = self.sim.event()
        if self._items:
            request.succeed(self._items.popleft())
        else:
            self._getters.append(request)
        return request
