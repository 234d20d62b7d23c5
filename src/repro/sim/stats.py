"""Measurement primitives: throughput time series and utilization.

These are the instruments behind the paper's figures: Figure 6 is a
throughput-vs-time series (:class:`ThroughputRecorder`) and Figure 7 is a
CPU utilization measurement (:class:`UtilizationTracker`).  Latency
samples and percentiles are :class:`repro.obs.metrics.Histogram`'s.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.core import Simulator


class ThroughputRecorder:
    """Buckets completion events into fixed-width time windows.

    ``record(now)`` adds one operation at simulated time *now*; ``series()``
    yields ``(window_start_time, ops_per_second)`` pairs, which is exactly
    the shape of the Figure 6 curves.
    """

    def __init__(self, window: float = 1.0):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._buckets: dict[int, int] = {}
        self.total = 0

    def record(self, now: float, count: int = 1) -> None:
        index = int(now / self.window)
        self._buckets[index] = self._buckets.get(index, 0) + count
        self.total += count

    def series(self) -> List[Tuple[float, float]]:
        """Return ``(time, ops/sec)`` points covering every window from the
        first to the last recorded one (empty windows report 0)."""
        if not self._buckets:
            return []
        first = min(self._buckets)
        last = max(self._buckets)
        return [(index * self.window,
                 self._buckets.get(index, 0) / self.window)
                for index in range(first, last + 1)]

    def average(self, elapsed: float) -> float:
        """Average ops/sec over *elapsed* seconds of simulated time."""
        if elapsed <= 0:
            return 0.0
        return self.total / elapsed


class UtilizationTracker:
    """Integrates the busy time of a unit with explicit begin/end marks.

    Unlike :class:`repro.sim.resources.Resource` (busy when *any* unit is in
    use) this tracks the aggregate of *n* units — e.g. total CPU-seconds
    consumed across the cores of the DFC controller — so utilization can
    exceed the time axis and is reported against ``capacity * elapsed``.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._busy_seconds = 0.0
        self._started = sim.now

    def add_busy(self, seconds: float) -> None:
        """Account *seconds* of busy time (CPU-seconds, bus-seconds, ...)."""
        if seconds < 0:
            raise ValueError(f"negative busy time: {seconds}")
        self._busy_seconds += seconds

    def reset(self) -> None:
        """Restart the measurement window at the current simulated time."""
        self._busy_seconds = 0.0
        self._started = self.sim.now

    def utilization(self) -> float:
        """Busy fraction of the available ``capacity * elapsed`` budget."""
        elapsed = self.sim.now - self._started
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_seconds / (self.capacity * elapsed))
