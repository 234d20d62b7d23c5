"""The LSM background throttle: a token-bucket rate limiter.

``repro.lsm.db`` bounds flush and compaction writes to a byte rate with
it — RocksDB calls the same device a ``RateLimiter``.

Implementation: virtual-time reservations.  Each acquisition books
``bytes / rate`` seconds on a shared virtual clock; a caller waits until
its reservation's end.  Idle periods accumulate at most ``burst`` bytes
of credit.  Reservations serialize correctly under concurrent acquirers
(unlike a naive check-then-subtract token count).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.core import Simulator


class TokenBucket:
    """Token bucket over simulated time.

    ``rate_bytes_per_sec = None`` disables limiting (acquire returns
    immediately), mirroring RocksDB's default.
    """

    def __init__(self, sim: Simulator,
                 rate_bytes_per_sec: Optional[float] = None,
                 burst_bytes: Optional[float] = None):
        if rate_bytes_per_sec is not None and rate_bytes_per_sec <= 0:
            raise ValueError(
                f"rate must be positive or None, got {rate_bytes_per_sec}")
        self.sim = sim
        self.rate = rate_bytes_per_sec
        self.burst = float(burst_bytes if burst_bytes is not None
                           else (rate_bytes_per_sec or 0))
        # Virtual time up to which granted bytes have been "produced";
        # starting one burst in the past grants the initial burst credit.
        self._reserved_until = sim.now
        if self.rate is not None:
            self._reserved_until -= self.burst / self.rate
        self.total_acquired = 0
        self.total_wait = 0.0

    def acquire_proc(self, num_bytes: int):
        """Process generator: block until *num_bytes* tokens are granted."""
        if num_bytes < 0:
            raise ValueError(f"negative acquire: {num_bytes}")
        self.total_acquired += num_bytes
        if self.rate is None:
            return
        now = self.sim.now
        credit_horizon = now - self.burst / self.rate
        self._reserved_until = max(self._reserved_until, credit_horizon)
        self._reserved_until += num_bytes / self.rate
        wait = self._reserved_until - now
        if wait > 0:
            self.total_wait += wait
            yield self.sim.timeout(wait)
