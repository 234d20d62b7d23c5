"""Deterministic workload generators.

* :class:`RandomWriteWorkload` — the Figure 3 driver: "random writes of up
  to 1 MB in size; each of these writes is a transaction" (also the
  ablations' and the crash-recovery example's op stream).
* :class:`ZipfianKeyChooser` — skewed key popularity for ablations.

db_bench keys and values are :class:`repro.lsm.DbBench`'s own.

Multi-tenant determinism: every generator takes a ``stream`` label in
addition to its ``seed``.  :func:`derive_stream_seed` mixes the two
through BLAKE2s, so each tenant's op sequence (a) is independent of every
other tenant's — tenants sharing a base seed do not mirror each other's
accesses — and (b) is independently reseedable: re-running one tenant's
stream alone reproduces exactly the ops it issued in the full run.
Deriving with ``stream=""`` returns the base seed unchanged, so
single-stream workloads built before this existed replay byte-identically.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.errors import ReproError
from repro.units import KIB, MIB


def derive_stream_seed(base_seed: int, stream: str) -> int:
    """A stable, collision-resistant per-stream seed.

    ``stream`` is typically a tenant name.  The empty stream maps to the
    base seed itself (backwards compatibility); distinct streams map to
    seeds that are independent for practical purposes even when base
    seeds are small consecutive integers.
    """
    if not stream:
        return base_seed
    digest = hashlib.blake2s(
        f"{base_seed}:{stream}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class WriteOp:
    """One transactional random write."""

    lba: int
    num_sectors: int
    fill: int

    def payload(self, sector_size: int) -> bytes:
        return bytes([self.fill]) * (self.num_sectors * sector_size)


class RandomWriteWorkload:
    """Random writes up to ``max_bytes`` over an LBA space (Figure 3).

    *stream* names this workload's independent random stream (e.g. the
    tenant issuing it); see :func:`derive_stream_seed`.
    """

    def __init__(self, lba_space: int, sector_size: int = 4096,
                 min_bytes: int = 4 * KIB, max_bytes: int = 1 * MIB,
                 seed: int = 0, stream: str = ""):
        if lba_space < max_bytes // sector_size:
            raise ReproError(
                f"RandomWriteWorkload: lba_space ({lba_space} sectors) is "
                f"smaller than the largest write "
                f"({max_bytes // sector_size} sectors)")
        self.lba_space = lba_space
        self.sector_size = sector_size
        self.min_sectors = max(1, min_bytes // sector_size)
        self.max_sectors = max(self.min_sectors, max_bytes // sector_size)
        self.stream = stream
        self.seed = derive_stream_seed(seed, stream)

    def operations(self, count: int = 0) -> Iterator[WriteOp]:
        """Yield *count* operations (infinite when count == 0)."""
        rng = random.Random(self.seed)
        produced = 0
        while not count or produced < count:
            num_sectors = rng.randint(self.min_sectors, self.max_sectors)
            lba = rng.randrange(0, self.lba_space - num_sectors + 1)
            yield WriteOp(lba=lba, num_sectors=num_sectors,
                          fill=rng.randrange(1, 251))
            produced += 1


class ZipfianKeyChooser:
    """Zipf-distributed key indexes (precomputed CDF, deterministic)."""

    def __init__(self, key_space: int, theta: float = 0.99, seed: int = 0,
                 stream: str = ""):
        if key_space < 1:
            raise ReproError(
                f"ZipfianKeyChooser: key_space must be >= 1, "
                f"got {key_space}")
        if not 0 < theta < 2:
            raise ReproError(
                f"ZipfianKeyChooser: theta must be in (0, 2), got {theta}")
        self.key_space = key_space
        self._rng = random.Random(derive_stream_seed(seed, stream))
        weights = [1.0 / (rank ** theta)
                   for rank in range(1, key_space + 1)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: List[float] = []
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)

    def next(self) -> int:
        import bisect
        point = self._rng.random()
        return bisect.bisect_left(self._cdf, point)

    def sample(self, count: int) -> List[int]:
        return [self.next() for __ in range(count)]
