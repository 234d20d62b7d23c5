"""WLFC-style write-less caching: absorb re-writes before they hit flash.

WLFC's observation (PAPERS.md) is that a flash cache serving a
write-heavy tier wears itself out writing data that is overwritten or
evicted before it is ever read back — so keep a small RAM staging area
in front of the flash and *write less*: re-writes to a staged sector
update RAM in place, and only LRU-evicted (or explicitly flushed)
sectors reach the device, batched into write-unit-sized runs.

:class:`WriteLessCache` is a host on the OX-Block **synchronous** LBA
API — the same write/read/trim/flush surface, so any raw-block
workload (``workload.kind="raw_fill_read"``, the policy-ablation
bench) can run with or without the cache by flipping
``StackSpec.host`` between ``"none"`` and ``"wlfc"``.  Determinism:
the cache is plain dict bookkeeping above the sim boundary, so a run
with the cache is exactly as reproducible as one without.

The effect on write amplification is mechanical: the flash-level WAF
numerator (host sectors programmed + GC relocations) shrinks by every
absorbed re-write, which is why the ablation bench's ``wlfc`` rows
undercut the bare greedy collector on overwrite-heavy workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ReproError


@dataclass(frozen=True)
class WlfcConfig:
    """Tunables of the write-less cache host."""

    #: RAM staging capacity, in sectors (dirty sectors held back from
    #: flash).  Must cover at least one write unit so eviction can
    #: always form a batch.
    cache_sectors: int = 4096
    #: Evict down to this fraction of capacity once full, so eviction
    #: runs in batches instead of thrashing one sector per write.
    evict_to_fraction: float = 0.75

    def validate(self) -> None:
        if self.cache_sectors < 1:
            raise ReproError(
                f"wlfc: cache_sectors must be >= 1, "
                f"got {self.cache_sectors}")
        if not 0.0 <= self.evict_to_fraction < 1.0:
            raise ReproError(
                f"wlfc: evict_to_fraction must be in [0, 1), "
                f"got {self.evict_to_fraction}")


@dataclass
class WlfcStats:
    #: Sectors the host wrote into the cache (logical write traffic).
    host_sectors_written: int = 0
    #: Sectors actually written through to the FTL (flash traffic).
    flash_sectors_written: int = 0
    #: Re-writes absorbed in RAM (a staged dirty sector overwritten).
    absorbed_rewrites: int = 0
    #: Eviction rounds (capacity pressure, not flushes).
    evictions: int = 0
    #: Sector reads served from the staging area / from flash.
    read_hits: int = 0
    read_misses: int = 0
    flushes: int = 0

    @property
    def write_reduction(self) -> float:
        """Fraction of host write traffic that never reached flash."""
        if not self.host_sectors_written:
            return 0.0
        return 1.0 - (self.flash_sectors_written
                      / self.host_sectors_written)


class WriteLessCache:
    """A write-back RAM stage over an OX-Block-shaped FTL.

    *ftl* needs the synchronous block surface: ``write(lba, data)``,
    ``read(lba, sectors)``, ``trim(lba, sectors)``, ``flush()``, a
    ``geometry`` with ``sector_size``/``ws_min`` and the device's size,
    ``capacity_sectors`` — a range the FTL would reject is rejected here
    on entry, not when the staged sectors are evicted.
    """

    def __init__(self, ftl, config: WlfcConfig = WlfcConfig()):
        config.validate()
        self.ftl = ftl
        self.geometry = ftl.geometry
        self.config = config
        self.stats = WlfcStats()
        # lba -> sector payload, in LRU order (oldest first).  "Dirty"
        # is implicit: everything staged here is ahead of flash.
        self._dirty: "OrderedDict[int, bytes]" = OrderedDict()

    def _reject_range(self, op: str, lba: int, count: int) -> None:
        raise ReproError(
            f"wlfc: {op} of {count} sector(s) at lba {lba} is not a range "
            f"inside the device's {self.ftl.capacity_sectors} sectors")

    # -- the synchronous LBA API -------------------------------------------------

    def write(self, lba: int, data: bytes) -> None:
        sector_size = self.geometry.sector_size
        if not data or len(data) % sector_size:
            raise ReproError(
                f"wlfc: write of {len(data)} bytes is not a whole number "
                f"of {sector_size}-byte sectors")
        count = len(data) // sector_size
        if lba < 0 or lba + count > self.ftl.capacity_sectors:
            self._reject_range("write", lba, count)
        view = memoryview(data)
        dirty = self._dirty
        for index in range(count):
            cur = lba + index
            if cur in dirty:
                self.stats.absorbed_rewrites += 1
                dirty.move_to_end(cur)
            dirty[cur] = bytes(view[index * sector_size:
                                    (index + 1) * sector_size])
        self.stats.host_sectors_written += count
        if len(dirty) > self.config.cache_sectors:
            self._evict()

    def read(self, lba: int, sectors: int = 1) -> bytes:
        if sectors < 1 or lba < 0 \
                or lba + sectors > self.ftl.capacity_sectors:
            self._reject_range("read", lba, sectors)
        sector_size = self.geometry.sector_size
        dirty = self._dirty
        pieces: List[bytes] = []
        index = 0
        while index < sectors:
            cur = lba + index
            staged = dirty.get(cur)
            if staged is not None:
                self.stats.read_hits += 1
                pieces.append(staged)
                index += 1
                continue
            # Batch the run of consecutive misses into one FTL read.
            run = 1
            while (index + run < sectors
                   and (lba + index + run) not in dirty):
                run += 1
            self.stats.read_misses += run
            payload = self.ftl.read(cur, run)
            pieces.extend(payload[i * sector_size:(i + 1) * sector_size]
                          for i in range(run))
            index += run
        return b"".join(pieces)

    def trim(self, lba: int, sectors: int = 1) -> None:
        if sectors < 1 or lba < 0 \
                or lba + sectors > self.ftl.capacity_sectors:
            self._reject_range("trim", lba, sectors)
        for index in range(sectors):
            self._dirty.pop(lba + index, None)
        self.ftl.trim(lba, sectors)

    def flush(self) -> None:
        """Write every staged sector through and flush the FTL."""
        self.stats.flushes += 1
        self._write_through(list(self._dirty))
        self.ftl.flush()

    # -- eviction -----------------------------------------------------------------

    def _evict(self) -> None:
        target = int(self.config.cache_sectors
                     * self.config.evict_to_fraction)
        count = len(self._dirty) - target
        victims = []
        for cur in self._dirty:
            victims.append(cur)
            if len(victims) >= count:
                break
        self.stats.evictions += 1
        self._write_through(victims)

    def _write_through(self, lbas: List[int]) -> None:
        """Pop *lbas* from the stage and write them down, coalescing
        consecutive LBAs into single FTL transactions."""
        if not lbas:
            return
        staged: List[Tuple[int, bytes]] = [
            (cur, self._dirty.pop(cur)) for cur in lbas]
        staged.sort(key=lambda item: item[0])
        run_start = staged[0][0]
        run: List[bytes] = [staged[0][1]]
        for cur, payload in staged[1:]:
            if cur == run_start + len(run):
                run.append(payload)
                continue
            self._flush_run(run_start, run)
            run_start, run = cur, [payload]
        self._flush_run(run_start, run)

    def _flush_run(self, lba: int, payloads: List[bytes]) -> None:
        self.ftl.write(lba, b"".join(payloads))
        self.stats.flash_sectors_written += len(payloads)
