"""The page-granularity logical-to-physical mapping table.

OX-Block "maintains a 4KB-granularity page-level mapping table" (§4.2).
The table maps LBAs to linearized PPAs (see
:meth:`repro.ocssd.DeviceGeometry.linearize`) over the device's LBA space
``[0, capacity)``: the sector count of the data region, fixed at format.

Storage layout: one ``array('q')`` of *capacity* slots indexed by LBA with
``-1`` marking unmapped slots — eight bytes per slot instead of a dict
entry's boxed key/value pair, and naturally ordered so checkpoint
snapshots need no sort.

Beside it sits the *reverse map*, one ``array('q')`` slot per device
sector indexed by linear PPA: the lba that sector's OOB names, ``-1`` for
pads and unwritten sectors.  The FTL fills it where it builds an OOB (its
own writes and GC copies), clears a chunk's slots at its reset and, after
recovery, rebuilds it from the map (:meth:`PageMap.own_mapped`), so GC
learns a victim's owners without reading the chunk back.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress
from typing import Iterable, Iterator, Optional, Tuple

from repro.errors import FTLError

_UNMAPPED = -1
# Where a slot's most significant byte sits, and the translation that
# turns it into a "mapped" flag (see PageMap.snapshot_packed).
_MSB = 7 if sys.byteorder == "little" else 0
_NOT_FF = bytes(byte != 0xFF for byte in range(256))

# Shared 0..n-1 ramp for snapshot interleaving: slicing a cached array
# is a memcpy, versus boxing every index when building from range().
_IOTA_CACHE = array("q")


def _iota(count: int) -> array:
    if len(_IOTA_CACHE) < count:
        _IOTA_CACHE.extend(range(len(_IOTA_CACHE), count))
    return _IOTA_CACHE[:count]


class PageMap:
    """LBA -> linear PPA map over ``[0, capacity)``, and the reverse map
    over the *sectors* linear PPAs of the device."""

    def __init__(self, capacity: int, sectors: int = 0):
        if capacity < 1:
            raise FTLError(f"page map capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._owners = array("q", [_UNMAPPED]) * sectors
        self.load(())

    def __len__(self) -> int:
        return self._count

    def _reject(self, lba: int, count: int = 1) -> None:
        raise FTLError(
            f"{count} sector(s) at lba {lba} are outside the map's "
            f"{self.capacity}-sector LBA space")

    def lookup(self, lba: int) -> Optional[int]:
        """The current physical location of *lba*, or None if unmapped.

        Total: GC probes it with whatever integers it finds in chunk OOB
        areas, and nothing outside ``[0, capacity)`` is ever mapped.
        """
        if 0 <= lba < self.capacity:
            ppa = self._table[lba]
            return None if ppa == _UNMAPPED else ppa
        return None

    def update(self, lba: int, ppa: int) -> Optional[int]:
        """Point *lba* at *ppa*; returns the previous PPA (None if new)."""
        if not 0 <= lba < self.capacity:
            self._reject(lba)
        table = self._table
        previous = table[lba]
        table[lba] = ppa
        if lba >= self._end:
            self._end = lba + 1
        if previous == _UNMAPPED:
            self._count += 1
            return None
        return previous

    def update_run(self, lba: int, ppa0: int, count: int) -> array:
        """Bulk :meth:`update` of *count* LBAs mapped to the contiguous
        linear run starting at *ppa0* (one staged run of the write path).

        Returns the previous linear PPAs as an ``array('q')`` with
        :data:`_UNMAPPED` (-1) for previously-unmapped slots — callers
        use it to invalidate overwritten chunks and to build WAL
        entries, exactly as they would the scalar return values.
        """
        end = lba + count
        if lba < 0 or end > self.capacity:
            self._reject(lba, count)
        table = self._table
        previous = table[lba:end]
        table[lba:end] = array("q", range(ppa0, ppa0 + count))
        if end > self._end:
            self._end = end
        self._count += previous.count(_UNMAPPED)
        return previous

    def remove(self, lba: int) -> Optional[int]:
        """Unmap *lba* (trim); returns the previous PPA (None if unmapped)."""
        if 0 <= lba < self.capacity:
            previous = self._table[lba]
            if previous != _UNMAPPED:
                self._table[lba] = _UNMAPPED
                self._count -= 1
                return previous
        return None

    def own(self, linear: int, lbas: Iterable[int]) -> None:
        """Record *lbas* as the owners of the sectors from *linear* on."""
        lbas = array("q", lbas)
        self._owners[linear:linear + len(lbas)] = lbas

    def disown(self, linear: int, count: int) -> None:
        """Forget the owners of *count* sectors from *linear* (a reset)."""
        self._owners[linear:linear + count] = array("q", [_UNMAPPED]) * count

    def owners(self, linear: int, count: int) -> array:
        """The owning lba of each of *count* sectors from *linear*, -1 for
        a pad or an unwritten sector."""
        return self._owners[linear:linear + count]

    def own_mapped(self) -> None:
        """Rebuild the reverse map from the map: each mapped sector is
        owned by its lba, no other sector by anyone."""
        owners = self._owners = array("q", [_UNMAPPED]) * len(self._owners)
        for lba, ppa in self.items():
            owners[ppa] = lba

    def items(self) -> Iterator[Tuple[int, int]]:
        for lba, ppa in enumerate(self._table[:self._end]):
            if ppa != _UNMAPPED:
                yield lba, ppa

    def load(self, entries: Iterable[Tuple[int, int]]) -> None:
        """Bulk-load from a checkpoint (replaces current content)."""
        self._table = array("q", [_UNMAPPED]) * self.capacity
        self._count = 0       # mapped entries
        self._end = 0         # every mapped LBA is below this
        for lba, ppa in entries:
            self.update(lba, ppa)

    def snapshot_packed(self) -> bytes:
        """Every entry, ascending by LBA, as little-endian ``<QQ`` (lba,
        ppa) bytes — what the checkpoint slices its map records from,
        without ever touching per-entry ints.

        LBAs and PPAs are non-negative and below 2**63, so the signed
        ``array('q')`` buffer reads back the same bytes as unsigned ``Q``
        — and the most significant byte of a slot is 0xFF only when the
        slot holds -1, which is how the unmapped slots below the highest
        mapped one (none in the sequential-fill steady state) are dropped
        at C speed: one flag byte per slot, then ``compress``.
        """
        lbas, ppas = _iota(self._end), self._table[:self._end]
        if self._count < self._end:
            mapped = ppas.tobytes()[_MSB::8].translate(_NOT_FF)
            lbas = array("q", compress(lbas, mapped))
            ppas = array("q", compress(ppas, mapped))
        packed = array("q", bytes(16 * self._count))
        packed[0::2] = lbas
        packed[1::2] = ppas
        if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
            packed.byteswap()
        return packed.tobytes()

    def memory_bytes(self) -> int:
        """Resident size of the map and the reverse map (perf harness
        metric); ``getsizeof`` counts each array's backing buffer."""
        return sys.getsizeof(self._table) + sys.getsizeof(self._owners)
