"""The FTL write buffer.

"Data copies are necessary on the write path, as writes are buffered in
order to support write-back semantics and to deal with the constraints
imposed on flash (e.g., large unit of write)" (§4.3).  Sectors accumulate
here, pre-assigned to their final physical addresses, until a whole
``ws_min`` unit for some chunk is complete and can be submitted as one
vector write.  Reads consult the buffer first so buffered data is always
visible (read-your-writes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FTLError
from repro.ocssd.address import Ppa, PpaRun

ChunkKey = Tuple[int, int, int]

# OOB marker for padding sectors (no owning LBA).
PAD_LBA = 2**64 - 1


@dataclass
class PendingUnit:
    """One write unit being assembled for a chunk."""

    key: ChunkKey
    first_sector: int
    #: The staged runs' payloads, in order.  Padding stages none: it only
    #: ever completes a unit, so it is the short tail of :attr:`data`.
    pieces: List[memoryview] = field(default_factory=list)
    #: One entry per staged sector, pads included: its length is the
    #: unit's fill.
    lbas: List[int] = field(default_factory=list)
    #: The staging sequence number of each sector (see
    #: :meth:`WriteBuffer.mark_written`).
    sequences: List[int] = field(default_factory=list)
    #: Each sector's OOB entry (see :meth:`WriteBuffer.stage_run`).
    oob: List[object] = field(default_factory=list)

    def uncommit(self) -> None:
        """Zero the count of every stamp: the unit commits nothing."""
        self.oob = [(lba, txn, 0) for lba, txn, __ in self.oob]

    @property
    def ppas(self) -> PpaRun:
        """Where the staged sectors go: one run from *first_sector*."""
        return PpaRun(self.key, self.first_sector, len(self.lbas))

    @property
    def data(self):
        """The unit's payload as the one buffer the device takes: a unit
        staged in one piece is that piece, not a copy."""
        pieces = self.pieces
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)


class WriteBuffer:
    """Staging area between the FTL write path and the device."""

    def __init__(self, ws_min: int, sector_size: int):
        self.ws_min = ws_min
        self.sector_size = sector_size
        self._units: Dict[Tuple[ChunkKey, int], PendingUnit] = {}
        # lba -> (sequence, payload); kept until the covering unit's device
        # write completes, so concurrent reads never miss buffered data.
        self._readable: Dict[int, Tuple[int, bytes]] = {}
        self._sequence = 0

    def __len__(self) -> int:
        return sum(len(unit.lbas) for unit in self._units.values())

    # -- staging --------------------------------------------------------------

    def stage_run(self, lba0: int, key: ChunkKey, first_sector: int,
                  count: int, view: Optional[memoryview] = None,
                  stamp: Optional[Tuple[int, int]] = None
                  ) -> Optional[PendingUnit]:
        """Stage *count* consecutive sectors of chunk *key* starting at
        *first_sector*; returns the write unit this completed, if any.

        A run lies within one ``ws_min`` unit and continues exactly where
        that unit's staged sectors end (the provisioner hands out runs
        with both properties).  Sector ``i`` backs LBA ``lba0 + i`` with
        the ``i``-th ``sector_size`` slice of *view* — slices, not
        copies: the chunk store decides whether the unit needs one when
        it reaches the device.  ``lba0 == PAD_LBA`` stages padding
        instead: no payload, no owning LBA, nothing readable — and only
        up to the end of the unit, so a unit's padding is always its tail.
        A sector's OOB entry is ``(lba, *stamp)``, or its lba if *stamp* is
        None: ``(txn, count)``, a txn committing in its stamps if *count*.
        """
        ws_min = self.ws_min
        unit_start = first_sector - first_sector % ws_min
        if count < 1 or first_sector + count > unit_start + ws_min:
            raise FTLError(
                f"staged run of {count} sectors at {first_sector} does "
                f"not fit one {ws_min}-sector write unit")
        slot = (key, unit_start)
        unit = self._units.get(slot)
        expected = unit_start if unit is None \
            else unit_start + len(unit.lbas)
        if first_sector != expected:
            raise FTLError(
                f"staged sector {first_sector} out of order in unit "
                f"{slot} (expected {expected})")
        sector_size = self.sector_size
        sequences = list(range(self._sequence + 1,
                               self._sequence + count + 1))
        if lba0 == PAD_LBA:
            if first_sector + count != unit_start + ws_min:
                raise FTLError(
                    f"padding of {count} sectors at {first_sector} does "
                    f"not complete its {ws_min}-sector write unit")
            lbas = [PAD_LBA] * count
            oob = lbas[:]
            pieces = []
        else:
            if len(view) != count * sector_size:
                raise FTLError(
                    f"payload of {len(view)} bytes for a run of {count} "
                    f"{sector_size}-byte sectors")
            lbas = list(range(lba0, lba0 + count))
            oob = [(lba, *stamp) for lba in lbas] if stamp else lbas[:]
            pieces = [view]
            readable = self._readable
            offset = 0
            for lba, sequence in zip(lbas, sequences):
                readable[lba] = (sequence, view[offset:offset + sector_size])
                offset += sector_size
        self._sequence += count
        if unit is None:
            unit = PendingUnit(key, unit_start, pieces, lbas, sequences, oob)
            if count == ws_min:
                return unit     # never passes through the partial table
            self._units[slot] = unit
            return None
        unit.pieces += pieces
        unit.lbas += lbas
        unit.sequences += sequences
        unit.oob += oob
        if len(unit.lbas) == ws_min:
            del self._units[slot]
            return unit
        return None

    def partial_units(self) -> List[PendingUnit]:
        """The units still being assembled (for forced flush padding)."""
        return list(self._units.values())

    def take_partial_units(self) -> List[PendingUnit]:
        units = list(self._units.values())
        self._units.clear()
        return units

    # -- read-your-writes -------------------------------------------------------

    def lookup(self, lba: int) -> Optional[bytes]:
        entry = self._readable.get(lba)
        return entry[1] if entry else None

    def mark_written(self, unit: PendingUnit) -> None:
        """Called when the unit's device write completed (or never will:
        :meth:`drop_chunk`): drop the read-shadow entries this unit was
        the latest writer of — those still carrying the sequence number
        the unit staged the sector under."""
        readable = self._readable
        for lba, sequence in zip(unit.lbas, unit.sequences):
            entry = readable.get(lba)
            if entry is not None and entry[0] == sequence:
                del readable[lba]

    def discard(self, lba: int) -> None:
        """Stop exposing *lba* from the buffer (trim): the staged sector
        still reaches media as part of its unit, but as dead data."""
        self._readable.pop(lba, None)

    def restore_readable(self, lba: int, ppa: Ppa) -> bool:
        """Re-expose *lba* from the staged sector at *ppa*, if that sector
        is still in a pending unit.

        An aborted transaction rolls its lbas back to their previous
        mappings; when a previous copy was itself acked out of the buffer
        and is not yet programmed, dropping the newer shadow entry alone
        would leave reads with no copy at all (the media rejects reads
        above the write pointer).  Returns True when a staged copy was
        found and restored.
        """
        sector = ppa[3]
        unit = self._units.get((ppa[:3], sector - sector % self.ws_min))
        if unit is None:
            return False
        index = sector - unit.first_sector
        if not 0 <= index < len(unit.lbas) or unit.lbas[index] != lba:
            return False
        # Under the sector's own sequence number, so the unit's
        # mark_written still retires the entry.
        offset = index * self.sector_size
        self._readable[lba] = (
            unit.sequences[index],
            memoryview(unit.data)[offset:offset + self.sector_size])
        return True

    def drop_chunk(self, key: ChunkKey) -> List[PendingUnit]:
        """Forget the partial units headed for *key*: its chunk was
        retired, so their sectors can never be programmed.  Returns the
        dropped units so the caller can account the lost LBAs."""
        slots = [slot for slot in self._units if slot[0] == key]
        dropped = [self._units.pop(slot) for slot in slots]
        for unit in dropped:
            self.mark_written(unit)
        return dropped

    def drop_all(self) -> None:
        """Crash: all buffered state is gone."""
        self._units.clear()
        self._readable.clear()
