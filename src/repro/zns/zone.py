"""The ZNS zone state machine.

"ZNS exposes a disk as a collection of zones that must be written
sequentially and reset before rewriting" (§2.3).  The state machine
follows the NVMe ZNS TP shape, reduced to the states this FTL needs:
EMPTY -> OPEN (implicitly, by an append, or explicitly) -> FULL, and
back to EMPTY by a reset.  A zone is a logical region: it holds chunks
only while it is not EMPTY (see :class:`repro.zns.ftl.OXZns`), so a chunk
that dies leaves the zone usable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ZoneError

ChunkKey = Tuple[int, int, int]


class ZoneState(enum.Enum):
    EMPTY = "empty"
    OPEN = "open"
    FULL = "full"


@dataclass
class Zone:
    """One zone: a logical append region of one group (channel)."""

    zone_id: int
    capacity: int                 # writable sectors
    group: int = 0
    #: Whole chunks of ``group``, taken when the zone opens.
    chunks: List[ChunkKey] = field(default_factory=list)
    state: ZoneState = ZoneState.EMPTY
    write_pointer: int = 0

    @property
    def start_lba(self) -> int:
        """Zones are laid out back to back in the LBA space."""
        return self.zone_id * self.capacity

    @property
    def remaining(self) -> int:
        return self.capacity - self.write_pointer

    def check_append(self, sectors: int) -> None:
        if self.state is ZoneState.FULL:
            raise ZoneError(f"append to full zone {self.zone_id}")
        if sectors <= 0:
            raise ZoneError(f"append of {sectors} sectors")
        if sectors > self.remaining:
            raise ZoneError(
                f"append of {sectors} sectors exceeds the remaining "
                f"{self.remaining} of zone {self.zone_id}")

    def advance(self, sectors: int) -> None:
        self.write_pointer += sectors
        self.state = (ZoneState.FULL if self.write_pointer == self.capacity
                      else ZoneState.OPEN)

    def check_read(self, offset: int, sectors: int) -> None:
        if offset < 0 or sectors <= 0 \
                or offset + sectors > self.write_pointer:
            raise ZoneError(
                f"read [{offset}, {offset + sectors}) beyond zone "
                f"{self.zone_id} write pointer {self.write_pointer}")

    def reset(self) -> None:
        """EMPTY again, its chunks given back."""
        self.state = ZoneState.EMPTY
        self.write_pointer = 0
        self.chunks = []

    def finish(self) -> None:
        """Close the zone early (NVMe ZNS 'finish').  The write pointer
        stays at the end of the data: the unwritten tail is unusable until
        the next reset, and reads past the pointer keep failing instead of
        hitting never-programmed flash."""
        self.state = ZoneState.FULL
