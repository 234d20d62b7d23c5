"""FTL-side chunk bookkeeping: states, valid-sector counts, write cursors.

The device knows chunk write pointers and media states; the FTL
additionally needs *validity* (how many sectors in a chunk still back live
LBAs) to drive garbage collection, and its own free/open/full/bad view of
the data region.  This is the "block metadata" that checkpoints persist
(Figure 2: "mapping and block metadata may be persisted during checkpoint
process").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import FTLError
from repro.ocssd.geometry import DeviceGeometry

ChunkKey = Tuple[int, int, int]


class FtlChunkState(enum.Enum):
    FREE = 0
    OPEN = 1
    FULL = 2
    BAD = 3


@dataclass
class FtlChunkInfo:
    """The FTL's view of one data-region chunk."""

    key: ChunkKey
    state: FtlChunkState = FtlChunkState.FREE
    valid_count: int = 0
    write_next: int = 0   # next sector the FTL will write in this chunk
    linear: int = 0       # linearized chunk index, fixed at registration


class ChunkTable:
    """All data-region chunks, indexed by chunk key."""

    def __init__(self, geometry: DeviceGeometry,
                 data_chunks: Iterator[ChunkKey]):
        self.geometry = geometry
        self._capacity = geometry.sectors_per_chunk
        pus = geometry.pus_per_group
        per_pu = geometry.chunks_per_pu
        self._chunks: Dict[ChunkKey, FtlChunkInfo] = {
            key: FtlChunkInfo(key=key,
                              linear=(key[0] * pus + key[1]) * per_pu + key[2])
            for key in data_chunks}
        # The same rows by linear chunk index (``linear_sector //
        # sectors_per_chunk``): the write path invalidates what the map
        # returned without rebuilding a chunk key per sector.
        self._by_linear: Dict[int, FtlChunkInfo] = {
            info.linear: info for info in self._chunks.values()}
        # And by group, in table order: GC scans one group's rows.
        self._by_group: Dict[int, List[FtlChunkInfo]] = {}
        for key, info in self._chunks.items():
            self._by_group.setdefault(key[0], []).append(info)

    def __len__(self) -> int:
        return len(self._chunks)

    def __contains__(self, key: ChunkKey) -> bool:
        return key in self._chunks

    @property
    def total_sectors(self) -> int:
        """Sectors of the data region: the block device's LBA space."""
        return len(self._chunks) * self._capacity

    def get(self, key: ChunkKey) -> FtlChunkInfo:
        try:
            return self._chunks[key]
        except KeyError:
            raise FTLError(f"chunk {key} is not in the data region") from None

    def items(self) -> Iterator[Tuple[ChunkKey, FtlChunkInfo]]:
        return iter(self._chunks.items())

    def values(self) -> Iterator[FtlChunkInfo]:
        return iter(self._chunks.values())

    # -- validity accounting ------------------------------------------------------

    def add_valid(self, key: ChunkKey, count: int = 1) -> None:
        info = self.get(key)
        info.valid_count += count
        capacity = self._capacity
        if info.valid_count > capacity:
            raise FTLError(
                f"chunk {key} valid count {info.valid_count} exceeds "
                f"capacity {capacity}")

    def invalidate(self, key: ChunkKey, count: int = 1) -> None:
        info = self.get(key)
        info.valid_count -= count
        if info.valid_count < 0:
            raise FTLError(f"chunk {key} valid count went negative")

    def invalidate_linear(self, chunk_linear: int) -> None:
        """:meth:`invalidate` one sector of the chunk with linear index
        *chunk_linear* (a linear sector address ``// capacity``)."""
        info = self._by_linear.get(chunk_linear)
        if info is None:
            raise FTLError(
                f"linear chunk {chunk_linear} is not in the data region")
        info.valid_count -= 1
        if info.valid_count < 0:
            raise FTLError(f"chunk {info.key} valid count went negative")

    # -- GC support -------------------------------------------------------------------

    def gc_candidates(self, group: int) -> List[FtlChunkInfo]:
        """FULL chunks of *group* with at least one invalid sector, in
        table (linear) order — the raw pool the collector orders."""
        capacity = self._capacity
        return [info for info in self._by_group.get(group, ())
                if info.state is FtlChunkState.FULL
                and info.valid_count < capacity]

    # -- checkpoint support -------------------------------------------------------------

    def snapshot(self) -> List[Tuple[int, int, int]]:
        """``(chunk_linear, state, valid_count)`` rows for checkpointing."""
        # `.value` is a descriptor lookup; `_value_` is the plain
        # attribute underneath it, and thousands of rows go through here
        # per checkpoint.
        rows = [(info.linear, info.state._value_, info.valid_count)
                for info in self._chunks.values()]
        rows.sort()
        return rows

    def load_row(self, chunk_linear: int, state: int, valid: int) -> None:
        per_pu = self.geometry.chunks_per_pu
        pu_linear, chunk = divmod(chunk_linear, per_pu)
        group, pu = divmod(pu_linear, self.geometry.pus_per_group)
        key = (group, pu, chunk)
        if key not in self._chunks:
            # Layout changed between format and recovery; refuse silently
            # rebuilding the wrong world.
            raise FTLError(f"checkpoint row for unknown chunk {key}")
        info = self._chunks[key]
        info.state = FtlChunkState(state)
        info.valid_count = valid
