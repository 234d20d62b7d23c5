"""Provisioning: metadata layout and physical space allocation.

Two concerns live here:

* :class:`MetadataLayout` carves the physical space into the WAL region,
  the two checkpoint slots, and the data region (recovery log and
  "mapping and block metadata" persistence need a home the FTL can find
  again after a crash — they get fixed chunks in group 0).
* :class:`Provisioner` hands out write space in the data region, from
  the free chunks of a :class:`~repro.ox.media.ChunkPool`.  Space is
  allocated in ``ws_min`` *units*, round-robin across parallel units so
  large writes stripe across chips, with independent *streams* (user I/O
  vs. garbage collection) so GC relocation does not interleave into user
  chunks — the separation pblk calls user/GC lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FTLError, OutOfSpaceError
from repro.ocssd.geometry import DeviceGeometry
from repro.ox.ftl.metadata import ChunkTable, FtlChunkState
from repro.ox.media import ChunkKey, ChunkPool, MediaManager, PuKey


@dataclass(frozen=True)
class MetadataLayout:
    """Where the FTL keeps its own durable state.

    Checkpoint slots and WAL chunks are taken from the lowest chunk
    indexes of group 0, striped over that group's PUs; everything else is
    the data region.
    """

    geometry: DeviceGeometry
    wal_chunks: Tuple[ChunkKey, ...]
    ckpt_slots: Tuple[Tuple[ChunkKey, ...], Tuple[ChunkKey, ...]]

    @classmethod
    def build(cls, geometry: DeviceGeometry, wal_chunk_count: int = 4,
              ckpt_chunks_per_slot: int = 1) -> "MetadataLayout":
        needed = wal_chunk_count + 2 * ckpt_chunks_per_slot
        pool: List[ChunkKey] = []
        for chunk in range(geometry.chunks_per_pu):
            for pu in range(geometry.pus_per_group):
                pool.append((0, pu, chunk))
                if len(pool) == needed:
                    break
            if len(pool) == needed:
                break
        if len(pool) < needed:
            raise FTLError(
                f"group 0 has {geometry.pus_per_group * geometry.chunks_per_pu}"
                f" chunks; metadata layout needs {needed}")
        slot_a = tuple(pool[:ckpt_chunks_per_slot])
        slot_b = tuple(pool[ckpt_chunks_per_slot:2 * ckpt_chunks_per_slot])
        wal = tuple(pool[2 * ckpt_chunks_per_slot:needed])
        return cls(geometry=geometry, wal_chunks=wal,
                   ckpt_slots=(slot_a, slot_b))

    def metadata_chunk_keys(self) -> set[ChunkKey]:
        keys = set(self.wal_chunks)
        keys.update(self.ckpt_slots[0])
        keys.update(self.ckpt_slots[1])
        return keys

    def data_chunk_keys(self) -> List[ChunkKey]:
        reserved = self.metadata_chunk_keys()
        keys = []
        for group in range(self.geometry.num_groups):
            for pu in range(self.geometry.pus_per_group):
                for chunk in range(self.geometry.chunks_per_pu):
                    key = (group, pu, chunk)
                    if key not in reserved:
                        keys.append(key)
        return keys


@dataclass
class _StreamState:
    """The stream's round-robin cursor, open chunks and filling unit."""

    open_chunks: Dict[PuKey, ChunkKey] = field(default_factory=dict)
    pu_index: int = 0
    # Run-granular allocation: the unit currently being filled.
    fill_key: Optional[ChunkKey] = None
    fill_next: int = 0
    fill_end: int = 0


class Provisioner:
    """Allocates data-region space in write units, per stream."""

    def __init__(self, media: MediaManager, table: ChunkTable):
        self.geometry = geometry = media.geometry
        self.table = table
        # Free chunks per group that only the "gc" stream may open (the
        # FTL sets it): GC runs *because* space is low, so without a
        # reservation the collector can find victims but no destination
        # to move their live data into (the rationale Lomet & Luo give
        # for reserving reclamation space in log-structured stores).
        self.gc_headroom = 0
        self._all_pus: List[PuKey] = list(geometry.iter_pus())
        keys = sorted(key for key, __ in table.items())
        self.pool = ChunkPool(media, keys, [
            key for key in keys
            if table.get(key).state is FtlChunkState.FREE], name="oxblock")
        self._streams: Dict[str, _StreamState] = {}

    # -- stream helpers ---------------------------------------------------------

    def _stream(self, name: str) -> _StreamState:
        if name not in self._streams:
            self._streams[name] = _StreamState()
        return self._streams[name]

    def _pu_cycle(self, state: _StreamState,
                  group: Optional[int]) -> List[PuKey]:
        """Every PU (or the hinted group's), rotated one step further
        per allocation: the first with space wins, so writes stripe."""
        pus = (self._all_pus if group is None
               else [pu for pu in self._all_pus if pu[0] == group])
        start = state.pu_index % len(pus)
        state.pu_index += 1
        return pus[start:] + pus[:start]

    # -- allocation ---------------------------------------------------------------

    def allocate_unit(self, stream: str = "user",
                      group: Optional[int] = None) -> Tuple[ChunkKey, int]:
        """Reserve one ``ws_min`` unit; returns ``(chunk_key, first_sector)``.

        Successive calls rotate across parallel units (striping).  With
        *group* set, allocation is confined to that group (GC locality).
        """
        state = self._stream(stream)
        ws_min = self.geometry.ws_min
        reserved = self._reserved(stream)
        pool = self.pool
        for pu in self._pu_cycle(state, group):
            key = state.open_chunks.get(pu)
            if key is None:
                if not pool.free.get(pu):
                    continue
                if pool.group_free(pu[0]) <= reserved[pu[0]]:
                    continue      # reserved for GC relocation
                key = pool.take(pu)
                info = self.table.get(key)
                info.state = FtlChunkState.OPEN
                info.write_next = 0
                state.open_chunks[pu] = key
            info = self.table.get(key)
            first = info.write_next
            info.write_next += ws_min
            if info.write_next >= self.geometry.sectors_per_chunk:
                info.state = FtlChunkState.FULL
                del state.open_chunks[pu]
            return key, first
        raise OutOfSpaceError(
            f"no free chunks available for stream {stream!r}"
            + (f" in group {group}" if group is not None else ""))

    def allocate_run(self, stream: str = "user",
                     want: int = 1) -> Tuple[ChunkKey, int, int]:
        """Reserve up to *want* consecutive sectors for foreground I/O;
        returns ``(chunk_key, first_sector, count)``.

        The run is the rest of the stream's filling unit, or the head of
        a fresh one when that is exhausted — never more than one unit,
        so the caller loops until its transaction is placed and every
        run it gets stages into exactly one write unit.
        """
        state = self._stream(stream)
        if state.fill_key is None or state.fill_next >= state.fill_end:
            key, first = self.allocate_unit(stream)
            state.fill_key = key
            state.fill_next = first
            state.fill_end = first + self.geometry.ws_min
        first = state.fill_next
        count = min(want, state.fill_end - first)
        state.fill_next = first + count
        return state.fill_key, first, count

    def current_unit_remaining(self, stream: str = "user") -> int:
        """Sectors left in the stream's currently-filling unit (0 if none).
        The write buffer uses this to decide how much padding a forced
        flush needs."""
        state = self._stream(stream)
        if state.fill_key is None:
            return 0
        return state.fill_end - state.fill_next

    # -- reclamation -----------------------------------------------------------------

    def release_chunk(self, key: ChunkKey) -> None:
        """Mark a recycled chunk free: the pool erased and queued it."""
        info = self.table.get(key)
        if info.valid_count:
            raise FTLError(
                f"releasing chunk {key} with {info.valid_count} valid sectors")
        info.state = FtlChunkState.FREE
        info.write_next = 0

    def retire_chunk(self, key: ChunkKey) -> None:
        """Drop a chunk that went offline (grown bad block)."""
        info = self.table.get(key)
        info.state = FtlChunkState.BAD
        for stream in self._streams.values():
            for pu, open_key in list(stream.open_chunks.items()):
                if open_key == key:
                    del stream.open_chunks[pu]
            if stream.fill_key == key:
                stream.fill_key = None

    # -- occupancy --------------------------------------------------------------------

    def free_chunks(self) -> int:
        return self.pool.free_count()

    def census(self) -> Dict[str, List[ChunkKey]]:
        """The data chunks by state (:meth:`ChunkPool.census`): in use is
        every chunk-table row that is not free."""
        return self.pool.census(key for key, info in self.table.items()
                                if info.state is not FtlChunkState.FREE)

    def units_available(self, stream: str = "user",
                        group: Optional[int] = None) -> int:
        """Write units *stream* could still allocate, without allocating.

        Counts the remaining units of the stream's open chunks plus whole
        free chunks.  GC uses this to check that a victim's live data fits
        in its group *before* starting a relocation it could not finish.
        """
        state = self._stream(stream)
        ws_min = self.geometry.ws_min
        sectors = self.geometry.sectors_per_chunk
        per_chunk = sectors // ws_min
        units = per_chunk * (self.pool.free_count() if group is None
                             else self.pool.group_free(group))
        for pu, key in state.open_chunks.items():
            if group is None or pu[0] == group:
                units += (sectors - self.table.get(key).write_next) // ws_min
        return units

    def sectors_available(self, stream: str = "user") -> int:
        """Sectors *stream* could still allocate without reclaiming space.

        Counts the currently-filling unit, the unreserved units of the
        stream's open chunks, and the free chunks the stream may open
        (minus the GC headroom reservation for non-GC streams).  The
        write path checks this *before* staging a transaction, so space
        reclamation never has to run in the middle of one.
        """
        state = self._stream(stream)
        sectors = self.geometry.sectors_per_chunk
        reserved = self._reserved(stream)
        total = self.current_unit_remaining(stream)
        for key in state.open_chunks.values():
            total += sectors - self.table.get(key).write_next
        for group in range(self.geometry.num_groups):
            usable = self.pool.group_free(group) - reserved[group]
            if usable > 0:
                total += usable * sectors
        return total

    def _reserved(self, stream: str) -> List[int]:
        """Free chunks per group *stream* may not open: the GC headroom,
        less whole chunks of room left in the group's open gc chunks."""
        sectors = self.geometry.sectors_per_chunk
        room = [0] * self.geometry.num_groups
        for pu, key in self._stream("gc").open_chunks.items():
            room[pu[0]] += sectors - self.table.get(key).write_next
        headroom = self.gc_headroom if stream != "gc" else 0
        return [max(0, headroom - left // sectors) for left in room]

    def adopt_open_chunk(self, key: ChunkKey, write_next: int,
                         stream: str = "user") -> bool:
        """Recovery helper: resume writing a partially-written chunk.

        Only one open chunk per PU per stream is kept; returns False if the
        slot is taken (the caller then closes the chunk early instead).
        """
        state = self._stream(stream)
        pu = (key[0], key[1])
        if pu in state.open_chunks:
            return False
        info = self.table.get(key)
        info.state = FtlChunkState.OPEN
        info.write_next = write_next
        state.open_chunks[pu] = key
        return True
