"""LightLSM: the application-specific FTL backing RocksDB-lite.

"LightLSM exposes Open-Channel SSDs as a RocksDB environment supporting
SSTable flush and block reads" (§4.2).  The design decisions all come
straight from the paper:

* **One SSTable = a fixed set of whole chunks** — "the rationale for this
  data placement position is that we do not want to consider several
  SSTables per chunk.  As SSTables are the unit of space reclamation in
  RocksDB, our mapping guarantees that garbage collection does not result
  in read and write operations of invalid pages within chunks.  Each
  SSTable deletion only causes chunk erases."
* **Horizontal placement** stripes the SSTable across every PU of the
  device; **vertical placement** confines it to a single group
  (Figure 4).  Placement is the independent variable of Figures 5 and 6.
* **Blocks are the unit of read and write**: ``block_size`` must be a
  multiple of the device write unit (96 KB on the dual-plane TLC drive).
* **A single dispatch thread** submits all writes "so that there are no
  concurrent accesses to the write pointers".
* **Atomic SSTable flush, no MANIFEST**: a table is committed by its
  meta's last write unit, written FUA as the *commit unit* once its data
  and the rest of its meta are durable; recovery lists tables by scanning
  chunk OOB and ignores (and reclaims) anything without a commit unit.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import OutOfSpaceError, ReproError
from repro.lsm.env import SSTableHandle, SSTableWriter, StorageEnv
from repro.lsm.envbase import WriteDispatcher
from repro.ocssd.address import Ppa, PpaRun
from repro.ocssd.chunk import ChunkState
from repro.ocssd.commands import Buffer
from repro.ox.media import MediaManager

ChunkKey = Tuple[int, int, int]
PuKey = Tuple[int, int]


class PlacementPolicy(abc.ABC):
    """Chooses the chunks of a new SSTable (Figure 4)."""

    name = "abstract"

    @abc.abstractmethod
    def allocate(self, env: "LightLSMEnv", count: int) -> List[ChunkKey]:
        """Take *count* free chunks; raises OutOfSpaceError when starved."""


class HorizontalPlacement(PlacementPolicy):
    """Stripe each SSTable across all parallel units of the device."""

    name = "horizontal"

    def __init__(self):
        self._cursor = 0

    def allocate(self, env: "LightLSMEnv", count: int) -> List[ChunkKey]:
        pus = env.all_pus
        chosen: List[ChunkKey] = []
        probes = 0
        while len(chosen) < count:
            if probes >= len(pus) and not any(env.free_pool[pu]
                                              for pu in pus):
                raise OutOfSpaceError(
                    f"horizontal placement: {count} chunks requested, "
                    f"pool exhausted after {len(chosen)}")
            pu = pus[self._cursor % len(pus)]
            self._cursor += 1
            probes += 1
            if env.free_pool[pu]:
                chosen.append(env.free_pool[pu].popleft())
                probes = 0
        return chosen


class VerticalPlacement(PlacementPolicy):
    """Confine each SSTable to a single group; groups rotate per table."""

    name = "vertical"

    def __init__(self):
        self._group_cursor = 0

    def allocate(self, env: "LightLSMEnv", count: int) -> List[ChunkKey]:
        groups = env.geometry.num_groups
        for __ in range(groups):
            group = self._group_cursor % groups
            self._group_cursor += 1
            pus = [pu for pu in env.all_pus if pu[0] == group]
            available = sum(len(env.free_pool[pu]) for pu in pus)
            if available < count:
                continue
            chosen: List[ChunkKey] = []
            cursor = 0
            while len(chosen) < count:
                pu = pus[cursor % len(pus)]
                cursor += 1
                if env.free_pool[pu]:
                    chosen.append(env.free_pool[pu].popleft())
            return chosen
        raise OutOfSpaceError(
            f"vertical placement: no group has {count} free chunks")


@dataclass
class _TableLayout:
    """Where one SSTable lives: striped data chunks plus one meta chunk.

    The meta chunk holds the serialized :class:`SSTableMeta`, whose last
    write unit is the FUA *commit unit*; keeping it separate from the data
    stripe means meta/commit placement never collides with a full data
    chunk, while deletion is still nothing but chunk erases.
    """

    handle: SSTableHandle
    sequence: int
    chunks: List[ChunkKey]        # data chunks, stripe order
    meta_chunk: ChunkKey
    block_sectors: int
    data_blocks: int = 0
    meta_sectors: int = 0
    # Local write pointers, one per data chunk (the paper's "write pointer
    # per chunk", owned by the dispatch thread).
    write_next: List[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.write_next:
            self.write_next = [0] * len(self.chunks)

    @property
    def all_chunks(self) -> List[ChunkKey]:
        return self.chunks + [self.meta_chunk]

    def block_location(self, block_index: int) -> Tuple[ChunkKey, int]:
        chunk_slot = block_index % len(self.chunks)
        stripe = block_index // len(self.chunks)
        return self.chunks[chunk_slot], stripe * self.block_sectors


@dataclass(frozen=True)
class LightLSMConfig:
    """Tunables of the LightLSM environment."""

    #: Data chunks one SSTable stripes over; None = one per PU of the
    #: environment's partition (Figure 4: SSTable size = #groups x #PUs
    #: x chunk size).
    chunks_per_sstable: Optional[int] = None
    #: Dispatch loops (§4.2): the paper runs exactly one; more is the
    #: counterfactual the bottleneck claim is measured against
    #: (bench_fig5 worker sweep).
    dispatch_workers: int = 1
    #: CPU seconds the dispatch thread spends per submission.
    dispatch_cpu: float = 0.0


@dataclass
class LightLSMStats:
    tables_flushed: int = 0
    tables_deleted: int = 0
    blocks_written: int = 0
    blocks_read: int = 0
    chunk_resets: int = 0
    chunks_retired: int = 0     # erases that failed: grown bad blocks


class LightLSMEnv(StorageEnv):
    """The Open-Channel SSD environment for RocksDB-lite."""

    def __init__(self, media: MediaManager, placement: PlacementPolicy,
                 config: LightLSMConfig = LightLSMConfig(),
                 tenant=None, pus: Optional[List[PuKey]] = None):
        if tenant is not None:
            media = media.for_tenant(tenant)
        self.media = media
        self.sim = media.sim
        self.geometry = media.geometry
        self.placement = placement
        # *pus* restricts the environment to a subset of parallel units —
        # a tenant's partition from repro.qos.plan_placement; default is
        # the whole device (shared striping).
        self.all_pus: List[PuKey] = (list(pus) if pus is not None
                                     else list(self.geometry.iter_pus()))
        self.chunks_per_sstable = (config.chunks_per_sstable
                                   or len(self.all_pus))
        self.free_pool: Dict[PuKey, deque[ChunkKey]] = {
            pu: deque() for pu in self.all_pus}
        for group, pu in self.all_pus:
            for chunk in range(self.geometry.chunks_per_pu):
                self.free_pool[(group, pu)].append((group, pu, chunk))
        self._tables: Dict[int, _TableLayout] = {}
        self.stats = LightLSMStats()
        self._dispatcher = WriteDispatcher(
            self.sim, media, name="lightlsm",
            workers=config.dispatch_workers,
            dispatch_cpu=config.dispatch_cpu)

    @property
    def tenant(self):
        """The :class:`~repro.qos.TenantContext` this env's I/O is tagged
        with (from its media manager); None when untagged."""
        return self.media.tenant

    # -- StorageEnv surface -----------------------------------------------------

    @property
    def min_block_size(self) -> int:
        """Blocks must be a whole number of write units (96 KB on the
        evaluation drive)."""
        return self.geometry.ws_min * self.geometry.sector_size

    @property
    def max_table_bytes(self) -> int:
        # Data capacity of the stripe, less a ~5 % margin for per-entry
        # encoding headers and block-tail padding.
        total = self.chunks_per_sstable * self.geometry.chunk_size
        return int(total * 0.95)

    def create_writer_proc(self, sstable_id: int, level: int,
                           block_size: int):
        self._check_block_size(block_size)
        if sstable_id in self._tables:
            raise ReproError(f"sstable {sstable_id} already exists")
        chunks = self.placement.allocate(self, self.chunks_per_sstable + 1)
        layout = _TableLayout(
            handle=SSTableHandle(sstable_id, level),
            sequence=sstable_id,
            chunks=chunks[:-1],
            meta_chunk=chunks[-1],
            block_sectors=block_size // self.geometry.sector_size)
        self._tables[sstable_id] = layout
        return _LightLSMWriter(self, layout)
        yield  # pragma: no cover - generator marker

    def read_block_proc(self, handle: SSTableHandle, block_index: int,
                        block_size: int):
        layout = self._layout(handle)
        if not 0 <= block_index < layout.data_blocks:
            raise ReproError(
                f"block {block_index} out of range for table "
                f"{handle.sstable_id} ({layout.data_blocks} blocks)")
        key, first_sector = layout.block_location(block_index)
        completion = yield from self.media.read_proc(
            PpaRun(key, first_sector, layout.block_sectors))
        self.media.require_ok(completion,
                              f"block read {handle.sstable_id}/{block_index}")
        self.stats.blocks_read += 1
        return b"".join(completion.data)

    def read_width(self, handle: SSTableHandle) -> int:
        """The PUs the table's stripe covers: every PU of the partition
        for horizontal placement, one group's for vertical (Figure 4)."""
        return len({key[:2] for key in self._layout(handle).chunks
                    if key[0] >= 0})

    def read_meta_proc(self, handle: SSTableHandle):
        layout = self._layout(handle)
        meta = yield from self._read_meta_of_layout(layout)
        if meta is None:
            raise ReproError(f"table {handle.sstable_id} has no meta")
        return meta

    def delete_table_proc(self, handle: SSTableHandle):
        """Reclaim a table: chunk erases only (the Figure 4 rationale)."""
        layout = self._tables.pop(handle.sstable_id, None)
        if layout is None:
            return
        for key in layout.all_chunks:
            completion = yield from self.media.reset_proc(Ppa(*key, 0))
            self.stats.chunk_resets += 1
            if completion.ok:
                self.free_pool[(key[0], key[1])].append(key)
            else:
                self._retire(key, completion)
        self.stats.tables_deleted += 1

    def list_tables_proc(self):
        """Recovery without a MANIFEST: scan chunk OOB, keep committed
        tables, reset the debris of uncommitted ones."""
        data_chunks: Dict[int, Dict[int, ChunkKey]] = {}
        meta_chunks: Dict[int, ChunkKey] = {}
        info_by_table: Dict[int, Tuple[int, int, int]] = {}
        debris: Dict[int, List[ChunkKey]] = {}
        for descriptor in self.media.scan_chunks():
            if descriptor.write_pointer == 0:
                continue
            key = descriptor.ppa.chunk_key()
            first = yield from self.media.read_proc(PpaRun(key, 0, 1),
                                                    meta_only=True)
            if not first.ok or not first.oob:
                continue
            tag = first.oob[0]
            if not isinstance(tag, tuple) or not tag:
                continue
            if tag[0] == "sst":
                __, sstable_id, level, sequence, chunk_index, n_chunks = tag
                data_chunks.setdefault(sstable_id, {})[chunk_index] = key
                info_by_table[sstable_id] = (level, sequence, n_chunks)
                debris.setdefault(sstable_id, []).append(key)
            elif tag[0] in ("sstmeta", "sstcommit"):
                # A one-unit meta is its own commit unit.
                sstable_id = tag[1]
                meta_chunks[sstable_id] = key
                debris.setdefault(sstable_id, []).append(key)

        self._tables.clear()
        result = []
        for sstable_id in sorted(set(data_chunks) | set(meta_chunks)):
            chunk_map = data_chunks.get(sstable_id, {})
            meta_key = meta_chunks.get(sstable_id)
            layout = None
            meta_blob = None
            if sstable_id in info_by_table and meta_key is not None:
                level, sequence, n_chunks = info_by_table[sstable_id]
                commit = yield from self._read_commit_proc(meta_key,
                                                           sstable_id)
                if commit is not None:
                    meta_sectors, data_blocks = commit
                    # A small table may never have written its later
                    # stripe slots; only the slots below data_blocks (or
                    # the full stripe once it wraps) must be present.
                    required = min(n_chunks, data_blocks)
                    if all(i in chunk_map for i in range(required)):
                        placeholder = (-1, -1, -1)
                        chunks = [chunk_map.get(i, placeholder)
                                  for i in range(n_chunks)]
                        layout = self._recover_layout(
                            sstable_id, level, sequence, chunks, meta_key)
                        layout.data_blocks = data_blocks
                        layout.meta_sectors = meta_sectors
                        meta_blob = yield from self._read_meta_proc(layout)
            if layout is not None and meta_blob is not None:
                self._tables[sstable_id] = layout
                result.append((layout.handle, meta_blob))
            # Torn flushes fall through: the free-pool rebuild below
            # resets and reclaims anything not owned by a live table.

        # Rebuild the free pool from the physical truth.
        for pu in self.all_pus:
            self.free_pool[pu].clear()
        live = {key for layout in self._tables.values()
                for key in layout.all_chunks if key[0] >= 0}
        for descriptor in self.media.scan_chunks():
            key = descriptor.ppa.chunk_key()
            if key in live or descriptor.state is ChunkState.OFFLINE:
                continue
            if descriptor.write_pointer > 0:
                completion = yield from self.media.reset_proc(
                    descriptor.ppa)
                if not completion.ok:
                    self._retire(key, completion)
                    continue
            self.free_pool[(key[0], key[1])].append(key)
        return result

    def log_version_edit(self, edit: Tuple[str, int, int]) -> None:
        """No-op: atomic SSTable flush replaces the MANIFEST (§5)."""

    # -- dispatch thread -----------------------------------------------------------

    @property
    def dispatcher(self) -> WriteDispatcher:
        return self._dispatcher

    def submit_write(self, ppas: PpaRun, data: Buffer,
                     oob: List[object], fua: bool = False):
        """Queue a write on the dispatch thread; returns the done event."""
        return self._dispatcher.submit(ppas, data, oob, fua)

    # -- internals --------------------------------------------------------------------

    def _check_block_size(self, block_size: int) -> None:
        if block_size % self.min_block_size:
            raise ReproError(
                f"block_size {block_size} is not a multiple of the device "
                f"write unit ({self.min_block_size} bytes) — §4.2: 'the "
                "size of a RocksDB block must be a multiple of 96KB'")

    def _retire(self, key: ChunkKey, completion) -> None:
        """A failed erase: the chunk stays out of the free pool (a grown
        bad block), on the record."""
        self.stats.chunks_retired += 1
        if self.sim.obs is not None:
            self.sim.obs.error("lsm", "reset-failed",
                               completion.error or str(key))

    def _layout(self, handle: SSTableHandle) -> _TableLayout:
        try:
            return self._tables[handle.sstable_id]
        except KeyError:
            raise ReproError(
                f"unknown sstable {handle.sstable_id}") from None

    def _read_commit_proc(self, meta_key: ChunkKey, sstable_id: int):
        """Read and validate the commit unit (the meta's last unit) at the
        tail of the meta chunk; ``(meta_sectors, data_blocks)`` or None."""
        ws_min = self.geometry.ws_min
        info = self.media.chunk_info(Ppa(*meta_key, 0))
        if info.write_pointer < ws_min:
            return None
        completion = yield from self.media.read_proc(
            PpaRun(meta_key, info.write_pointer - ws_min, 1), meta_only=True)
        if not completion.ok or not completion.oob:
            return None
        tag = completion.oob[0]
        if not isinstance(tag, tuple) or not tag or tag[0] != "sstcommit":
            return None
        (__, tag_id, __level, __seq, meta_sectors, data_blocks,
         __n_chunks) = tag
        if tag_id != sstable_id:
            return None
        return meta_sectors, data_blocks

    def _read_meta_proc(self, layout: _TableLayout):
        """Read the meta bytes from the meta chunk."""
        completion = yield from self.media.read_proc(
            PpaRun(layout.meta_chunk, 0, layout.meta_sectors))
        if not completion.ok:
            return None
        return b"".join(completion.data)

    def _read_meta_of_layout(self, layout: _TableLayout):
        """Commit validation + meta read for an in-memory layout."""
        commit = yield from self._read_commit_proc(
            layout.meta_chunk, layout.handle.sstable_id)
        if commit is None:
            return None
        layout.meta_sectors, layout.data_blocks = commit
        blob = yield from self._read_meta_proc(layout)
        return blob

    def _recover_layout(self, sstable_id: int, level: int, sequence: int,
                        chunks: List[ChunkKey],
                        meta_chunk: ChunkKey) -> _TableLayout:
        layout = _TableLayout(
            handle=SSTableHandle(sstable_id, level), sequence=sequence,
            chunks=chunks, meta_chunk=meta_chunk, block_sectors=0)
        # block_sectors comes from the meta (block_size): the DB calls
        # set_block_sectors after parsing.  Write pointers come from the
        # device (recovered tables are immutable anyway).
        for index, key in enumerate(chunks):
            if key[0] < 0:
                continue   # placeholder for a never-written stripe slot
            info = self.media.chunk_info(Ppa(*key, 0))
            layout.write_next[index] = info.write_pointer
        return layout

    def set_block_sectors(self, handle: SSTableHandle,
                          block_size: int) -> None:
        """Recovery hook: the DB tells the env each table's block size
        after parsing its meta."""
        self._layout(handle).block_sectors = \
            block_size // self.geometry.sector_size


class _LightLSMWriter(SSTableWriter):
    """Streams one SSTable's blocks onto its chunks."""

    def __init__(self, env: LightLSMEnv, layout: _TableLayout):
        self.env = env
        self.layout = layout
        self._next_block = 0
        self._pending = []   # done events of in-flight block writes

    def append_block_proc(self, block: bytes):
        layout = self.layout
        geometry = self.env.geometry
        sector_size = geometry.sector_size
        expected = layout.block_sectors * sector_size
        if len(block) != expected:
            raise ReproError(
                f"block of {len(block)} bytes; expected {expected}")
        key, first_sector = layout.block_location(self._next_block)
        chunk_slot = self._next_block % len(layout.chunks)
        if first_sector != layout.write_next[chunk_slot]:
            raise ReproError(
                f"write pointer mismatch on chunk {key}: "
                f"{first_sector} != {layout.write_next[chunk_slot]}")
        if first_sector + layout.block_sectors > geometry.sectors_per_chunk:
            raise OutOfSpaceError(
                f"table {layout.handle.sstable_id} overflows its chunks")
        ppas = PpaRun(key, first_sector, layout.block_sectors)
        oob = [("sst", layout.handle.sstable_id, layout.handle.level,
                layout.sequence, chunk_slot, len(layout.chunks))
               for __ in range(layout.block_sectors)]
        done = self.env.submit_write(ppas, block, oob)
        self._pending.append(done)
        layout.write_next[chunk_slot] = first_sector + layout.block_sectors
        self._next_block += 1
        self.env.stats.blocks_written += 1
        # Wait for admission of this block before returning (back-pressure
        # at controller-cache speed, which is the write-back behaviour the
        # evaluation drive exhibits).
        completion = yield done
        if not completion.ok:
            raise ReproError(
                f"block write failed: {completion.error or completion.status}")

    def finish_proc(self, meta_blob: bytes):
        env = self.env
        geometry = env.geometry
        layout = self.layout
        sector_size = geometry.sector_size
        ws_min = geometry.ws_min
        layout.data_blocks = self._next_block

        # Meta: written at the start of the dedicated meta chunk, padded
        # to whole write units (the sectors past the blob's end).
        unit_bytes = ws_min * sector_size
        meta_sectors = max(1, -(-len(meta_blob) // unit_bytes)) * ws_min
        if meta_sectors > geometry.sectors_per_chunk:
            raise OutOfSpaceError(
                f"meta of table {layout.handle.sstable_id} "
                f"({len(meta_blob)} bytes) exceeds the meta chunk")
        layout.meta_sectors = meta_sectors
        key = layout.meta_chunk
        head = meta_sectors - ws_min
        if head:
            oob = [("sstmeta", layout.handle.sstable_id, i)
                   for i in range(head)]
            completion = yield env.submit_write(
                PpaRun(key, 0, head), meta_blob[:head * sector_size], oob)
            if not completion.ok:
                raise ReproError(f"meta write failed: {completion.error}")

        # Durability barrier, then the meta's last unit as the FUA commit
        # unit.  Atomic flush: the table exists iff this unit does.
        yield from env.media.flush_proc()
        oob = [("sstcommit", layout.handle.sstable_id,
                layout.handle.level, layout.sequence, meta_sectors,
                layout.data_blocks, len(layout.chunks))
               for __ in range(ws_min)]
        completion = yield env.submit_write(
            PpaRun(key, head, ws_min), meta_blob[head * sector_size:], oob,
            fua=True)
        if not completion.ok:
            raise ReproError(f"commit write failed: {completion.error}")
        env.stats.tables_flushed += 1
        return layout.handle

    def abort_proc(self):
        """Discard the partial table: reset its chunks, return them."""
        env = self.env
        layout = env._tables.pop(self.layout.handle.sstable_id, None)
        if layout is None:
            return
        yield from env.media.flush_proc()
        for key in layout.all_chunks:
            info = env.media.chunk_info(Ppa(*key, 0))
            if info.write_pointer > 0:
                completion = yield from env.media.reset_proc(Ppa(*key, 0))
                if not completion.ok:
                    env._retire(key, completion)
                    continue
            env.free_pool[(key[0], key[1])].append(key)
