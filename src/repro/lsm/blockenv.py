"""BlockDevEnv: the LSM engine over the *generic* OX-Block FTL.

The paper's central contrast is between a generic block-device FTL
(pblk, SPDK, OX-Block) serving a legacy data system, and an
application-specific FTL (LightLSM) co-designed with it.  This env is
the generic side of that comparison: RocksDB-lite talks to OX-Block as
if it were a file system on a block device —

* SSTables are contiguous LBA extents from a bump/free-list allocator;
* every block write is an OX-Block *transaction* (page-map update + WAL
  commit — the generic FTL's tax on the write path);
* deleting an SSTable trims its extent, leaving invalid pages for the
  FTL's garbage collector to copy around later (LightLSM's chunk-aligned
  deletion needs no copies at all);
* table visibility needs a MANIFEST, like any file system client.

``benchmarks/bench_abstraction_spectrum.py`` measures the resulting
throughput and write-amplification gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import OutOfSpaceError, ReproError
from repro.lsm.env import SSTableHandle, SSTableWriter
from repro.lsm.envbase import ManifestEnv, pad_to_sectors
from repro.ox.block import OXBlock


@dataclass
class _Extent:
    start_lba: int
    sectors: int


class _BlockDevWriter(SSTableWriter):
    def __init__(self, env: "BlockDevEnv", sstable_id: int, level: int,
                 block_size: int):
        self.env = env
        self.sstable_id = sstable_id
        self.level = level
        self.block_size = block_size
        self.block_sectors = block_size // env.sector_size
        self._blocks_written = 0
        self._extent = None   # allocated lazily at first block

    def _ensure_extent(self) -> None:
        if self._extent is None:
            self._extent = self.env._allocate(self.env.max_table_sectors)

    def append_block_proc(self, block: bytes):
        self._ensure_extent()
        if (self._blocks_written + 1) * self.block_sectors \
                > self._extent.sectors:
            raise OutOfSpaceError(
                f"sstable {self.sstable_id} overflows its extent")
        lba = self._extent.start_lba \
            + self._blocks_written * self.block_sectors
        yield from self.env.ftl.write_proc(lba, block)
        self._blocks_written += 1

    def finish_proc(self, meta_blob: bytes):
        self._ensure_extent()
        meta_sectors, padded = pad_to_sectors(meta_blob,
                                              self.env.sector_size)
        data_sectors = self._blocks_written * self.block_sectors
        if data_sectors + meta_sectors > self._extent.sectors:
            raise OutOfSpaceError(
                f"sstable {self.sstable_id} meta overflows its extent")
        yield from self.env.ftl.write_proc(
            self._extent.start_lba + data_sectors, padded)
        handle = SSTableHandle(self.sstable_id, self.level)
        self.env._tables[self.sstable_id] = (
            self._extent, self._blocks_written, meta_sectors, len(meta_blob),
            self.level)
        return handle

    def abort_proc(self):
        if self._extent is not None:
            self.env._free(self._extent)
            self._extent = None
        return
        yield  # pragma: no cover - generator marker


class BlockDevEnv(ManifestEnv):
    """A minimal extent 'file system' over an OX-Block device."""

    def __init__(self, ftl: OXBlock, table_sectors: int):
        super().__init__()
        self.ftl = ftl
        self.sim = ftl.sim
        self.sector_size = ftl.geometry.sector_size
        self.max_table_sectors = table_sectors
        self._next_lba = 0
        self._free_list: List[_Extent] = []
        # ManifestEnv._tables maps
        # id -> (extent, data blocks, meta sectors, meta bytes, level)

    # -- StorageEnv -----------------------------------------------------------

    @property
    def min_block_size(self) -> int:
        """A block device imposes only sector alignment."""
        return self.sector_size

    @property
    def max_table_bytes(self) -> int:
        # Reserve room for the meta blob plus a ~5 % margin for entry
        # encoding headers and block-tail padding.
        return int((self.max_table_sectors - 32) * self.sector_size * 0.95)

    def create_writer(self, sstable_id: int, level: int, block_size: int):
        self._admit_writer(sstable_id, block_size)
        self.note_block_size(block_size)
        return _BlockDevWriter(self, sstable_id, level, block_size)

    def read_block_proc(self, handle: SSTableHandle, block_index: int,
                        block_size: int):
        extent, blocks, __, __b, __l = self._require(handle)
        sectors = block_size // self.sector_size
        if not 0 <= block_index < blocks:
            raise ReproError(
                f"block {block_index} out of range for {handle}")
        lba = extent.start_lba + block_index * sectors
        data = yield from self.ftl.read_proc(lba, sectors)
        return data

    def read_meta_proc(self, handle: SSTableHandle):
        extent, blocks, meta_sectors, meta_bytes, __ = self._require(handle)
        # Meta sits right after the data blocks.
        data_sectors = blocks * self._block_sectors
        blob = yield from self.ftl.read_proc(
            extent.start_lba + data_sectors, meta_sectors)
        return blob[:meta_bytes]

    def delete_table_proc(self, handle: SSTableHandle):
        entry = self._tables.pop(handle.sstable_id, None)
        if entry is None:
            return
        extent = entry[0]
        # Trim invalidates the pages; the FTL's GC pays the copies later.
        yield from self.ftl.trim_proc(extent.start_lba, extent.sectors)
        self._free(extent)

    # list_tables_proc / log_version_edit: ManifestEnv; _require: StorageEnv.

    # -- internals ----------------------------------------------------------------

    _block_sectors = 0   # the DB's (single) block size, in sectors

    def note_block_size(self, block_size: int) -> None:
        self._block_sectors = block_size // self.sector_size

    def _allocate(self, sectors: int) -> _Extent:
        for index, extent in enumerate(self._free_list):
            if extent.sectors >= sectors:
                del self._free_list[index]
                return extent
        if self._next_lba + sectors > self.ftl.capacity_sectors:
            raise OutOfSpaceError(
                f"extent allocator exhausted at lba {self._next_lba}")
        extent = _Extent(self._next_lba, sectors)
        self._next_lba += sectors
        return extent

    def _free(self, extent: _Extent) -> None:
        self._free_list.append(extent)
