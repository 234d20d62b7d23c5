"""ZnsEnv: the LSM engine ported to Zoned Namespaces (OX-ZNS).

"How to best port legacy data systems from a block device abstraction to
ZNS is an open issue" (§2.3).  This env is one answer for the LSM case:
SSTables live on whole zones (append-only, reset-to-reclaim — a natural
fit for immutable tables), the FTL below hides ``ws_min``/paired-page
complexity, and the host keeps a MANIFEST for table visibility — unlike
LightLSM, the ZNS abstraction alone does not make the media
self-describing.

Together with :class:`repro.lsm.blockenv.BlockDevEnv` (generic block FTL)
and :class:`repro.lsm.lightlsm.LightLSMEnv` (application-specific FTL)
this completes the paper's Figure 1 abstraction spectrum for one data
system, measurable side by side in ``bench_abstraction_spectrum.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import OutOfSpaceError, ReproError
from repro.lsm.env import SSTableHandle, SSTableWriter
from repro.lsm.envbase import ManifestEnv, pad_to_sectors
from repro.zns.ftl import OXZns
from repro.zns.zone import ZoneState


@dataclass
class _ZnsTable:
    zones: List[int]
    data_blocks: int
    block_lbas: List[int]      # starting LBA of each data block
    meta_lba: int = -1
    meta_sectors: int = 0
    meta_bytes: int = 0


class _ZnsWriter(SSTableWriter):
    def __init__(self, env: "ZnsEnv", sstable_id: int, level: int,
                 block_size: int):
        self.env = env
        self.sstable_id = sstable_id
        self.level = level
        self.block_size = block_size
        self.block_sectors = block_size // env.sector_size
        self.table = _ZnsTable(zones=[], data_blocks=0, block_lbas=[])
        self._active_zone: int = -1

    def _zone_with_room_proc(self, sectors: int):
        """Return a zone id with at least *sectors* of room, sealing the
        active zone and taking a fresh one when it cannot fit the data."""
        zns = self.env.zns
        if self._active_zone >= 0:
            zone = zns.zone(self._active_zone)
            if zone.remaining >= sectors:
                return self._active_zone
            if zone.state is not ZoneState.FULL:
                yield from zns.finish_zone_proc(self._active_zone)
        zone_id = self.env._take_free_zone()
        self.table.zones.append(zone_id)
        self._active_zone = zone_id
        return zone_id

    def append_block_proc(self, block: bytes):
        zone_id = yield from self._zone_with_room_proc(self.block_sectors)
        lba = yield from self.env.zns.append_proc(zone_id, block)
        self.table.block_lbas.append(lba)
        self.table.data_blocks += 1

    def finish_proc(self, meta_blob: bytes):
        zns = self.env.zns
        meta_sectors, padded = pad_to_sectors(meta_blob,
                                              self.env.sector_size)
        zone_id = yield from self._zone_with_room_proc(meta_sectors)
        self.table.meta_lba = yield from zns.append_proc(zone_id, padded)
        self.table.meta_sectors = meta_sectors
        self.table.meta_bytes = len(meta_blob)
        if zns.zone(zone_id).state is not ZoneState.FULL:
            yield from zns.finish_zone_proc(zone_id)
        # Durability barrier: the table is acknowledged only once its data
        # and meta are on NAND (the fsync a real engine would issue).
        yield from zns.media.flush_proc(
            [key for zone_id in self.table.zones
             for key in zns.zone(zone_id).chunks])
        handle = SSTableHandle(self.sstable_id, self.level)
        self.env._tables[self.sstable_id] = self.table
        return handle

    def abort_proc(self):
        zones, self.table.zones = self.table.zones, []
        yield from self.env._reclaim_proc(zones)


class ZnsEnv(ManifestEnv):
    """SSTables on zones: append to flush, reset to reclaim."""

    def __init__(self, zns: OXZns):
        super().__init__()
        self.zns = zns
        self.sim = zns.sim
        self.sector_size = zns.geometry.sector_size
        self._free_zones: List[int] = list(range(zns.num_zones))

    @property
    def tenant(self):
        """The :class:`~repro.qos.TenantContext` of the underlying
        namespace; None when untagged."""
        return self.zns.tenant

    # -- StorageEnv -------------------------------------------------------------

    @property
    def min_block_size(self) -> int:
        """ZNS hides ws_min: the host only needs sector alignment.  (The
        FTL pads each append internally — small appends waste capacity,
        which is the ZNS trade-off.)"""
        return self.sector_size

    @property
    def max_table_bytes(self) -> int:
        return 0   # tables may span any number of zones

    def create_writer_proc(self, sstable_id: int, level: int,
                           block_size: int):
        self._admit_writer(sstable_id, block_size)
        return _ZnsWriter(self, sstable_id, level, block_size)
        yield  # pragma: no cover - generator marker

    def read_block_proc(self, handle: SSTableHandle, block_index: int,
                        block_size: int):
        table = self._require(handle)
        if not 0 <= block_index < table.data_blocks:
            raise ReproError(f"block {block_index} out of range")
        data = yield from self.zns.read_proc(
            table.block_lbas[block_index],
            block_size // self.sector_size)
        return data

    def read_width(self, handle: SSTableHandle) -> int:
        """The PUs a zone's chunks cover in one group (wider only queues on
        that group's channel)."""
        return self.zns.config.chunks_per_zone

    def read_meta_proc(self, handle: SSTableHandle):
        table = self._require(handle)
        blob = yield from self.zns.read_proc(table.meta_lba,
                                             table.meta_sectors)
        return blob[:table.meta_bytes]

    def delete_table_proc(self, handle: SSTableHandle):
        table = self._tables.pop(handle.sstable_id, None)
        if table is None:
            return
        yield from self._reclaim_proc(table.zones)

    # list_tables_proc / log_version_edit / _require: ManifestEnv.

    # -- internals ----------------------------------------------------------------

    def _reclaim_proc(self, zone_ids: List[int]):
        """Reset *zone_ids* side by side (they sit in distinct groups, so
        their erases overlap).  A reset zone returns to the free list, a
        retired one does not; its ZoneError surfaces once every sibling
        has finished."""
        def reset_proc(zone_id: int):
            if self.zns.zone(zone_id).state is not ZoneState.EMPTY:
                yield from self.zns.reset_zone_proc(zone_id)
            self._free_zones.append(zone_id)

        yield from self.sim.join_proc(
            [reset_proc(zone_id) for zone_id in zone_ids], "zns-reclaim")

    def _take_free_zone(self) -> int:
        while self._free_zones:
            zone_id = self._free_zones.pop(0)
            if self.zns.zone(zone_id).state is ZoneState.EMPTY:
                return zone_id
        raise OutOfSpaceError("no empty zones left")
