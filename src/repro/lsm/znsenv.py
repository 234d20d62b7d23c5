"""ZnsEnv: the LSM engine ported to Zoned Namespaces (OX-ZNS).

"How to best port legacy data systems from a block device abstraction to
ZNS is an open issue" (§2.3).  This env is one answer for the LSM case:
SSTables live on whole zones (append-only, reset-to-reclaim — a natural
fit for immutable tables), the FTL below hides ``ws_min``/paired-page
complexity, and the host keeps a MANIFEST for table visibility — unlike
LightLSM, the ZNS abstraction alone does not make the media
self-describing.  Its table writer is LightLSM's
:class:`~repro.lsm.envbase.StripedTableWriter`, with zones for lanes.

Together with :class:`repro.lsm.blockenv.BlockDevEnv` (generic block FTL)
and :class:`repro.lsm.lightlsm.LightLSMEnv` (application-specific FTL)
this completes the paper's Figure 1 abstraction spectrum for one data
system, measurable side by side in ``bench_abstraction_spectrum.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ReproError
from repro.lsm.env import SSTableHandle
from repro.lsm.envbase import (
    ManifestEnv, StripedTableWriter, pad_to_sectors)
from repro.zns.ftl import OXZns
from repro.zns.zone import ZoneState


@dataclass
class _ZnsTable:
    zones: List[int]
    block_lbas: List[int]      # starting LBA of each data block
    meta_lba: int = -1
    meta_sectors: int = 0
    meta_bytes: int = 0


class _ZnsWriter(StripedTableWriter):
    """Streams one table's blocks over a stripe of open zones, one per
    group (channel); a lane is a zone of the stripe, and the blocks take
    the zones in turn.  The stripe is ``num_groups`` wide, at most half
    of ``max_open_zones``, and never holds more zones than OX-ZNS's
    open-zone budget has room for: a writer that holds a zone narrows
    instead of waiting, so none deadlocks."""

    def __init__(self, env: "ZnsEnv", sstable_id: int, level: int,
                 block_size: int):
        super().__init__()
        self.env = env
        self.handle = SSTableHandle(sstable_id, level)
        self.block_sectors = block_size // env.sector_size
        self.table = _ZnsTable(zones=[], block_lbas=[])
        self._slots: List[int] = []     # the stripe's open zones, next first
        # At most half the budget: a flush's stripe and a compaction's fit.
        self._width = min(env.zns.geometry.num_groups,
                          max(1, env.zns.config.max_open_zones // 2))

    def _zone_with_room_proc(self, sectors: int):
        """The stripe's next zone, its append in flight done, with at
        least *sectors* of room: a full zone is finished and a fresh one
        taken in a group the stripe does not use, or its slot goes."""
        zns, slots = self.env.zns, self._slots
        while True:
            if len(slots) < self._width:
                zone_id = yield from zns.open_zone_proc(
                    {zns.zone(zone).group for zone in slots},
                    wait=not slots)
                if zone_id is not None:
                    slots.append(zone_id)
                    self.table.zones.append(zone_id)
                    return zone_id
                self._width = len(slots)
            zone_id = slots[0]
            yield from self._wait_lane_proc(zone_id)
            zone = zns.zone(zone_id)
            if zone.remaining >= sectors:
                slots.append(slots.pop(0))
                return zone_id
            if zone.state is not ZoneState.FULL:
                yield from zns.finish_zone_proc(zone_id)
            slots.pop(0)

    def append_block_proc(self, block: bytes):
        zone_id = yield from self._zone_with_room_proc(self.block_sectors)
        append = self.env.sim.spawn(self.env.zns.append_proc(zone_id, block),
                                    name="zns-table-append")
        append.defuse()     # a failure raises where the writer waits
        self._submitted(zone_id, append)
        self.table.block_lbas.append(-1)

    def _landed(self, index: int, lba: int) -> None:
        self.table.block_lbas[index] = lba

    def _commit_proc(self, meta_blob: bytes):
        zns = self.env.zns
        meta_sectors, padded = pad_to_sectors(meta_blob,
                                              self.env.sector_size)
        zone_id = yield from self._zone_with_room_proc(meta_sectors)
        self.table.meta_lba = yield from zns.append_proc(zone_id, padded)
        self.table.meta_sectors = meta_sectors
        self.table.meta_bytes = len(meta_blob)
        yield from self.env.sim.join_proc(
            [zns.finish_zone_proc(zone_id) for zone_id in self._slots
             if zns.zone(zone_id).state is not ZoneState.FULL], "zns-finish")
        # Durability barrier: the table is acknowledged only once its data
        # and meta are on NAND (the fsync a real engine would issue).
        yield from zns.media.flush_proc(
            [key for zone_id in self.table.zones
             for key in zns.zone(zone_id).chunks])
        self.env._tables[self.handle.sstable_id] = self.table
        return self.handle

    def _discard_proc(self):
        zones, self.table.zones = self.table.zones, []
        yield from self.env._reclaim_proc(zones)


class ZnsEnv(ManifestEnv):
    """SSTables on zones: append to flush, reset to reclaim."""

    def __init__(self, zns: OXZns):
        super().__init__()
        self.zns = zns
        self.sim = zns.sim
        self.sector_size = zns.geometry.sector_size

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

    def create_writer(self, sstable_id: int, level: int, block_size: int):
        self._admit_writer(sstable_id, block_size)
        return _ZnsWriter(self, sstable_id, level, block_size)

    def read_block_proc(self, handle: SSTableHandle, block_index: int,
                        block_size: int):
        table = self._require(handle)
        if not 0 <= block_index < len(table.block_lbas):
            raise ReproError(f"block {block_index} out of range")
        data = yield from self.zns.read_proc(
            table.block_lbas[block_index],
            block_size // self.sector_size)
        return data

    def read_width(self, handle: SSTableHandle) -> int:
        """The groups (channels) the table's zones span: its blocks rotate
        over them, and a wider window only queues on their channels."""
        return len({self.zns.zone(zone_id).group
                    for zone_id in self._require(handle).zones})

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

    def list_tables_proc(self):
        """The MANIFEST walk; then, with no writer alive, OX-ZNS recovers
        around the zones the listed tables hold: every other zone (a table
        cut mid-write never reached the MANIFEST) turns EMPTY and its
        chunks go back to the pool."""
        tables = yield from super().list_tables_proc()
        live = {handle.sstable_id for handle, __ in tables}
        self._tables = {sstable_id: self._tables[sstable_id]
                        for sstable_id in live}
        yield from self.zns.recover_proc(
            {zone_id for table in self._tables.values()
             for zone_id in table.zones})
        return tables

    # log_version_edit: ManifestEnv; _require: StorageEnv.

    # -- internals ----------------------------------------------------------------

    def _reclaim_proc(self, zone_ids: List[int]):
        """Reset *zone_ids* side by side (a table's zones sit in distinct
        groups, so their erases overlap); a chunk whose erase fails is
        retired by the pool and raises nothing."""
        yield from self.sim.join_proc(
            [self.zns.reset_zone_proc(zone_id) for zone_id in zone_ids],
            "zns-reclaim")
