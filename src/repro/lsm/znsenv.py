"""ZnsEnv: the LSM engine ported to Zoned Namespaces (OX-ZNS).

"How to best port legacy data systems from a block device abstraction to
ZNS is an open issue" (§2.3).  This env is one answer for the LSM case:
SSTables live on zones (append-only, reset-to-reclaim — a natural fit
for immutable tables), the FTL below hides ``ws_min``/paired-page
complexity, and the host keeps a MANIFEST for table visibility — unlike
LightLSM, the ZNS abstraction alone does not make the media
self-describing.  Its table writer is LightLSM's
:class:`~repro.lsm.envbase.StripedTableWriter`, with zones for lanes.

Tables of one level share zones, as ZenFS does (Bjørling et al., "ZNS:
Avoiding the Block Interface Tax", ATC 2021): a committed table leaves
its partly written zones OPEN, *spare*, for the next writer of its
level, and a zone is held once by each table with blocks in it and
reset when its last holder dies.  No finish strands a zone's tail
unless the open-zone budget runs out.

Together with :class:`repro.lsm.blockenv.BlockDevEnv` (generic block FTL)
and :class:`repro.lsm.lightlsm.LightLSMEnv` (application-specific FTL)
this completes the paper's Figure 1 abstraction spectrum for one data
system, measurable side by side in ``bench_abstraction_spectrum.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

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
    of ``max_open_zones``.  A zone joins it as a spare of the writer's
    level if one fits, else as a fresh open; a writer that finds no unit
    of OX-ZNS's open-zone budget free first finishes the oldest spares,
    then narrows if it holds a zone and waits if it holds none, so none
    deadlocks.  The commit hands the stripe's not-FULL zones back as
    spares of the level."""

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
        least *sectors* of room: a full zone is finished and another
        taken in a group the stripe does not use, or its slot goes."""
        env, zns, slots = self.env, self.env.zns, self._slots
        while True:
            if len(slots) < self._width:
                groups = {zns.zone(zone).group for zone in slots}
                zone_id = env._take_spare(self.handle.level, groups, sectors)
                if zone_id is None:
                    yield from env._free_a_unit_proc()
                    zone_id = yield from zns.open_zone_proc(
                        groups, wait=not slots)
                if zone_id is not None:
                    slots.append(zone_id)
                    self.table.zones.append(zone_id)
                    env._holders[zone_id] += 1
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
        env, zns = self.env, self.env.zns
        meta_sectors, padded = pad_to_sectors(meta_blob, env.sector_size)
        zone_id = yield from self._zone_with_room_proc(meta_sectors)
        self.table.meta_lba = yield from zns.append_proc(zone_id, padded)
        self.table.meta_sectors = meta_sectors
        self.table.meta_bytes = len(meta_blob)
        # Durability barrier: the table is acknowledged only once its data
        # and meta are on NAND (the fsync a real engine would issue).
        yield from zns.media.flush_proc(
            [key for zone_id in self.table.zones
             for key in zns.zone(zone_id).chunks])
        env._tables[self.handle.sstable_id] = self.table
        for zone_id in self._slots:
            if zns.zone(zone_id).state is not ZoneState.FULL:
                env._spares[zone_id] = self.handle.level
        yield from env._free_a_unit_proc()
        return self.handle

    def _discard_proc(self):
        """Finish the stripe's zones another table holds (a torn append
        may sit in one), then drop the holds: a zone only this table
        held is reset."""
        env, zns = self.env, self.env.zns
        yield from env.sim.join_proc(
            [zns.finish_zone_proc(zone_id) for zone_id in self._slots
             if env._holders[zone_id] > 1], "zns-finish")
        zones, self.table.zones = self.table.zones, []
        yield from env._release_proc(zones)


class ZnsEnv(ManifestEnv):
    """SSTables on zones: append to flush, reset to reclaim."""

    def __init__(self, zns: OXZns):
        super().__init__()
        self.zns = zns
        self.sim = zns.sim
        self.sector_size = zns.geometry.sector_size
        #: zone -> the tables, committed or being written, holding it.
        self._holders: Counter = Counter()
        #: OPEN zone no writer's stripe holds -> its level, oldest first.
        self._spares: Dict[int, int] = {}

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
        yield from self._release_proc(table.zones)

    def list_tables_proc(self):
        """The MANIFEST walk; then, with no writer alive, OX-ZNS recovers
        around the zones the listed tables hold: every other zone (a table
        cut mid-write never reached the MANIFEST) turns EMPTY and its
        chunks go back to the pool, and a held zone still OPEN is
        finished.  The holds are counted again from the listed tables;
        no zone is spare."""
        tables = yield from super().list_tables_proc()
        live = {handle.sstable_id for handle, __ in tables}
        self._tables = {sstable_id: self._tables[sstable_id]
                        for sstable_id in live}
        self._holders = Counter(zone_id for table in self._tables.values()
                                for zone_id in table.zones)
        self._spares = {}
        yield from self.zns.recover_proc(set(self._holders))
        return tables

    # log_version_edit: ManifestEnv; _require: StorageEnv.

    # -- internals ----------------------------------------------------------------

    def _take_spare(self, level: int, avoid_groups, sectors: int):
        """The oldest spare zone of *level* outside *avoid_groups* with
        *sectors* of room, out of the spares; or None."""
        for zone_id, spare_level in self._spares.items():
            zone = self.zns.zone(zone_id)
            if spare_level == level and zone.group not in avoid_groups \
                    and zone.remaining >= sectors:
                del self._spares[zone_id]
                return zone_id
        return None

    def _free_a_unit_proc(self):
        """While every unit of the open-zone budget is taken, finish the
        oldest spare zone: spares never keep a writer waiting."""
        budget = self.zns.open_budget
        while self._spares and budget.in_use >= budget.capacity:
            zone_id = next(iter(self._spares))
            del self._spares[zone_id]
            # Held while it finishes, so no delete resets it meanwhile.
            self._holders[zone_id] += 1
            yield from self.zns.finish_zone_proc(zone_id)
            yield from self._release_proc([zone_id])

    def _release_proc(self, zone_ids: List[int]):
        """Drop one hold on each of *zone_ids* and reset, side by side,
        the ones no table holds any more (a table's zones sit in distinct
        groups, so their erases overlap); a chunk whose erase fails is
        retired by the pool and raises nothing."""
        dead = []
        for zone_id in zone_ids:
            self._holders[zone_id] -= 1
            if not self._holders[zone_id]:
                del self._holders[zone_id]
                self._spares.pop(zone_id, None)
                dead.append(zone_id)
        yield from self.sim.join_proc(
            [self.zns.reset_zone_proc(zone_id) for zone_id in dead],
            "zns-reclaim")
