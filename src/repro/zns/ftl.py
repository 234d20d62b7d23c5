"""OX-ZNS: the ZNS application-specific FTL.

Zones are fixed-size append regions of one group each (zones rotate
groups, so concurrently-open zones exercise disjoint channels — the
device-side placement freedom ZNS gives the FTL).  A zone takes its
chunks, striped across the parallel units of its group, from the
:class:`~repro.ox.media.ChunkPool` when it opens, and gives them back
when it is reset.  The host API is the NVMe ZNS shape:

* ``report_zones()`` — zone descriptors;
* ``open_zone_proc(avoid_groups, wait)`` — explicit open of the first
  EMPTY zone outside some groups whose group has the chunks, within
  ``max_open_zones``;
* ``append(zone_id, data)`` — sequential write at the zone's pointer,
  returns the LBA the data landed on;
* ``read(lba, sectors)``;
* ``reset_zone(zone_id)`` — chunk erases;
* ``finish_zone(zone_id)`` — pad and close.

The pool owns wear, as under every other OX FTL: a reset erases through
it, and a chunk whose erase fails is retired alone, counted in
``stats.chunks_retired``; the zone and its other chunks are reused.  Zone
state is the one record of free (EMPTY) and open zones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import OutOfSpaceError, ReproError, ZoneError
from repro.ocssd.address import PpaRun
from repro.ox.media import ChunkPool, MediaManager
from repro.sim.resources import Resource
from repro.zns.zone import Zone, ZoneState


@dataclass(frozen=True)
class ZnsConfig:
    """Zone sizing: chunks per zone (striped within one group)."""

    chunks_per_zone: int = 4
    max_open_zones: int = 8


@dataclass
class ZnsStats:
    appends: int = 0
    sectors_appended: int = 0
    sectors_read: int = 0
    zone_resets: int = 0
    zones_finished: int = 0
    chunks_retired: int = 0     # erases that failed: grown bad blocks


class OXZns:
    """A ZNS namespace over one Open-Channel SSD."""

    def __init__(self, media: MediaManager,
                 config: Optional[ZnsConfig] = None):
        self.media = media
        self.sim = media.sim
        self.geometry = geometry = media.geometry
        self.config = config or ZnsConfig()
        per_zone = self.config.chunks_per_zone
        if per_zone < 1 or per_zone > geometry.pus_per_group \
                * geometry.chunks_per_pu:
            raise ZoneError(f"chunks_per_zone={per_zone} does not fit a group")
        self.zone_capacity = per_zone * geometry.sectors_per_chunk
        # As many zones per group as its chunks fill; zone *i* sits in
        # group ``i % num_groups``, so ids taken in order rotate channels.
        groups = geometry.num_groups
        self.zones: List[Zone] = [
            Zone(zone_id, self.zone_capacity, zone_id % groups)
            for zone_id in range(groups * (
                geometry.pus_per_group * geometry.chunks_per_pu // per_zone))]
        #: One unit per OPEN zone, within ``max_open_zones``.
        self.open_budget = Resource(self.sim, self.config.max_open_zones)
        self.stats = ZnsStats()
        self.pool = ChunkPool(
            media, [(*pu, chunk) for pu in geometry.iter_pus()
                    for chunk in range(geometry.chunks_per_pu)],
            name="zns", layer="zns", stats=self.stats)
        # Observability (repro.obs): inherited from the simulator; None
        # unless a hub was attached before this FTL was built.
        self.obs = media.sim.obs

    # -- admin ---------------------------------------------------------------------

    @property
    def num_zones(self) -> int:
        return len(self.zones)

    def report_zones(self) -> List[Zone]:
        return list(self.zones)

    def zone(self, zone_id: int) -> Zone:
        if not 0 <= zone_id < len(self.zones):
            raise ZoneError(f"zone {zone_id} out of range")
        return self.zones[zone_id]

    def open_zone_proc(self, avoid_groups=(), wait: bool = False):
        """Explicit open (NVMe ZNS 'open zone'): take a unit of the budget,
        then open the first EMPTY zone, by id, outside *avoid_groups*
        whose group has its chunks free; returns its id.  With no unit
        free: wait for one if *wait*, else None.  With no such zone:
        OutOfSpaceError if *wait*, else None."""
        budget = self.open_budget
        if not budget.try_acquire():
            if not wait:
                return None
            yield budget.request()
        for zone in self.zones:
            if zone.state is ZoneState.EMPTY \
                    and zone.group not in avoid_groups and self._open(zone):
                return zone.zone_id
        budget.release()
        if wait:
            raise OutOfSpaceError("no empty zones left")
        return None

    def _open(self, zone: Zone) -> bool:
        """Give EMPTY *zone* its chunks, round robin over its group's PUs,
        and make it OPEN; False if the group has too few free chunks."""
        chunks = self.pool.take_group(zone.group,
                                      self.config.chunks_per_zone)
        if chunks is None:
            return False
        zone.chunks, zone.state = chunks, ZoneState.OPEN
        return True

    def recover_proc(self, keep):
        """After a cut, with no writer alive: every zone outside the ids
        *keep* turns EMPTY, every kept zone still OPEN is finished (its
        write pointer in host memory may be ahead of what reached NAND),
        so the open budget starts afresh (dead writers may hold units of
        the old one or wait in its queue), and the pool queues every
        chunk no zone holds, the written ones erased first.

        The zone table lives in host memory only, as ZnsEnv's MANIFEST
        does: recovery runs on the ``OXZns`` that survived the cut, and a
        fresh one over a cut device sees every zone EMPTY (nothing is
        rebuilt from OOB; only LightLSM does that)."""
        self.open_budget = Resource(self.sim, self.config.max_open_zones)
        for zone in self.zones:
            if zone.zone_id not in keep:
                zone.reset()
            elif zone.state is ZoneState.OPEN:
                zone.finish()
                self.stats.zones_finished += 1
        yield from self.pool.rebuild_proc(
            {key for zone in self.zones for key in zone.chunks})

    def census(self):
        """The chunks by state (:meth:`ChunkPool.census`): in use are the
        ones a zone holds."""
        return self.pool.census(
            key for zone in self.zones for key in zone.chunks)

    # -- data path -----------------------------------------------------------------

    def append(self, zone_id: int, data: bytes) -> int:
        return self.sim.run_until(self.sim.spawn(
            self.append_proc(zone_id, data)))

    def append_proc(self, zone_id: int, data: bytes):
        """Zone append; returns the starting LBA of the written data.

        Data must be a whole number of sectors; the FTL pads internally to
        the device write unit, so the host never sees ``ws_min`` (that is
        the complexity ZNS hides, §2.3).
        """
        zone = self.zone(zone_id)
        sector_size = self.geometry.sector_size
        if not data or len(data) % sector_size:
            raise ZoneError(
                f"append of {len(data)} bytes is not sector-aligned")
        sectors = len(data) // sector_size
        zone.check_append(sectors)
        opened = zone.state is ZoneState.EMPTY
        if opened:
            if not self.open_budget.try_acquire():
                raise ZoneError(f"too many open zones "
                                f"(max {self.config.max_open_zones})")
            if not self._open(zone):
                self.open_budget.release()
                raise ZoneError(f"zone {zone_id}: group {zone.group} has "
                                f"fewer than {self.config.chunks_per_zone} "
                                f"free chunks")
        start_lba = zone.start_lba + zone.write_pointer

        obs = self.obs
        span = obs.begin("zns", "append") if obs is not None else None
        ws_min = self.geometry.ws_min
        # Zones fill chunk by chunk, each written sequentially; a zone's
        # chunks sit on distinct PUs, so large appends parallelize.
        per_chunk = self.geometry.sectors_per_chunk
        view = memoryview(data)
        offset = zone.write_pointer
        remaining = sectors
        procs = []
        while remaining > 0:
            chunk_index, in_chunk = divmod(offset, per_chunk)
            room = per_chunk - in_chunk
            count = min(remaining, room)
            # Pad the tail of the append to a whole write unit — sectors
            # past the end of the buffer; padding advances the physical
            # pointer but not the zone's.
            padded = count + ((-count) % ws_min) \
                if count == remaining else count
            padded = min(padded, room)
            ppas = PpaRun(zone.chunks[chunk_index], in_chunk, padded)
            sent = (sectors - remaining) * sector_size
            oob = [("zns", zone_id, offset + i if i < count else -1)
                   for i in range(padded)]
            procs.append(self.sim.spawn(
                self.media.write_proc(
                    ppas, view[sent:sent + count * sector_size], oob=oob,
                    parent=span)))
            offset += padded
            remaining -= count
        try:
            for completion in (yield self.sim.all_of(procs)):
                self.media.require_ok(completion, f"zone {zone_id} append")
        except ReproError:
            if opened:      # the zone goes back EMPTY, its chunks erased
                yield from self._reclaim_proc(zone)
            raise
        # Physical pointer may have advanced past the logical one due to
        # padding: account the padding into the zone as consumed capacity.
        zone.advance(offset - zone.write_pointer)
        if zone.state is ZoneState.FULL:
            self.open_budget.release()
        self.stats.appends += 1
        self.stats.sectors_appended += sectors
        if obs is not None:
            obs.close(span, "zns.append.latency_s", zone=zone_id,
                      sectors=sectors)
        return start_lba

    def read(self, lba: int, sectors: int = 1) -> bytes:
        return self.sim.run_until(self.sim.spawn(
            self.read_proc(lba, sectors)))

    def read_proc(self, lba: int, sectors: int = 1):
        zone_id, offset = divmod(lba, self.zone_capacity)
        zone = self.zone(zone_id)
        zone.check_read(offset, sectors)
        per_chunk = self.geometry.sectors_per_chunk
        ppas = []       # one run per chunk the read touches
        at, end = offset, offset + sectors
        while at < end:
            chunk_index, in_chunk = divmod(at, per_chunk)
            count = min(end - at, per_chunk - in_chunk)
            ppas.append(PpaRun(zone.chunks[chunk_index], in_chunk, count))
            at += count
        obs = self.obs
        span = obs.begin("zns", "read") if obs is not None else None
        completion = yield from self.media.read_proc(ppas, parent=span)
        self.media.require_ok(completion, f"zone {zone_id} read")
        self.stats.sectors_read += sectors
        if obs is not None:
            obs.close(span, "zns.read.latency_s", zone=zone_id,
                      sectors=sectors)
        return b"".join(completion.data)

    def reset_zone(self, zone_id: int) -> None:
        self.sim.run_until(self.sim.spawn(self.reset_zone_proc(zone_id)))

    def reset_zone_proc(self, zone_id: int):
        """Erase the zone's chunks and give them back to the pool; the zone
        turns EMPTY once they are erased, so no open takes it before.  A
        chunk whose erase fails is retired alone.  A zone nothing was
        appended to (EMPTY, or opened and never written) turns EMPTY at
        once: no flush, no erase, not counted."""
        zone = self.zone(zone_id)
        if not zone.write_pointer and zone.state is not ZoneState.FULL:
            for key in zone.chunks:
                self.pool.put(key)
            self._empty(zone)
            return
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.begin("zns", "reset")
        yield from self.media.flush_proc(zone.chunks)
        yield from self._reclaim_proc(zone, span)
        if obs is not None:
            obs.end(span, zone=zone_id)
        self.stats.zone_resets += 1

    def _reclaim_proc(self, zone: Zone, parent=None):
        """Erase the zone's chunks that hold anything, side by side (they
        sit on different PUs and nothing orders their erases), give its
        chunks back and make it EMPTY."""
        yield from self.pool.reclaim_proc(
            zone.chunks, self.media.dirty(zone.chunks), parent=parent)
        self._empty(zone)

    def _empty(self, zone: Zone) -> None:
        """EMPTY again, its chunks given back: an OPEN zone's unit too."""
        if zone.state is ZoneState.OPEN:
            self.open_budget.release()
        zone.reset()

    def finish_zone(self, zone_id: int) -> None:
        self.sim.run_until(self.sim.spawn(self.finish_zone_proc(zone_id)))

    def finish_zone_proc(self, zone_id: int):
        """Close a zone early: its unwritten tail becomes unusable until
        the next reset (NVMe ZNS 'finish').  Appended data still in the
        device cache is flushed first, so a finished zone is durable."""
        zone = self.zone(zone_id)
        if zone.state is ZoneState.FULL:
            return
        was_open = zone.state is ZoneState.OPEN
        yield from self.media.flush_proc(zone.chunks)
        zone.finish()
        if was_open:
            self.open_budget.release()
        self.stats.zones_finished += 1
