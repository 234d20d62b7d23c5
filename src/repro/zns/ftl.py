"""OX-ZNS: the ZNS application-specific FTL.

Zones are fixed-size append regions; each zone is backed by a set of
whole chunks striped across the parallel units of one group (zones rotate
groups, so concurrently-open zones exercise disjoint channels — the
device-side placement freedom ZNS gives the FTL).  The host API is the
NVMe ZNS shape:

* ``report_zones()`` — zone descriptors;
* ``open_zone_proc(avoid_groups, wait)`` — explicit open of the first
  EMPTY zone outside some groups, within ``max_open_zones``;
* ``append(zone_id, data)`` — sequential write at the zone's pointer,
  returns the LBA the data landed on;
* ``read(lba, sectors)``;
* ``reset_zone(zone_id)`` — chunk erases;
* ``finish_zone(zone_id)`` — pad and close.

The FTL owns wear: resets route through the chunks, and a zone whose
chunk goes offline is retired with its notification surfaced.  Zone
state is the one record of free (EMPTY) and open zones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import OutOfSpaceError, ReproError, ZoneError
from repro.ocssd.address import PpaRun
from repro.ox.media import MediaManager
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
    zones_retired: int = 0


class OXZns:
    """A ZNS namespace over one Open-Channel SSD."""

    def __init__(self, media: MediaManager,
                 config: Optional[ZnsConfig] = None,
                 tenant=None):
        if tenant is not None:
            media = media.for_tenant(tenant)
        self.media = media
        self.sim = media.sim
        self.geometry = media.geometry
        self.config = config or ZnsConfig()
        per_zone = self.config.chunks_per_zone
        if per_zone < 1 or per_zone > self.geometry.pus_per_group \
                * self.geometry.chunks_per_pu:
            raise ZoneError(f"chunks_per_zone={per_zone} does not fit a group")
        self.zone_capacity = per_zone * self.geometry.sectors_per_chunk
        self.zones: List[Zone] = []
        #: One unit per OPEN zone, within ``max_open_zones``.
        self.open_budget = Resource(self.sim, self.config.max_open_zones)
        self.stats = ZnsStats()
        # Observability (repro.obs): inherited from the simulator; None
        # unless a hub was attached before this FTL was built.
        self.obs = media.sim.obs
        self._build_zones()

    @property
    def tenant(self):
        """The :class:`~repro.qos.TenantContext` this namespace's I/O is
        tagged with (from its media manager); None when untagged."""
        return self.media.tenant

    def _build_zones(self) -> None:
        """Carve the whole device into zones; each zone's chunks stripe
        across the PUs of one group, and zone *i* sits in group
        ``i % num_groups`` so ids taken in order rotate channels."""
        per_zone = self.config.chunks_per_zone
        geometry = self.geometry
        pool = [(pu, chunk) for chunk in range(geometry.chunks_per_pu)
                for pu in range(geometry.pus_per_group)]
        for start in range(0, len(pool) - per_zone + 1, per_zone):
            for group in range(geometry.num_groups):
                chunks = [(group, pu, chunk)
                          for pu, chunk in pool[start:start + per_zone]]
                self.zones.append(Zone(zone_id=len(self.zones),
                                       capacity=self.zone_capacity,
                                       chunks=chunks))

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
        then open the first EMPTY zone, by id, outside *avoid_groups*;
        returns its id.  With no unit free: wait for one if *wait*, else
        None.  With no such zone: OutOfSpaceError if *wait*, else None."""
        budget = self.open_budget
        if not budget.try_acquire():
            if not wait:
                return None
            yield budget.request()
        for zone in self.zones:
            if zone.state is ZoneState.EMPTY \
                    and zone.group not in avoid_groups:
                zone.state = ZoneState.OPEN
                return zone.zone_id
        budget.release()
        if wait:
            raise OutOfSpaceError("no empty zones left")
        return None

    def rebuild_open_budget(self) -> None:
        """After a cut: a fresh budget, one unit per OPEN zone (dead
        writers may hold units of the old one or wait in its queue)."""
        self.open_budget = Resource(self.sim, self.config.max_open_zones)
        for zone in self.zones:
            if zone.state is ZoneState.OPEN:
                self.open_budget.try_acquire()

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
        if opened and not self.open_budget.try_acquire():
            raise ZoneError(
                f"too many open zones (max {self.config.max_open_zones})")
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
            if opened:      # the zone is still EMPTY: its unit goes back
                self.open_budget.release()
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
        """Erase the zone's chunks; it turns EMPTY once they are erased,
        so no open takes it before.  A zone nothing was appended to
        (EMPTY, or opened and never written) turns EMPTY at once: no
        flush, no erase, not counted."""
        zone = self.zone(zone_id)
        was_open = zone.state is ZoneState.OPEN
        if zone.state is ZoneState.OFFLINE or (
                not zone.write_pointer and zone.state is not ZoneState.FULL):
            zone.reset()    # raises for an offline zone
            if was_open:
                self.open_budget.release()
            return
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.begin("zns", "reset")
        yield from self.media.flush_proc(zone.chunks)
        # A zone's chunks sit on different PUs and nothing orders their
        # erases: issue them together.
        completions = yield from self.media.reset_dirty_proc(
            zone.chunks, "zns-reset", parent=span)
        failed = not all(completion.ok for completion in completions)
        zone.reset()
        if was_open:
            self.open_budget.release()
        if obs is not None:
            obs.end(span, zone=zone_id, failed=failed)
        if failed:
            zone.retire()
            self.stats.zones_retired += 1
            if obs is not None:
                obs.error("zns", "zone-retired", f"zone {zone_id}")
            raise ZoneError(f"zone {zone_id} retired: chunk reset failed")
        self.stats.zone_resets += 1

    def finish_zone(self, zone_id: int) -> None:
        self.sim.run_until(self.sim.spawn(self.finish_zone_proc(zone_id)))

    def finish_zone_proc(self, zone_id: int):
        """Close a zone early: its unwritten tail becomes unusable until
        the next reset (NVMe ZNS 'finish').  Appended data still in the
        device cache is flushed first, so a finished zone is durable."""
        zone = self.zone(zone_id)
        if zone.state is ZoneState.FULL:
            return
        if zone.state is ZoneState.OFFLINE:
            raise ZoneError(f"finish of offline zone {zone_id}")
        was_open = zone.state is ZoneState.OPEN
        yield from self.media.flush_proc(zone.chunks)
        zone.finish()
        if was_open:
            self.open_budget.release()
        self.stats.zones_finished += 1
