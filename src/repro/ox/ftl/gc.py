"""Group-local garbage collection (§4.3).

"For garbage collection, OX-Block marks a group for collection.  Then,
background threads recycle victim chunks within that group.  This
guarantees locality of interferences from garbage collection" — on a
16-channel SSD 93.7 % of the address space sees no GC interference, 87.5 %
on 8 channels.  The collector here does exactly that: victims are chosen
within the *marked group* only, relocation targets are allocated in the
same group (a dedicated "gc" provisioning stream), and all GC media
traffic therefore contends only with I/O to that one group.

Relocation is crash-safe by ordering: device-internal copy, device flush
(copies durable), WAL commit of the map updates, only then the victim
reset.  Validity is re-checked under the dispatch lock after the copy, so
a user overwrite racing the relocation can never be undone.

Two more rules keep crashes survivable:

* A victim is only collected if its live data *fits* in the group's
  remaining GC space (checked up front) — GC runs because space is low,
  so an allocation failure halfway through a relocation would strand
  copies that were made but never committed.
* A victim sector whose mapping points elsewhere is only *dead* if that
  superseding copy is durable.  If the newer copy still sits in the write
  buffer or device cache, resetting the old chunk now and crashing would
  leave recovery with a committed mapping (from an earlier checkpoint)
  into erased flash.  Such victims are deferred, not collected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.errors import OutOfSpaceError
from repro.ocssd.address import Ppa, PpaRun
from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable, FtlChunkInfo, FtlChunkState
from repro.ox.ftl.provisioning import Provisioner
from repro.ox.ftl.serial import NO_PPA
from repro.ox.ftl.wal import WalAppender
from repro.ox.media import MediaManager
from repro.policies.victim import VictimPolicy

ChunkKey = Tuple[int, int, int]


@dataclass
class GcStats:
    chunks_recycled: int = 0
    sectors_relocated: int = 0
    resets: int = 0
    reset_failures: int = 0
    group_rotations: int = 0
    #: Victims skipped because the group lacked relocation space.
    skips_no_space: int = 0
    #: Victims deferred because a superseding copy was not yet durable.
    deferrals_unsafe: int = 0


class GarbageCollector:
    """Recycles invalid space, one marked group at a time.

    Every ``*_locked_proc`` generator must be driven while the caller holds
    the FTL dispatch lock: GC mutates the mapping table, chunk metadata and
    provisioner state.
    """

    def __init__(self, media: MediaManager, page_map: PageMap,
                 chunk_table: ChunkTable, provisioner: Provisioner,
                 wal: WalAppender, next_txn_id: Callable[[], int],
                 volatile_pending: Callable[[], bool],
                 stabilize_proc: Callable, wal_relief_proc: Callable,
                 victim_policy: VictimPolicy,
                 host_sectors_written: Callable[[], int]):
        self.media = media
        self.sim = media.sim
        # Observability (repro.obs): inherited from the simulator; None
        # unless a hub was attached before the FTL stack was built.
        self.obs = media.sim.obs
        # QoS (repro.qos): inherited the same way; when present, GC yields
        # to backlogged foreground reads before starting each victim.
        self.qos = media.sim.qos
        self.geometry = media.geometry
        self.page_map = page_map
        self.chunk_table = chunk_table
        self.provisioner = provisioner
        self.wal = wal
        self.next_txn_id = next_txn_id
        # An acked transaction with sectors still staged in the FTL write
        # buffer can be dropped whole by recovery, rolling its lbas back
        # to mappings a reset would erase.  The FTL reports that state
        # (volatile_pending) and offers a barrier that clears it
        # (stabilize_proc: pad the partial unit, drain the device).
        self.volatile_pending = volatile_pending
        self.stabilize_proc = stabilize_proc
        # Relocation commits consume WAL space but never truncate it; a
        # long collection run could exhaust the ring for everyone.  The
        # FTL provides a between-victims pressure valve (checkpoint) that
        # is safe to run exactly here: no transaction is mid-stage while
        # GC holds the dispatch lock.
        self.wal_relief_proc = wal_relief_proc
        self.marked_group = 0
        self.stats = GcStats()
        # Victim selection is a policy (repro.policies).
        self.victim_policy = victim_policy
        # Host write accounting for the WAF gauge ((host + relocated) /
        # host).
        self.host_sectors_written = host_sectors_written

    # -- victim selection ----------------------------------------------------------

    def victims(self, group: int) -> List[FtlChunkInfo]:
        """The group's GC candidates, in the victim policy's order."""
        return self.victim_policy.select(
            self.chunk_table.gc_candidates(group), self.chunk_table)

    # -- accounting (GcStats mirrored into the obs registry) ---------------------

    def _count_skip_no_space(self) -> None:
        self.stats.skips_no_space += 1
        if self.obs is not None:
            self.obs.metrics.counter("ftl.gc.skips_no_space").increment()

    def _count_deferral_unsafe(self) -> None:
        self.stats.deferrals_unsafe += 1
        if self.obs is not None:
            self.obs.metrics.counter("ftl.gc.deferrals_unsafe").increment()

    def _update_waf_gauge(self) -> None:
        """Refresh ``ftl.gc.waf``: (host + relocated) / host sectors."""
        if self.obs is None:
            return
        host = self.host_sectors_written()
        if host:
            self.obs.metrics.gauge("ftl.gc.waf").set(
                (host + self.stats.sectors_relocated) / host)

    def _fits(self, victim: FtlChunkInfo) -> bool:
        """Would the victim's live data fit in its group's GC space?

        Victims are scanned least-live first, so when the smallest one
        does not fit, nothing in the group does.  Worst case: every live
        sector needs relocating, plus padding to a whole write unit.
        """
        if not victim.valid_count:
            return True
        needed = -(-victim.valid_count // self.geometry.ws_min)
        return self.provisioner.units_available(
            "gc", group=victim.key[0]) >= needed

    # -- collection ---------------------------------------------------------------------

    def collect_once_locked_proc(self):
        """Collect one victim; returns True if a chunk was reclaimed.

        Victims that cannot be collected right now — no relocation space
        in their group, or live data superseded only by not-yet-durable
        copies — are skipped and the next candidate (or group) is tried,
        so a collector running *because* space is low degrades to a no-op
        instead of raising out of the daemon.
        """
        for __ in range(self.geometry.num_groups):
            for victim in self.victims(self.marked_group):
                if not self._fits(victim):
                    self._count_skip_no_space()
                    break
                done = yield from self._relocate_and_reset_proc(victim)
                if done:
                    return True
            self.marked_group = (self.marked_group + 1) \
                % self.geometry.num_groups
            self.stats.group_rotations += 1
        return False

    def collect_group_locked_proc(self, group: int,
                                  max_victims: int = 0):
        """Collect victims of *group* only — no rotation.  Used when the
        caller wants the paper's group-confined interference window (the
        GC-locality experiment).  Returns the number of chunks recycled.
        """
        recycled = 0
        while not max_victims or recycled < max_victims:
            progressed = False
            for victim in self.victims(group):
                if not self._fits(victim):
                    self._count_skip_no_space()
                    break
                done = yield from self._relocate_and_reset_proc(victim)
                if done:
                    progressed = True
                    recycled += 1
                    break
            if not progressed:
                break
        return recycled

    def collect_until_locked_proc(self, target_free: int):
        """Collect until the free pool reaches *target_free* chunks (or no
        victims remain); returns the number of chunks recycled."""
        recycled = 0
        stalled = 0
        while self.provisioner.free_chunks() < target_free:
            before = self.provisioner.free_chunks()
            progressed = yield from self.collect_once_locked_proc()
            if not progressed:
                break
            recycled += 1
            # Recycling a victim is not always a net gain: relocating a
            # nearly-live chunk can consume a fresh gc chunk for every
            # chunk it frees.  Two zero-gain rounds in a row means the
            # pool cannot be grown right now — stop instead of churning
            # (and burning erase cycles) under the lock forever.
            if self.provisioner.free_chunks() > before:
                stalled = 0
            else:
                stalled += 1
                if stalled > 1:
                    break
        return recycled

    def _relocate_and_reset_proc(self, victim: FtlChunkInfo):
        """Relocate the victim's live data and reset it.

        Returns True when the victim was reclaimed (recycled or retired),
        False when collection was deferred or aborted.
        """
        if self.qos is not None:
            # Background work yields while foreground reads are queued
            # (bounded, so GC always makes progress eventually).
            yield from self.qos.background_gate_proc()
        key = victim.key
        base = Ppa(*key, 0)
        obs = self.obs
        span = None
        if obs is not None:
            # One root span per victim: GC runs are background work, not
            # nested under any foreground command.
            span = obs.begin("ftl.gc", "collect")
            collect_started = self.sim.now
        info = self.media.chunk_info(base)
        live, unsafe = yield from self._find_live_sectors_proc(
            key, info.write_pointer, parent=span)
        if unsafe or self.volatile_pending():
            # Unsafe sector: superseded only by a not-yet-durable copy.
            # Volatile pending: an acked txn still has staged sectors, so
            # recovery could drop it whole and fall back to mappings into
            # this victim.  A device flush handles cache-resident data;
            # the FTL barrier (pad + drain) handles the staged tail.
            yield from self.media.flush_proc()
            if self.volatile_pending():
                try:
                    yield from self.stabilize_proc()
                except OutOfSpaceError:
                    # Padding the partial unit needs an allocation; when
                    # even that fails, the victim cannot be made safe.
                    self._count_deferral_unsafe()
                    if obs is not None:
                        obs.end(span, outcome="deferred")
                    return False
            # The barrier may have padded a staged partial unit into this
            # very victim (its volatile tail is what made it unsafe),
            # advancing the write pointer — re-read it, or the re-scan
            # misses the freshly landed sectors and the reset destroys
            # their only copy.
            info = self.media.chunk_info(base)
            live, unsafe = yield from self._find_live_sectors_proc(
                key, info.write_pointer, parent=span)
            if unsafe or self.volatile_pending():
                self._count_deferral_unsafe()
                if obs is not None:
                    obs.end(span, outcome="deferred")
                return False
        if live:
            moved = yield from self._relocate_proc(key, live, parent=span)
            if not moved:
                if obs is not None:
                    obs.end(span, outcome="aborted")
                return False
        # Copies (if any) are durable and remapped; the victim holds only
        # dead data now.
        victim.valid_count = 0
        completion = yield from self.media.reset_proc(base, parent=span)
        self.stats.resets += 1
        if completion.ok:
            self.provisioner.release_chunk(key)
            self.stats.chunks_recycled += 1
        else:
            self.provisioner.retire_chunk(key)
            self.stats.reset_failures += 1
            if obs is not None:
                obs.error("ftl.gc", "reset-failed",
                          completion.error or str(base))
        yield from self.wal_relief_proc()
        if obs is not None:
            obs.end(span, outcome="recycled" if completion.ok else "retired",
                    relocated=len(live))
            obs.metrics.counter("ftl.gc.chunks_recycled").increment()
            obs.metrics.histogram("ftl.gc.collect_s").record(
                self.sim.now - collect_started)
        self._update_waf_gauge()
        return True

    def _find_live_sectors_proc(self, key: ChunkKey, write_pointer: int,
                                parent=None):
        """Read the victim's OOB to learn owning LBAs, keep the sectors the
        mapping table still points at.  The read is real device traffic —
        this is the GC interference the locality experiment measures.

        Returns ``(live, unsafe)``: *live* is the ``(sector, lba)`` list to
        relocate; *unsafe* counts sectors that look dead only because of a
        superseding copy that is **not yet durable** — destroying the old
        copy while the new one is still volatile would strand a committed
        mapping if power failed.
        """
        if write_pointer == 0:
            return [], 0
        # Metadata only: the scan wants the owning LBAs, not the payloads.
        completion = yield from self.media.read_proc(
            PpaRun(key, 0, write_pointer), parent=parent, meta_only=True)
        self.media.require_ok(completion, "GC victim scan")
        live: List[Tuple[int, int]] = []   # (sector, lba)
        unsafe = 0
        # In linear addresses: a sector is live iff the map still points at
        # base + sector; any other mapping is a superseding copy, durable iff
        # below its chunk's flushed pointer (read once per chunk per scan).
        per_chunk = self.geometry.sectors_per_chunk
        base = self.chunk_table.get(key).linear * per_chunk
        lookup = self.page_map.lookup
        flushed: Dict[int, int] = {}
        for sector, lba in enumerate(completion.oob):
            if not isinstance(lba, int) or lba == NO_PPA:
                continue
            current = lookup(lba)
            if current is None:
                # Trimmed.  Trims are WAL-committed (FUA) before they are
                # acknowledged, so the old copy is safely dead.
                continue
            if current - base == sector:
                live.append((sector, lba))
                continue
            chunk_linear, at = divmod(current, per_chunk)
            pointer = flushed.get(chunk_linear)
            if pointer is None:
                pointer = flushed[chunk_linear] = self.media.chunk_info(
                    self.geometry.delinearize(current)).flushed_pointer
            if at >= pointer:
                unsafe += 1
        return live, unsafe

    def _relocate_proc(self, key: ChunkKey, live: List[Tuple[int, int]],
                       parent=None):
        """Copy *live* (the scan's list: non-empty, ascending) out of the
        victim and commit the moves; returns True on success, False when
        allocation ran dry mid-relocation."""
        ws_min = self.geometry.ws_min
        per_chunk = self.geometry.sectors_per_chunk
        table = self.chunk_table
        base = table.get(key).linear * per_chunk
        # Source runs: consecutive live sectors travel together.
        sectors = [sector for sector, __ in live]
        src: List[PpaRun] = []
        start = sectors[0]
        for previous, sector in zip(sectors, sectors[1:] + [None]):
            if sector != previous + 1:
                src.append(PpaRun(key, start, previous - start + 1))
                start = sector
        # Pad the relocation to whole write units by recopying an arbitrary
        # sector (each pad its own one-sector read); pads carry NO_PPA in
        # their destination OOB so a later GC scan of the destination chunk
        # sees them as unowned.
        pad = (-len(live)) % ws_min
        src += [PpaRun(key, sectors[-1], 1)] * pad
        lbas = [lba for __, lba in live] + [NO_PPA] * pad
        # One destination run per allocated unit.
        dst: List[PpaRun] = []
        units: List[Tuple[ChunkKey, int]] = []   # (chunk, first linear)
        try:
            for __ in range(0, len(lbas), ws_min):
                unit_key, first = self.provisioner.allocate_unit(
                    "gc", group=key[0])
                units.append((unit_key,
                              table.get(unit_key).linear * per_chunk + first))
                dst.append(PpaRun(unit_key, first, ws_min))
        except OutOfSpaceError:
            # _fits() said this would fit, so accounting drifted; don't
            # raise out of the collector.  Pad out the units already taken
            # as dead sectors so provisioner cursors and device write
            # pointers stay aligned, then skip the victim.
            if dst:
                taken = len(dst) * ws_min
                completion = yield from self.media.write_proc(
                    dst, b"", oob=[NO_PPA] * taken, parent=parent)
                self.media.require_ok(completion, "GC relocation abort pad")
            self._count_skip_no_space()
            return False
        completion = yield from self.media.copy_proc(src, dst, dst_oob=lbas,
                                                     parent=parent)
        self.media.require_ok(completion, "GC relocation copy")
        yield from self.media.flush_proc()

        # Re-validate under the (held) dispatch lock and commit the moves,
        # the chunk table once per destination unit — with one clock tick
        # per moved sector: age-aware victim policies order by those ticks.
        txn = self.next_txn_id()
        entries: List[Tuple[int, int, int]] = []
        lookup = self.page_map.lookup
        update = self.page_map.update
        for index, (unit_key, unit_base) in enumerate(units):
            before = len(entries)
            start = index * ws_min
            for new_linear, (sector, lba) in enumerate(
                    live[start:start + ws_min], unit_base):
                old_linear = base + sector
                if lookup(lba) != old_linear:
                    continue   # overwritten while we copied; copy is garbage
                update(lba, new_linear)
                entries.append((lba, new_linear, old_linear))
            moved = len(entries) - before
            if moved:
                table.add_valid(unit_key, moved, ticks=moved)
        self.stats.sectors_relocated += len(entries)
        if self.obs is not None and entries:
            self.obs.metrics.counter(
                "ftl.gc.sectors_relocated").increment(len(entries))
        if entries:
            table.invalidate(key, len(entries))
            self.wal.append_map_update(txn, entries)
            self.wal.append_commit(txn)
            yield from self.wal.flush_proc(parent=parent)
        return True
