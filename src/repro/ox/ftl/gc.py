"""Group-local garbage collection (§4.3).

"For garbage collection, OX-Block marks a group for collection.  Then,
background threads recycle victim chunks within that group.  This
guarantees locality of interferences from garbage collection" — on a
16-channel SSD 93.7 % of the address space sees no GC interference, 87.5 %
on 8 channels.  The collector here does exactly that: victims are chosen
within the *marked group* only, relocation targets are allocated in the
same group (a dedicated "gc" provisioning stream), and all GC media
traffic therefore contends only with I/O to that one group.

Background work is as wide as the marked group: a *round* takes at most
one victim per parallel unit, so its copies and erases run side by side.
A victim's live sectors come from the FTL's reverse map (each sector's
owning lba, :class:`~repro.ox.ftl.mapping.PageMap`), not from reading the
chunk back: the device-internal copy of what is live is all the media
traffic a round makes before its erases.  A round is crash-safe by
ordering, as one victim would be: device-internal copy; then one commit
of all the map updates, only *buffered*: the victims leave the candidate
pool at once and are reset once a WAL flush the FTL makes has carried it
and a device flush after that one has made the copies durable
(:meth:`carry_proc`).  Validity is re-checked under the dispatch lock
after the copy, so a user overwrite racing the relocation can never be
undone.

Two more rules keep crashes survivable:

* A round only takes victims whose live data *fits*, summed, in the
  group's remaining GC space (checked up front) — GC runs because space is
  low, so an allocation failure halfway through a relocation would strand
  copies that were made but never committed.
* A victim sector whose mapping points elsewhere is only *dead* if that
  superseding copy is durable.  If the newer copy still sits in the write
  buffer or device cache, resetting the old chunk now and crashing would
  leave recovery with a committed mapping (from an earlier checkpoint)
  into erased flash.  Such victims are deferred, not collected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

from repro.errors import MediaError, OutOfSpaceError
from repro.ocssd.address import Ppa, PpaRun
from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable, FtlChunkInfo
from repro.ox.ftl.journal import Journal
from repro.ox.ftl.provisioning import Provisioner
from repro.ox.ftl.serial import NO_PPA, REC_MAP_UPDATE
from repro.ox.media import MediaManager

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
    """Recycles invalid space, one round in the marked group at a time.

    Every ``*_locked_proc`` generator must be driven while the caller holds
    the FTL dispatch lock: GC mutates the mapping table, chunk metadata and
    provisioner state.
    """

    def __init__(self, media: MediaManager, page_map: PageMap,
                 chunk_table: ChunkTable, provisioner: Provisioner,
                 journal: Journal, volatile_pending: Callable[[], bool],
                 stabilize_proc: Callable, absorb: Callable[[], None]):
        self.media = media
        self.sim = media.sim
        # Observability (repro.obs): inherited from the simulator; None
        # unless a hub was attached before the FTL stack was built.
        self.obs = media.sim.obs
        # QoS (repro.qos): inherited the same way; when present, GC yields
        # to backlogged foreground reads before starting each round.
        self.qos = media.sim.qos
        self.geometry = media.geometry
        self.page_map = page_map
        self.chunk_table = chunk_table
        self.provisioner = provisioner
        # Relocation commits consume WAL space but never truncate it; the
        # journal's pressure valve (the FTL's checkpoint) is safe between
        # rounds: no transaction is mid-stage while GC holds the lock.
        self.journal = journal
        # An acked transaction with sectors still staged in the FTL write
        # buffer can be dropped whole by recovery, rolling its lbas back
        # to mappings a reset would erase.  The FTL reports that state and
        # offers the barrier that clears it (pad the unit, drain).
        self.volatile_pending = volatile_pending
        self.stabilize_proc = stabilize_proc
        self.absorb = absorb
        self.marked_group = 0
        self.stats = GcStats()
        #: Relocated victims whose commit is still buffered, by key.
        self.pending: Dict[ChunkKey, FtlChunkInfo] = {}
        #: Where the copies of the rounds not yet carried went, durable
        #: once the carry's device flush returns (the crash checker asks).
        self.copies: List[PpaRun] = []

    # -- victim selection ----------------------------------------------------------

    def victims(self, group: int) -> List[FtlChunkInfo]:
        """The group's GC candidates, greedily: fewest valid sectors
        first, ties on the chunk's fixed linear index."""
        return sorted((info for info in self.chunk_table.gc_candidates(group)
                       if info.key not in self.pending),
                      key=lambda info: (info.valid_count, info.linear))

    def free_chunks(self) -> int:
        """Free chunks as the watermarks count them: pending ones too."""
        return self.provisioner.free_chunks() + len(self.pending)

    # -- collection ---------------------------------------------------------------------

    def collect_round_locked_proc(self, limit: int):
        """Collect one round of at most *limit* victims in the marked
        group; returns the number of chunks reclaimed.  A group with
        nothing collectable right now — no relocation space, or only
        unsafe victims — passes the mark on, so a collector running
        *because* space is low degrades to a no-op instead of raising —
        after one more pass, if pending victims can be reset first."""
        groups = self.geometry.num_groups
        for attempt in range(2 * groups if self.pending else groups):
            if attempt == groups:
                yield from self.carry_proc()
            done = yield from self._round_proc(self.marked_group, limit)
            if done:
                return done
            self.marked_group = (self.marked_group + 1) % groups
            self.stats.group_rotations += 1
        return 0

    def collect_group_locked_proc(self, group: int, max_victims: int = 0):
        """Rounds over *group* only — no rotation.  Used when the caller
        wants the paper's group-confined interference window (the
        GC-locality experiment).  Returns the number of chunks recycled."""
        recycled = 0
        while not max_victims or recycled < max_victims:
            done = yield from self._round_proc(
                group, max_victims - recycled if max_victims
                else self.geometry.pus_per_group)
            if not done:
                break
            recycled += done
        return recycled

    def collect_until_locked_proc(self, target_free: int):
        """Collect until the free pool reaches *target_free* chunks (or no
        victims remain), a round never taking more victims than the pool
        is short of; returns the number of chunks recycled."""
        recycled = 0
        stalled = 0
        while self.free_chunks() < target_free:
            before = self.free_chunks()
            done = yield from self.collect_round_locked_proc(
                target_free - before)
            if not done:
                break
            recycled += done
            # Recycling is not always a net gain: relocating nearly-live
            # chunks can consume a fresh gc chunk for every chunk freed.
            # Two zero-gain rounds in a row: the pool cannot be grown now —
            # stop churning (and burning erase cycles) under the lock.
            if self.free_chunks() > before:
                stalled = 0
            else:
                stalled += 1
                if stalled > 1:
                    break
        return recycled

    def _round_proc(self, group: int, limit: int):
        """One round over *group*: its candidates fewest-valid first,
        at most one per parallel unit and *limit* in all, while their
        live data — worst case every live sector relocated, each victim
        padded to whole write units — still fits the group's GC space."""
        ws_min = self.geometry.ws_min
        budget = self.provisioner.units_available("gc", group=group)
        victims: List[FtlChunkInfo] = []
        busy_pus: Set[int] = set()      # membership only, never iterated
        for victim in self.victims(group):
            if victim.key[1] in busy_pus:
                continue
            budget -= -(-victim.valid_count // ws_min)
            if budget < 0:
                # Least-live first: what follows fits no better.
                if not victims:
                    self.stats.skips_no_space += 1
                break
            victims.append(victim)
            busy_pus.add(victim.key[1])
            if len(victims) == limit:
                break
        return (yield from self._recycle_proc(victims)) if victims else 0

    def _recycle_proc(self, victims: List[FtlChunkInfo]):
        """Relocate the victims' live data, as one batch: one durability
        barrier if any victim asks for it, one vector copy, the commit
        buffered.  Returns the number of victims reclaimed — pending their
        carry; deferred and aborted ones stay as they are.
        """
        if self.qos is not None:
            # Background work yields while foreground reads are queued
            # (bounded, so GC always makes progress eventually).
            yield from self.qos.background_gate_proc()
        obs = self.obs
        # A root span: GC is background work, under no host command.
        span = obs.begin("ftl.gc", "collect") if obs is not None else None
        jobs = self._scan(victims)      # (victim, live sectors, unsafe)
        if self.volatile_pending() or any(job[2] for job in jobs):
            # A device flush handles cache-resident superseding copies;
            # the FTL barrier handles an acked txn's staged tail.
            yield from self.media.flush_proc()
            if self.volatile_pending():
                try:
                    yield from self.stabilize_proc()
                except OutOfSpaceError:
                    pass    # no room even for the pad: nothing is safe
            # The barrier may have padded a staged partial unit into a
            # victim and advanced its write pointer: scan again up to
            # where it is now, or the reset destroys the only copy of the
            # freshly landed sectors.
            jobs = [] if self.volatile_pending() else [
                job for job in self._scan(victims) if not job[2]]
            self.stats.deferrals_unsafe += len(victims) - len(jobs)
        moves = [(victim.key, live) for victim, live, __ in jobs if live]
        aborted = yield from self._relocate_round_proc(moves, span)
        jobs = [job for job in jobs if job[0].key not in aborted]
        # The victims hold dead data once a WAL flush carries the commit.
        for victim, *__ in jobs:
            victim.valid_count = 0
            self.pending[victim.key] = victim
        if jobs:
            yield from self.journal.relieve_proc(span)
        if obs is not None:
            obs.close(span, "ftl.gc.collect_s", victims=len(jobs),
                      relocated=sum(len(live) for __, live in moves))
        return len(jobs)

    def _scan(self, victims: List[FtlChunkInfo]) -> list:
        """Each victim with its ``(live, unsafe)`` appended, up to its
        chunk's write pointer as it is now."""
        return [(victim, *self._find_live_sectors(
            victim.key, self.media.chunk_info(
                Ppa(*victim.key, 0)).write_pointer)) for victim in victims]

    def carry_proc(self, span=None):
        """Flush the WAL and with it every GC commit and chunk retirement
        buffered; then the device cache, so the copies they name are
        durable; then erase the pending victims through the pool, freeing
        each (the absorb retires one whose erase failed); once the power
        has gone since the carry began, issue and free nothing."""
        controller = self.media.device.controller
        epoch = controller.epoch
        self.absorb()
        yield from self.journal.wal.flush_proc(parent=span)
        if not self.pending:
            return
        carried, self.pending = self.pending, {}
        obs = self.obs
        phase = obs.begin("ftl.gc", "flush", span) if obs is not None else None
        yield from self.media.flush_proc()
        if obs is not None:
            obs.end(phase)
            phase = obs.begin("ftl.gc", "reset", span)
        if controller.epoch == epoch:
            failed = yield from self.provisioner.pool.reclaim_proc(
                list(carried), parent=phase)
        if controller.epoch != epoch:
            raise MediaError(f"power lost around the GC reset of "
                             f"{list(carried)}")
        per_chunk = self.geometry.sectors_per_chunk
        for key, victim in carried.items():
            if key not in failed:
                self.page_map.disown(victim.linear * per_chunk, per_chunk)
                self.provisioner.release_chunk(key)
        self.stats.resets += len(carried)
        self.stats.reset_failures += len(failed)
        self.stats.chunks_recycled += len(carried) - len(failed)
        self.absorb()       # retires the victims whose erase failed
        self.copies = []
        if obs is not None:
            obs.end(phase)

    def _find_live_sectors(self, key: ChunkKey, write_pointer: int):
        """The victim's sectors the mapping table still points at, each
        one's lba taken from the reverse map (what its OOB names).

        Returns ``(live, unsafe)``: *live* is the ``(sector, lba)`` list to
        relocate; *unsafe* counts sectors that look dead only because of a
        superseding copy that is **not yet durable** — destroying the old
        copy while the new one is still volatile would strand a committed
        mapping if power failed.
        """
        live: List[Tuple[int, int]] = []   # (sector, lba)
        unsafe = 0
        # In linear addresses: a sector is live iff the map still points at
        # base + sector; any other mapping is a superseding copy, durable iff
        # below its chunk's flushed pointer (read once per chunk per scan).
        per_chunk = self.geometry.sectors_per_chunk
        base = self.chunk_table.get(key).linear * per_chunk
        lookup = self.page_map.lookup
        flushed: Dict[int, int] = {}
        for sector, lba in enumerate(self.page_map.owners(base,
                                                          write_pointer)):
            if lba < 0:
                continue    # a pad, or dead at the last recovery
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

    def _relocate_round_proc(self, moves: List[Tuple[ChunkKey, list]],
                             parent=None):
        """Copy each victim's *live* list (its scan's: non-empty,
        ascending) out of it — one vector copy, every run of it side by
        side — and buffer one commit of all the moves, the copies maybe
        still cached.  Returns the keys of the victims it had to leave:
        allocation ran dry on them."""
        ws_min = self.geometry.ws_min
        per_chunk = self.geometry.sectors_per_chunk
        table = self.chunk_table
        plans = []      # (victim key, live, [(unit chunk, first linear)])
        src: List[PpaRun] = []
        dst: List[PpaRun] = []
        lbas: List[int] = []
        dead: List[PpaRun] = []     # units taken for a victim then left
        aborted: List[ChunkKey] = []
        for key, live in moves:
            # One destination run per allocated unit.
            units: List[Tuple[ChunkKey, int]] = []
            runs: List[PpaRun] = []
            try:
                for __ in range(0, len(live), ws_min):
                    unit_key, first = self.provisioner.allocate_unit(
                        "gc", group=key[0])
                    units.append(
                        (unit_key,
                         table.get(unit_key).linear * per_chunk + first))
                    runs.append(PpaRun(unit_key, first, ws_min))
            except OutOfSpaceError:
                # The round was sized to fit, so accounting drifted.  The
                # units already taken are padded out as dead sectors so
                # cursors and write pointers stay aligned; the victim stays.
                self.stats.skips_no_space += 1
                aborted.append(key)
                dead += runs
                continue
            plans.append((key, live, units))
            dst += runs
            owned = [lba for __, lba in live]
            for index, (__, unit_base) in enumerate(units):
                self.page_map.own(
                    unit_base, owned[index * ws_min:(index + 1) * ws_min])
            # Source runs: consecutive live sectors travel together.
            sectors = [sector for sector, __ in live]
            start = sectors[0]
            for previous, sector in zip(sectors, sectors[1:] + [None]):
                if sector != previous + 1:
                    src.append(PpaRun(key, start, previous - start + 1))
                    start = sector
            # Pad to whole write units by recopying an arbitrary sector
            # (each pad its own one-sector read); a pad's destination OOB
            # is NO_PPA and it has no owner, so a later GC scan there
            # sees it as unowned.
            pad = (-len(live)) % ws_min
            src += [PpaRun(key, sectors[-1], 1)] * pad
            lbas += owned + [NO_PPA] * pad
        if dead:
            self.media.require_ok((yield from self.media.write_proc(
                dead, b"", oob=[NO_PPA] * len(dead) * ws_min,
                parent=parent)), "GC relocation abort pad")
        if not plans:
            return aborted
        obs = self.obs
        phase = (obs.begin("ftl.gc", "copy", parent)
                 if obs is not None else None)
        self.media.require_ok((yield from self.media.copy_proc(
            src, dst, dst_oob=lbas, parent=phase)), "GC relocation copy")
        self.copies += dst
        if obs is not None:
            obs.end(phase)

        # Re-validate under the (held) dispatch lock and commit the moves,
        # the chunk table once per destination unit.
        txn = self.journal.take_txn_id()
        entries: List[Tuple[int, int, int]] = []
        lookup = self.page_map.lookup
        update = self.page_map.update
        for key, live, units in plans:
            base = table.get(key).linear * per_chunk
            left = len(entries)
            for index, (unit_key, unit_base) in enumerate(units):
                before = len(entries)
                start = index * ws_min
                for new_linear, (sector, lba) in enumerate(
                        live[start:start + ws_min], unit_base):
                    old_linear = base + sector
                    if lookup(lba) != old_linear:
                        continue   # overwritten while we copied: garbage
                    update(lba, new_linear)
                    entries.append((lba, new_linear, old_linear))
                moved = len(entries) - before
                if moved:
                    table.add_valid(unit_key, moved)
            if len(entries) > left:
                table.invalidate(key, len(entries) - left)
        self.stats.sectors_relocated += len(entries)
        # Copies and commit must both be durable before a reset, nothing
        # sooner: the carry flushes the WAL, then the device cache.
        if entries:
            self.journal.log_txn(REC_MAP_UPDATE, txn, entries)
        return aborted
