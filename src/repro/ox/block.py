"""OX-Block: the generic FTL exposing the Open-Channel SSD as a block device.

"OX-Block exposes Open-Channel SSDs as block devices.  We assume 4 KB as
the minimum read granularity ... OX-Block maintains a 4KB-granularity
page-level mapping table" (§4.2).  Every operation of the API is a
transaction (§4.3): write-ahead logging makes multi-sector writes atomic,
checkpoints bound recovery time, and group-local GC keeps interference
confined.  A write of whole units, with nothing else buffered, goes FUA
and commits in its units' OOB stamps (:mod:`repro.ox.ftl.recovery`).

The LBA space is ``[0, capacity_sectors)`` — one LBA per sector of the
data region (every chunk the WAL ring and the checkpoint slots do not
take).  ``write``/``read``/``trim`` reject a range that leaves it, or
holds less than one sector, with an :class:`~repro.errors.FTLError` before
anything is locked or changed.

Concurrency model: a single dispatch lock serializes the write path
(allocation, WAL, map mutation) — the paper's "single dispatch thread" —
while reads only look up the mapping table and go straight to the device.

Typical use::

    device = OpenChannelSSD(geometry=...)
    ftl = OXBlock.format(MediaManager(device), BlockConfig())
    ftl.write(lba=0, data=b"..." * 4096)
    assert ftl.read(0, 1) == b"..." * 4096
    ftl.crash()                       # kill -9 equivalent
    ftl2, report = OXBlock.recover(MediaManager(device), BlockConfig())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import FTLError, OutOfSpaceError, ReproError
from repro.ocssd.chunk import ChunkState
from repro.ox.ftl import serial
from repro.ox.ftl.gc import GarbageCollector
from repro.ox.ftl.journal import Journal
from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable, FtlChunkState
from repro.ox.ftl.provisioning import Provisioner
from repro.ox.ftl.recovery import RecoveryReport, recover_proc
from repro.ox.ftl.serial import NO_PPA
from repro.ox.ftl.writebuffer import PAD_LBA, PendingUnit, WriteBuffer
from repro.ox.media import MediaManager
from repro.sim.resources import Resource


@dataclass(frozen=True)
class BlockConfig:
    """Tunables of the OX-Block FTL."""

    wal_chunk_count: int = 8
    ckpt_chunks_per_slot: int = 2
    checkpoint_interval: Optional[float] = None   # seconds; None = disabled
    gc_enabled: bool = True
    gc_low_watermark: int = 4        # free chunks that trigger GC
    gc_high_watermark: int = 8       # free chunks GC aims for
    replay_cpu_per_record: float = 2e-6
    wal_pressure_threshold: float = 0.6   # force a checkpoint beyond this


@dataclass
class BlockStats:
    writes: int = 0
    reads: int = 0
    trims: int = 0
    sectors_written: int = 0
    sectors_read: int = 0
    checkpoints: int = 0
    forced_checkpoints: int = 0
    chunks_retired: int = 0
    sectors_lost: int = 0


class OXBlock:
    """The OX-Block FTL instance.  Construct via :meth:`format` (fresh
    device) or :meth:`recover` (after a crash or clean shutdown)."""

    def __init__(self, media: MediaManager, config: BlockConfig,
                 journal: Journal, page_map: PageMap,
                 chunk_table: ChunkTable, provisioner: Provisioner):
        self.media = media
        self.sim = media.sim
        self.config = config
        self.geometry = media.geometry
        self.journal = journal
        self.layout = journal.layout
        self.page_map = page_map
        #: The block device's size: LBAs are ``[0, capacity_sectors)``.
        self.capacity_sectors = page_map.capacity
        self.chunk_table = chunk_table
        self.provisioner = provisioner
        provisioner.gc_headroom = int(config.gc_enabled)  # one chunk per group
        # LBAs whose data was dropped after an async chunk retirement
        # (read as zeroes from then on); fault/crash harnesses use this to
        # tell "lost to a media fault" from "lost to a bug".
        self.lost_lbas: List[int] = []
        self.buffer = WriteBuffer(self.geometry.ws_min,
                                  self.geometry.sector_size)
        journal.relieve_proc = self._checkpoint_on_pressure_proc
        self._lock = Resource(self.sim, capacity=1, name="dispatch")
        self._alive = True
        self.stats = BlockStats()
        # Observability (repro.obs): inherited from the simulator at
        # construction — attach the hub to the device *before* building
        # the FTL stack, or this stays None (tracing disabled).
        self.obs = self.sim.obs
        self.gc = GarbageCollector(
            media, page_map, chunk_table, provisioner, journal,
            volatile_pending=lambda: bool(self.buffer.partial_units()),
            stabilize_proc=self._gc_stabilize_proc,
            absorb=self._absorb_notifications)
        self._gc_wakeup = self.sim.event()
        self._daemons = []
        if config.gc_enabled:
            self._daemons.append(
                self.sim.spawn(self._gc_daemon(), name="gc-daemon"))
        if config.checkpoint_interval is not None:
            self._daemons.append(
                self.sim.spawn(self._checkpoint_daemon(),
                               name="ckpt-daemon"))

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def format(cls, media: MediaManager, config: BlockConfig) -> "OXBlock":
        """Initialize a fresh device: build the layout, write checkpoint #1,
        start with an empty WAL."""
        journal = Journal(media, config.wal_chunk_count,
                          config.ckpt_chunks_per_slot)
        chunk_table = ChunkTable(media.geometry,
                                 iter(journal.layout.data_chunk_keys()))
        page_map = PageMap(chunk_table.total_sectors,
                           media.geometry.total_chunks
                           * media.geometry.sectors_per_chunk)
        provisioner = Provisioner(media, chunk_table)
        ftl = cls(media, config, journal, page_map, chunk_table, provisioner)
        ftl.sim.run_until(ftl.sim.spawn(ftl._checkpoint_locked_proc()))
        return ftl

    @classmethod
    def recover(cls, media: MediaManager,
                config: BlockConfig) -> Tuple["OXBlock", RecoveryReport]:
        """Rebuild an FTL from media after a crash; returns the new
        instance and a :class:`RecoveryReport` whose ``duration`` is the
        simulated recovery time (the Figure 3 metric).  Recovery finishes
        with a fresh checkpoint so the WAL restarts empty."""
        sim = media.sim
        started = sim.now
        journal = Journal(media, config.wal_chunk_count,
                          config.ckpt_chunks_per_slot)
        state = sim.run_until(sim.spawn(recover_proc(
            media, journal,
            replay_cpu_per_record=config.replay_cpu_per_record)))
        ftl = cls(media, config, journal, state.page_map, state.chunk_table,
                  state.provisioner)
        sim.run_until(sim.spawn(ftl._checkpoint_locked_proc()))
        report = state.report
        report.duration = sim.now - started
        return ftl, report

    def crash(self) -> None:
        """Simulate ``kill -9`` of the OX process: volatile FTL state and
        the controller cache vanish; media stays as it is."""
        self._alive = False
        for daemon in self._daemons:
            daemon.interrupt("crash")
        self.buffer.drop_all()
        self.media.device.crash_volatile()

    def close(self) -> None:
        """Clean shutdown: flush everything and checkpoint."""
        self.flush()
        self.sim.run_until(self.sim.spawn(self._checkpoint_locked_proc()))
        self._alive = False
        for daemon in self._daemons:
            daemon.interrupt("close")

    # -- public synchronous API --------------------------------------------------------

    def write(self, lba: int, data: bytes) -> int:
        """Write *data* (a multiple of the 4 KB sector size, up to the
        paper's 1 MB transactions) at *lba*; returns the transaction id.
        The commit is durable on return; for a unit commit, the data too."""
        return self.sim.run_until(self.sim.spawn(self.write_proc(lba, data)))

    def read(self, lba: int, sectors: int = 1) -> bytes:
        """Read *sectors* sectors at *lba*; unmapped sectors read as
        zeroes (standard block-device semantics)."""
        return self.sim.run_until(self.sim.spawn(self.read_proc(lba,
                                                                sectors)))

    def trim(self, lba: int, sectors: int = 1) -> None:
        self.sim.run_until(self.sim.spawn(self.trim_proc(lba, sectors)))

    def flush(self) -> None:
        self.sim.run_until(self.sim.spawn(self.flush_proc()))

    # -- process API --------------------------------------------------------------------

    def write_proc(self, lba: int, data: bytes):
        self._check_alive()
        sector_size = self.geometry.sector_size
        if not data or len(data) % sector_size:
            raise FTLError(
                f"write of {len(data)} bytes is not a whole number of "
                f"{sector_size}-byte sectors")
        count = len(data) // sector_size
        if lba < 0 or lba + count > self.capacity_sectors:
            self._reject_range("write", lba, count)
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.begin("ftl", "write")
            lock_wait = obs.begin("ftl", "lock.wait", span)
        grant = self._lock.request()
        yield grant
        if obs is not None:
            obs.close(lock_wait, "ftl.lock.wait_s")
        try:
            # Both of these run *before* the transaction mutates anything:
            # a checkpoint persists whatever the map says, and GC trusts
            # the map to tell live data from dead, so neither may observe
            # a transaction half-staged.  Relieving WAL pressure and
            # reclaiming space up front (instead of inline, mid-loop) is
            # what makes that ordering possible.
            yield from self._checkpoint_on_pressure_proc(span)
            if self.provisioner.sectors_available("user") < count:
                yield from self._reclaim_space_proc(count, span)
            txn_id = self.journal.take_txn_id()
            # Whole units, nothing else buffered: a unit commit (module docs).
            unit_commit = not (count % self.geometry.ws_min or len(self.buffer)
                               or self.journal.wal.sectors_needed(0))
            stamp = (txn_id, count if unit_commit else 0)
            entries: List[Tuple[int, int, int]] = []
            completed_units: List[PendingUnit] = []
            # One lane for every transaction shape: the provisioner cuts
            # it into chunk-contiguous runs (the rest of the filling unit,
            # then fresh units) and each run is staged, mapped and counted
            # in one call per layer.
            view = memoryview(data)
            per_chunk = self.geometry.sectors_per_chunk
            table = self.chunk_table
            invalidate = table.invalidate_linear
            offset = 0
            while offset < count:
                try:
                    # Space was ensured above and the lock is held with no
                    # yields since, so this cannot run dry; the handler is
                    # insurance against accounting drift.
                    key, first, taken = self.provisioner.allocate_run(
                        "user", count - offset)
                except OutOfSpaceError:
                    # The txn dies before its commit: unwind the
                    # map/table mutations of the sectors already staged,
                    # or a later checkpoint would persist a torn
                    # transaction that was never acknowledged.
                    self._unwind_partial_txn(entries)
                    # Units the loop already completed left the buffer;
                    # they must still reach the device (as dead data,
                    # stamps committing nothing) or the chunk write
                    # pointer falls behind the allocation cursor for good.
                    for unit in completed_units:
                        unit.uncommit()
                    if completed_units:
                        yield self.sim.all_of(
                            [self.sim.spawn(self._write_unit_proc(u, span))
                             for u in completed_units])
                    raise
                cur = lba + offset
                unit = self.buffer.stage_run(
                    cur, key, first, taken,
                    view[offset * sector_size:
                         (offset + taken) * sector_size], stamp)
                if unit is not None:
                    completed_units.append(unit)
                linear = table.get(key).linear * per_chunk + first
                self.page_map.own(linear, range(cur, cur + taken))  # as in OOB
                overwritten = self.page_map.update_run(cur, linear, taken)
                table.add_valid(key, taken)
                for previous in overwritten:
                    if previous < 0:      # was unmapped
                        entries.append((cur, linear, NO_PPA))
                    else:
                        invalidate(previous // per_chunk)
                        entries.append((cur, linear, previous))
                    cur += 1
                    linear += 1
                offset += taken
            unit_procs = [self.sim.spawn(self._write_unit_proc(
                unit, span, unit_commit)) for unit in completed_units]
            if not unit_commit:
                self.journal.log_txn(serial.REC_MAP_UPDATE, txn_id, entries)
            try:
                yield from self.journal.wal.flush_proc(parent=span)
            except ReproError as exc:
                # The txn was never acknowledged.  A WAL-ring exhaustion
                # (FTLError) leaves the media untouched, so the map
                # mutations must be unwound; a device-level failure
                # (power cut mid-flush) leaves commit durability unknown
                # and the mapping stays — recovery decides.  Either way
                # the in-flight unit writes must be joined, or their
                # (likely failing) completions surface as unhandled
                # events after the lock is gone.
                if isinstance(exc, FTLError):
                    self._unwind_partial_txn(entries)
                if unit_procs:
                    try:
                        yield self.sim.all_of(unit_procs)
                    except ReproError:
                        pass   # surface the original failure
                raise
            if len(unit_procs) == 1:
                # A Process is an Event: join it without an all_of wrapper.
                yield unit_procs[0]
            elif unit_procs:
                yield self.sim.all_of(unit_procs)
            # The flush carried every GC commit buffered before this one.
            yield from self.gc.carry_proc(span)
            # Only after this txn's units are admitted: a pressure
            # checkpoint drains the cache and must cover them.
            yield from self._checkpoint_on_pressure_proc(span)
        finally:
            self._absorb_notifications()    # a FUA unit failed, say
            self._lock.release()
        self.stats.writes += 1
        self.stats.sectors_written += count
        if obs is not None:
            obs.close(span, "ftl.write.latency_s", sectors=count)
        self._poke_gc()
        return txn_id

    def read_proc(self, lba: int, sectors: int = 1):
        self._check_alive()
        if sectors < 1 or lba < 0 or lba + sectors > self.capacity_sectors:
            self._reject_range("read", lba, sectors)
        sector_size = self.geometry.sector_size
        obs = self.obs
        span = obs.begin("ftl", "read") if obs is not None else None
        # One resolve loop for any sector count: buffer, then map, then
        # the device for whatever is left — by linear address, in one
        # payload-only command, traced or not.
        lookup_buffer = self.buffer.lookup
        lookup_map = self.page_map.lookup
        for attempt in range(3):
            pieces: List[Optional[bytes]] = []
            linears: List[int] = []
            for cur in range(lba, lba + sectors):
                piece = lookup_buffer(cur)
                if piece is None:
                    linear = lookup_map(cur)
                    if linear is None:
                        piece = b"\x00" * sector_size
                    else:
                        linears.append(linear)
                pieces.append(piece)
            if not linears:
                break
            views = yield from self.media.read_sectors_proc(
                linears, parent=span)
            if views is not None:
                if len(linears) < sectors:
                    # Media sectors interleave with buffered or unmapped
                    # ones: cut the device's run views back into sectors.
                    media = memoryview(b"".join(views))
                    at = 0
                    for index, piece in enumerate(pieces):
                        if piece is None:
                            pieces[index] = media[at:at + sector_size]
                            at += sector_size
                else:
                    pieces = views
                break
            # A concurrent relocation/reset invalidated an address between
            # lookup and read: retry against the fresh mapping.
        else:
            raise FTLError(f"read at lba {lba} failed: media read error "
                           f"or racing relocation")
        self.stats.reads += 1
        self.stats.sectors_read += sectors
        if obs is not None:
            obs.close(span, "ftl.read.latency_s", sectors=sectors)
        return b"".join(pieces)

    def trim_proc(self, lba: int, sectors: int = 1):
        self._check_alive()
        if sectors < 1 or lba < 0 or lba + sectors > self.capacity_sectors:
            self._reject_range("trim", lba, sectors)
        grant = self._lock.request()
        yield grant
        try:
            entries = [(cur, NO_PPA, previous)
                       for cur in range(lba, lba + sectors)
                       if (previous := self.page_map.lookup(cur)) is not None]
            # Sized before anything is discarded: each record opens at
            # most one frame, and so does the commit.
            frames = 1 + -(-len(entries) // serial.rows_per_record(
                serial.REC_MAP_UPDATE, self.geometry.sector_size))
            if frames > self.journal.wal.capacity_sectors:
                raise FTLError(
                    f"a trim of {len(entries)} mapped sectors commits in "
                    f"up to {frames} WAL sectors but the ring holds "
                    f"{self.journal.wal.capacity_sectors}; enlarge "
                    f"wal_chunk_count")
            yield from self._checkpoint_on_pressure_proc(frames=frames)
            self._absorb_notifications()    # rides this trim's flush
            txn_id = self.journal.take_txn_id()
            per_chunk = self.geometry.sectors_per_chunk
            for cur, __, previous in entries:
                self.buffer.discard(cur)
                self.page_map.remove(cur)
                self.chunk_table.invalidate_linear(previous // per_chunk)
            if entries:
                self.journal.log_txn(serial.REC_MAP_UPDATE, txn_id, entries)
                try:
                    yield from self.journal.wal.flush_proc()
                except FTLError:
                    # Never acknowledged: put the mappings back so the
                    # in-memory state matches what recovery would build.
                    self._unwind_partial_txn(entries)
                    raise
        finally:
            self._lock.release()
        self.stats.trims += 1

    def flush_proc(self):
        """Durability barrier: pad out the partial write unit, drain the
        WAL and the device cache.  After this returns, a crash loses
        nothing acknowledged before the flush."""
        self._check_alive()
        grant = self._lock.request()
        yield grant
        try:
            yield from self._flush_partial_unit_proc()
            yield from self.gc.carry_proc()
        finally:
            self._lock.release()
        yield from self.media.flush_proc()

    # -- internals ----------------------------------------------------------------------

    def _check_alive(self) -> None:
        if not self._alive:
            raise FTLError("FTL instance has crashed or been closed")

    def _reject_range(self, op: str, lba: int, count: int) -> None:
        raise FTLError(
            f"{op} of {count} sector(s) at lba {lba} is not a range "
            f"inside the device's {self.capacity_sectors} sectors")

    def _absorb_notifications(self) -> None:
        """Process the device's asynchronous error reports (Figure 2:
        "bad block information may be updated at any time").

        The one place OX-Block retires a chunk, only one the device reports
        OFFLINE (a failed program or erase; a read error fails its read
        and logs nothing).  A retired chunk leaves the provisioner, and any
        mapping still pointing into it is dropped — with a write-back
        cache, data lost to an async program failure is genuinely gone,
        and surfacing it as unmapped (zero) reads beats surfacing it as
        I/O errors forever after.  The drop is logged, as a txn restating
        the lost mappings, for the next WAL flush (a carry's at the
        latest): recovery loses them again, unit commits included.
        """
        entries: List[Tuple[int, int, int]] = []
        for note in self.media.pop_notifications():
            key = note.ppa.chunk_key()
            if key not in self.chunk_table:
                continue   # metadata chunk failures handled elsewhere
            info = self.chunk_table.get(key)
            if info.state is FtlChunkState.BAD or self.media.chunk_info(
                    note.ppa).state is not ChunkState.OFFLINE:
                continue
            # The reverse map names each sector's lba; it is still mapped
            # there unless an overwrite or trim superseded it.
            per_chunk = self.geometry.sectors_per_chunk
            base = info.linear * per_chunk
            owners = self.page_map.owners(base, per_chunk)
            lookup = self.page_map.lookup
            lost = sorted((lba, base + sector, base + sector)
                          for sector, lba in enumerate(owners)
                          if lba >= 0 and lookup(lba) == base + sector)
            for lba, __, __ in lost:
                self.page_map.remove(lba)
            entries += lost
            # Partial write units headed for the dead chunk can never be
            # programmed; drop them or the next forced flush would try.
            self.buffer.drop_chunk(key)
            info.valid_count = 0
            self.provisioner.retire_chunk(key)
            self.stats.chunks_retired += 1
            self.stats.sectors_lost += len(lost)
            self.lost_lbas.extend(lba for lba, __, __ in lost)
            if self.obs is not None:
                self.obs.error("ftl", "chunk-retired",
                               f"{note.kind} at {note.ppa}: "
                               f"{len(lost)} mapped sector(s) lost")
        if entries:
            self.journal.log_txn(serial.REC_MAP_UPDATE,
                                 self.journal.take_txn_id(), entries)

    def _unwind_partial_txn(
            self, entries: List[Tuple[int, int, int]]) -> None:
        """Roll back the map/table effects of an aborted write or trim txn.

        The staged sectors still reach media as dead data (their units
        flush with the txn's lbas in OOB, but nothing maps to them), which
        is exactly what the GC scan expects of superseded sectors.
        """
        for cur, linear, previous in reversed(entries):
            self.buffer.discard(cur)
            if linear != NO_PPA:        # a trim's entry staged nothing
                self.chunk_table.invalidate(
                    self.geometry.delinearize(linear).chunk_key())
            if previous == NO_PPA:
                self.page_map.remove(cur)
            else:
                previous_ppa = self.geometry.delinearize(previous)
                self.page_map.update(cur, previous)
                self.chunk_table.add_valid(previous_ppa.chunk_key())
                # The previous copy may itself still be staged (acked from
                # the buffer, not yet programmed): re-expose it, or reads
                # of this lba have no copy anywhere until the unit lands.
                self.buffer.restore_readable(cur, previous_ppa)

    def _reclaim_space_proc(self, sectors: int, parent=None):
        """Run GC under the (held) dispatch lock until the user stream
        can allocate *sectors* more sectors.

        Called before the transaction stages anything, so the collector
        sees a consistent mapping table and may even checkpoint between
        rounds to relieve WAL pressure.  Raises
        :class:`OutOfSpaceError` when collection cannot free enough.
        """
        stalled = 0
        obs = self.obs
        stall_started = self.sim.now if obs is not None else 0.0
        try:
            # Pending victims are space already won: carry them first.
            yield from self.gc.carry_proc(parent)
            while self.provisioner.sectors_available("user") < sectors:
                before = self.provisioner.sectors_available("user")
                progressed = yield from self.gc.collect_round_locked_proc(
                    self.geometry.pus_per_group)   # as wide as the group
                yield from self.gc.carry_proc(parent)
                # "Recycled" is not "freed space": on a device full of
                # live data GC can spend as many sectors as it frees.
                # Tolerate one zero-gain round (the gain can land a round
                # late when relocation opens a fresh gc chunk), then give up.
                if progressed \
                        and self.provisioner.sectors_available("user") > before:
                    stalled = 0
                    continue
                stalled += 1
                if not progressed or stalled > 1:
                    raise OutOfSpaceError(
                        f"cannot reclaim {sectors} sectors for stream 'user'")
        finally:
            if obs is not None:
                # The foreground GC stall (the write that paid for
                # reclamation inline) — what the policy ablation reports.
                obs.metrics.histogram("ftl.gc.stall_s").record(
                    self.sim.now - stall_started)

    def _gc_stabilize_proc(self):
        """Durability barrier for GC: after this, every acked transaction
        is fully on NAND, so recovery can never drop one and resurrect a
        mapping into a chunk GC is about to erase.  Runs under the
        dispatch lock (GC holds it), so no new txn can race in."""
        yield from self._flush_partial_unit_proc()
        yield from self.media.flush_proc()

    def _write_unit_proc(self, unit: PendingUnit, parent=None, fua=False):
        completion = yield from self.media.write_proc(
            unit.ppas, unit.data, oob=unit.oob, fua=fua, parent=parent)
        self.buffer.mark_written(unit)
        self.media.require_ok(completion, "data unit write")

    def _flush_partial_unit_proc(self, parent=None):
        remaining = self.provisioner.current_unit_remaining("user")
        if not self.buffer.partial_units() and remaining == 0:
            return
        units: List[PendingUnit] = []
        if remaining:
            unit = self.buffer.stage_run(
                PAD_LBA, *self.provisioner.allocate_run("user", remaining))
            if unit is not None:
                units.append(unit)
        leftovers = self.buffer.take_partial_units()
        if leftovers:
            # Padding fills exactly the provisioner's unit remainder, so
            # a surviving partial unit means the cursor and the buffer
            # disagree — fail loudly instead of writing a short unit.
            raise FTLError(
                f"{len(leftovers)} partial unit(s) survived flush "
                f"padding: write buffer and allocation cursor disagree")
        procs = [self.sim.spawn(self._write_unit_proc(unit, parent))
                 for unit in units]
        if procs:
            yield self.sim.all_of(procs)

    def _checkpoint_on_pressure_proc(self, parent=None, frames=0):
        """Checkpoint when the ring is pressed, or when *frames* more
        frames would not fit the rest of it."""
        wal = self.journal.wal
        if not (self.journal.pressed(self.config.wal_pressure_threshold)
                or wal.used_sectors + wal.sectors_needed(frames)
                > wal.capacity_sectors):
            return
        self.stats.forced_checkpoints += 1
        yield from self._do_checkpoint_proc(parent)

    def _checkpoint_locked_proc(self):
        grant = self._lock.request()
        yield grant
        try:
            yield from self._do_checkpoint_proc()
        finally:
            self._lock.release()

    def _do_checkpoint_proc(self, parent=None):
        """Write a checkpoint and truncate the WAL; caller holds the lock.

        Ordering is load-bearing: every mapping the checkpoint persists
        must point at *durable* data, so the partial write-buffer unit is
        padded out and the controller cache drained before the snapshot
        is taken.  (Snapshotting first would leave the checkpoint pointing
        above on-media write pointers after a crash — dangling mappings
        with nothing left to verify them against.)
        """
        obs = self.obs
        span = (obs.begin("ftl", "checkpoint", parent)
                if obs is not None else None)
        yield from self._flush_partial_unit_proc(span)
        yield from self.media.flush_proc()
        # The snapshot covers the buffered GC commits: drop, not flush.
        self.journal.wal.drop_buffered()
        sector_size = self.geometry.sector_size
        chunk_rows = self.chunk_table.snapshot()
        # The map records are slices of the packed snapshot: no per-entry
        # integers on the checkpoint path.
        records = serial.split(serial.REC_CKPT_MAP, (),
                               self.page_map.snapshot_packed(), sector_size)
        records += serial.split(serial.REC_CKPT_CHUNK, (), chunk_rows,
                                sector_size)
        yield from self.journal.checkpoint_proc(
            records, map_entries=len(self.page_map),
            chunk_entries=len(chunk_rows), parent=span)
        yield from self.gc.carry_proc(span)
        self.stats.checkpoints += 1
        if obs is not None:
            obs.end(span)

    # -- daemons ------------------------------------------------------------------------

    def _poke_gc(self) -> None:
        if (self.config.gc_enabled
                and self.gc.free_chunks() < self.config.gc_low_watermark
                and not self._gc_wakeup.triggered):
            self._gc_wakeup.succeed()

    def _gc_daemon(self):
        from repro.sim.core import Interrupt
        try:
            while self._alive:
                yield self._gc_wakeup
                self._gc_wakeup = self.sim.event()
                if not self._alive:
                    return
                grant = self._lock.request()
                yield grant
                try:
                    yield from self.gc.collect_until_locked_proc(
                        self.config.gc_high_watermark)
                except ReproError as exc:
                    # A failed victim scan, copy or reset must not kill
                    # the collector for the rest of the FTL's life: the
                    # victim stays where it is and the next wakeup
                    # retries.  (Power loss lands here too; the daemon
                    # then parks until crash() interrupts it.)  Absorbed,
                    # but not silent: the hub counts it.
                    if self.obs is not None:
                        self.obs.error("ftl.gc", "daemon-absorbed", str(exc))
                finally:
                    self._lock.release()
        except Interrupt:
            return

    def _checkpoint_daemon(self):
        from repro.sim.core import Interrupt
        interval = self.config.checkpoint_interval
        try:
            while self._alive:
                yield self.sim.timeout(interval)
                if not self._alive:
                    return
                try:
                    yield from self._checkpoint_locked_proc()
                except ReproError as exc:
                    # Retry at the next interval — but surface the miss.
                    if self.obs is not None:
                        self.obs.error("ftl", "checkpoint-absorbed",
                                       str(exc))
        except Interrupt:
            return
