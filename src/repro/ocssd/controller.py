"""The device controller: command scheduling, timing and interference.

The parallelism rules of §2.1 are enforced structurally:

* one channel :class:`~repro.sim.Resource` per *group* — no interference
  across groups, contention within one;
* one resource per *chip* (PU) — operations are sequential within a chip;
* NAND latencies come from the chip's :class:`~repro.nand.NandTiming`.

With the write-back cache enabled (the default, matching the evaluation
drive), a write completes once its data is transferred into controller
DRAM and cache credits are held; a per-PU flusher process programs the
data to NAND in admission order.  Program failures discovered during the
background flush are reported through the asynchronous notification log,
exactly the §2.2 "asynchronous error reporting" contract.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import MediaError
from repro.nand.chip import FlashChip
from repro.ocssd.address import Ppa
from repro.ocssd.cache import WriteBackCache
from repro.ocssd.chunk import Chunk, ChunkState
from repro.ocssd.geometry import DeviceGeometry
from repro.sidecar import OBS_SLOT, QOS_SLOT, init_sidecar_slots
from repro.sim.core import Simulator
from repro.sim.resources import Resource, Store

ChunkKey = Tuple[int, int, int]
PuKey = Tuple[int, int]

_OFFLINE = ChunkState.OFFLINE


@dataclass
class _FlushJob:
    epoch: int
    chunk: Chunk
    chip: FlashChip
    first_sector: int
    sectors: int
    granted: int  # cache credits to release once programmed
    queued_at: float = 0.0  # admission time, for obs flush-queue-wait


@dataclass
class ControllerStats:
    sectors_written: int = 0
    sectors_read: int = 0
    sectors_read_from_cache: int = 0
    chunk_resets: int = 0
    program_failures: int = 0
    read_failures: int = 0


class Controller:
    """Schedules chunk-granular operations onto channels and chips."""

    def __init__(self, sim: Simulator, geometry: DeviceGeometry,
                 chips: Dict[PuKey, FlashChip],
                 chunks: Dict[ChunkKey, Chunk],
                 notify: Callable[[Ppa, str, str], None],
                 write_back: bool = True,
                 cache_sectors: Optional[int] = None):
        self.sim = sim
        self.geometry = geometry
        self.chips = chips
        self.chunks = chunks
        self.notify = notify
        self.write_back = write_back
        # Default cache: 64 write units per PU, a controller-DRAM-sized
        # staging area (tunable; ablation bench sweeps it).
        if cache_sectors is None:
            cache_sectors = 64 * geometry.ws_min * geometry.total_pus
        self.cache = WriteBackCache(sim, cache_sectors) if write_back else None
        self.channels = [Resource(sim, name=f"channel{g}")
                         for g in range(geometry.num_groups)]
        self.chip_locks: Dict[PuKey, Resource] = {
            key: Resource(sim, name=f"chip{key}") for key in chips}
        # Per-chunk dispatch context.  Every run resolves chunk -> chip /
        # chip lock / channel; one identity-keyed lookup replaces the
        # attribute chain and three dict/list probes on the hot path.
        self._ctx: Dict[Chunk, Tuple[FlashChip, Resource, Resource, PuKey]] = {}
        for (group, pu, __), chunk in chunks.items():
            pu_key = (group, pu)
            self._ctx[chunk] = (chips[pu_key], self.chip_locks[pu_key],
                                self.channels[group], pu_key)
        self.stats = ControllerStats()
        # Sidecars (repro.sidecar): None unless attached.  With an obs hub
        # every instrumented path below records spans; with a qos scheduler
        # channel grants route through its gate (weighted DRR + read
        # priority) instead of the Resources' FIFO order, and chip-lock
        # priorities favor reads over erases.
        init_sidecar_slots(self, OBS_SLOT, QOS_SLOT)
        self._epoch = 0
        # Flush barrier: PU k's queue is FIFO, so its job n is on NAND once
        # _programmed[k] >= n.  _last_job: a chunk's newest n; _waiters[k]:
        # (n, [PUs left, event]) in n order.
        self._admitted: Dict[PuKey, int] = dict.fromkeys(chips, 0)
        self._programmed: Dict[PuKey, int] = dict.fromkeys(chips, 0)
        self._last_job: Dict[Chunk, int] = {}
        self._waiters: Dict[PuKey, list] = {key: [] for key in chips}
        # Chunk -> event: its flushed pointer moved, it retired, power went.
        self._advanced: Dict[Chunk, object] = {}
        self._flush_queues: Dict[PuKey, Store] = {}
        if write_back:
            for key in chips:
                queue = Store(sim, name=f"flushq{key}")
                self._flush_queues[key] = queue
                sim.spawn(self._flusher(key, queue), name=f"flusher{key}")

    # -- epochs / crash ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    def crash_volatile(self) -> None:
        """Drop cache contents and orphan all in-flight work (power loss /
        controller kill).  Chunks roll back to their flushed pointers."""
        self._epoch += 1
        if self.cache is not None:
            self.cache.drop_all()
        # The dropped jobs count as done: every barrier is released.
        self._programmed.update(self._admitted)
        for key in self._waiters:
            self._reach(key)
        for chunk in list(self._advanced):
            self._advance(chunk)
        for chunk in self.chunks.values():
            chunk.rollback_unflushed()

    # -- write path ---------------------------------------------------------------

    def write_run(self, chunk: Chunk, first_sector: int, sectors: int,
                  fua: bool = False, span=None, tenant=None, epoch=None):
        """Process generator: timing for a chunk-sequential write already
        admitted into *chunk* (data and write pointer updated by the device
        before this runs).  ``fua`` forces write-through.  *span* is the
        obs parent (the device command span) when tracing is attached;
        *tenant* is the originating :class:`~repro.qos.TenantContext` (or
        None for infrastructure I/O); *epoch* the crash epoch of the
        admission, for a child that takes its first step after it."""
        if epoch is None:
            epoch = self._epoch
        chip, __, channel, key = self._ctx[chunk]
        num_bytes = sectors * self.geometry.sector_size
        obs = self.obs
        qos = self.qos

        if qos is not None and not qos.try_channel_acquire(tenant, key[0]):
            # Throttle + scheduler gate; once this returns, the gate
            # guarantees the channel Resource below is free.
            yield from qos.channel_acquire_proc(tenant, "write", key[0],
                                                num_bytes)
        if not channel.try_acquire():
            wait = (obs.begin("ocssd", "channel.wait", span)
                    if obs is not None else None)
            yield channel.request()
            if obs is not None:
                obs.close(wait, "ocssd.channel.wait_s")
        try:
            xfer = (obs.begin("ocssd", "xfer", span)
                    if obs is not None else None)
            yield self.sim.timeout(chip.timing.transfer_time(num_bytes))
            if obs is not None:
                obs.end(xfer, bytes=num_bytes)
        finally:
            channel.release()
            if qos is not None:
                qos.channel_release(key[0])
        if epoch != self._epoch:
            return False

        if self.cache is not None and not fua:
            granted = self.cache.try_reserve(sectors)
            if granted is None:
                wait = (obs.begin("ocssd", "cache.wait", span)
                        if obs is not None else None)
                reservation = self.cache.reserve(sectors)
                yield reservation
                if obs is not None:
                    obs.close(wait, "ocssd.cache.wait_s")
                if epoch != self._epoch:
                    return False
                granted = reservation.value
            admitted = self._admitted[key] = self._admitted[key] + 1
            self._last_job[chunk] = admitted
            self._flush_queues[key].put(_FlushJob(
                epoch=epoch, chunk=chunk, chip=chip,
                first_sector=first_sector, sectors=sectors,
                granted=granted, queued_at=self.sim.now))
            # Write-back: the command completes here; the flusher programs
            # the data and reports failures asynchronously (§2.2).
            self.stats.sectors_written += sectors
            return True

        # Write-through (no cache, or FUA).  A FUA write behind other writes
        # to the same chunk, cached or write-through, must not program out
        # of order: wait for the programs that move its flushed pointer.
        while chunk.flushed_pointer < first_sector:
            if chunk.state is _OFFLINE:
                return False
            yield self._advanced.setdefault(chunk, self.sim.event())
            if epoch != self._epoch:
                return False
        ok = yield from self._program(chunk, chip, first_sector, sectors,
                                      epoch, priority=-1 if fua else 0,
                                      span=span)
        if ok:
            self.stats.sectors_written += sectors
        return ok

    def _flusher(self, key: PuKey, queue: Store):
        """Background process draining one PU's flush queue in FIFO order."""
        while True:
            job: _FlushJob = yield queue.get()
            if job.epoch != self._epoch:
                continue
            obs = self.obs
            root = None
            if obs is not None:
                # The originating write completed at cache admission, so the
                # background program is a *detached* root span; the queue
                # wait is a metric, not a span (no parent to nest under).
                obs.metrics.histogram("ocssd.flushq.wait_s").record(
                    self.sim.now - job.queued_at)
                root = obs.begin("ocssd", "flush.program")
            yield from self._program(job.chunk, job.chip, job.first_sector,
                                     job.sectors, job.epoch, span=root)
            if obs is not None:
                obs.end(root, sectors=job.sectors)
            if job.epoch == self._epoch:
                self.cache.release(job.granted)
                programmed = self._programmed[key] = self._programmed[key] + 1
                waiters = self._waiters[key]
                if waiters and waiters[0][0] <= programmed:
                    self._reach(key)

    def _program(self, chunk: Chunk, chip: FlashChip, first_sector: int,
                 sectors: int, epoch: int, priority: int = 0, span=None):
        """Program one sequential run, write unit by write unit.

        The chip lock is released between units: flash programs one
        (multi-plane, paired-page) group at a time, so other operations on
        the chip — reads, a FUA metadata write — interleave at write-unit
        granularity instead of stalling for a whole multi-megabyte run.
        Returns success.
        """
        lock = self._ctx[chunk][1]
        ws_min = self.geometry.ws_min
        obs = self.obs
        done = 0
        while done < sectors:
            unit = min(ws_min, sectors - done)
            if not lock.try_acquire():
                wait = (obs.begin("ocssd", "chip.wait", span)
                        if obs is not None else None)
                yield lock.request(priority)
                if obs is not None:
                    obs.close(wait, "ocssd.chip.wait_s")
            try:
                if epoch != self._epoch:
                    return False
                media = (obs.begin("nand", "program", span)
                         if obs is not None else None)
                try:
                    if chunk.state is _OFFLINE:
                        raise MediaError(
                            f"program on bad block {chunk.address.chunk}")
                    elapsed = chip.program(chunk.address.chunk, unit)
                except MediaError as exc:
                    if obs is not None:
                        obs.end(media, error=str(exc))
                        obs.error("ocssd", "program-failed", str(exc))
                    self.stats.program_failures += 1
                    chunk.retire()
                    self._advance(chunk)
                    self.notify(chunk.address, "write-failed", str(exc))
                    return False
                yield self.sim.timeout(elapsed)
                if media is not None:
                    obs.end(media, sectors=unit)
                done += unit
                if epoch == self._epoch:
                    chunk.mark_flushed(first_sector + done)
                    if self._advanced:
                        self._advance(chunk)
            finally:
                lock.release()
        return epoch == self._epoch

    def _advance(self, chunk: Chunk) -> None:
        if chunk in self._advanced:
            self._advanced.pop(chunk).succeed()

    # -- read path -----------------------------------------------------------------

    def read_run(self, chunk: Chunk, first_sector: int, sectors: int,
                 span=None, tenant=None, meta_only: bool = False,
                 epoch=None):
        """Process generator: timing for a chunk-contiguous read.

        Sectors above the chunk's flushed pointer are served from controller
        DRAM (no chip access); the rest require a media sense followed by a
        channel transfer.  Returns the payload list (empty when
        *meta_only*: same validation, same timing, no payload views), or
        raises :class:`MediaError` on an uncorrectable read.
        """
        if epoch is None:
            epoch = self._epoch
        chip, lock, channel, key = self._ctx[chunk]
        payloads = chunk.read(first_sector, sectors, meta_only)
        obs = self.obs
        qos = self.qos

        media_sectors = max(0, min(chunk.flushed_pointer,
                                   first_sector + sectors) - first_sector)
        cached_sectors = sectors - media_sectors
        self.stats.sectors_read += sectors
        self.stats.sectors_read_from_cache += cached_sectors

        if media_sectors > 0:
            if not lock.try_acquire():
                # Under qos, host reads jump the chip queue (ahead of
                # programs and erases) and count toward the foreground
                # backlog that throttles background GC/compaction.
                priority = 0 if qos is None else qos.config.read_priority
                if qos is not None:
                    qos.note_read_blocked(1)
                wait = (obs.begin("ocssd", "chip.wait", span)
                        if obs is not None else None)
                try:
                    yield lock.request(priority)
                finally:
                    if qos is not None:
                        qos.note_read_blocked(-1)
                if obs is not None:
                    obs.close(wait, "ocssd.chip.wait_s")
            try:
                if epoch != self._epoch:
                    return payloads
                media = (obs.begin("nand", "read", span)
                         if obs is not None else None)
                try:
                    elapsed = chip.read(chunk.address.chunk, first_sector,
                                        media_sectors)
                except MediaError as exc:
                    if obs is not None:
                        obs.end(media, error=str(exc))
                        obs.error("ocssd", "read-error", str(exc))
                    self.stats.read_failures += 1
                    raise
                yield self.sim.timeout(elapsed)
                if media is not None:
                    obs.end(media, sectors=media_sectors)
            finally:
                lock.release()

        num_bytes = sectors * self.geometry.sector_size
        if qos is not None and not qos.try_channel_acquire(tenant, key[0]):
            yield from qos.channel_acquire_proc(tenant, "read", key[0],
                                                num_bytes)
        if not channel.try_acquire():
            wait = (obs.begin("ocssd", "channel.wait", span)
                    if obs is not None else None)
            yield channel.request()
            if obs is not None:
                obs.close(wait, "ocssd.channel.wait_s")
        try:
            xfer = (obs.begin("ocssd", "xfer", span)
                    if obs is not None else None)
            yield self.sim.timeout(chip.timing.transfer_time(num_bytes))
            if obs is not None:
                obs.end(xfer, bytes=num_bytes)
        finally:
            channel.release()
            if qos is not None:
                qos.channel_release(key[0])
        return payloads

    # -- reset path -----------------------------------------------------------------

    def reset_chunk(self, chunk: Chunk, span=None, tenant=None):
        """Process generator: erase the chunk's block set.

        Returns True on success; on an erase failure the chunk is retired,
        a notification is logged, and False is returned.  So does a power
        cut before the erase ends (told by the epoch), changing nothing.
        """
        epoch = self._epoch
        chip, lock, __, __ = self._ctx[chunk]
        obs = self.obs
        qos = self.qos
        if not lock.try_acquire():
            # A 3.5 ms erase is the worst thing a read can queue behind;
            # under qos it waits at the lowest chip priority.
            priority = 0 if qos is None else qos.config.erase_priority
            wait = (obs.begin("ocssd", "chip.wait", span)
                    if obs is not None else None)
            yield lock.request(priority)
            if obs is not None:
                obs.close(wait, "ocssd.chip.wait_s")
        try:
            if epoch != self._epoch:
                return False
            media = (obs.begin("nand", "erase", span)
                     if obs is not None else None)
            try:
                if chunk.state is _OFFLINE:
                    raise MediaError(
                        f"erase of bad block {chunk.address.chunk}")
                elapsed = chip.erase(chunk.address.chunk)
            except MediaError as exc:
                if obs is not None:
                    obs.end(media, error=str(exc))
                    obs.error("ocssd", "reset-failed", str(exc))
                chunk.retire()
                self.notify(chunk.address, "reset-failed", str(exc))
                return False
            yield self.sim.timeout(elapsed)
            if media is not None:
                obs.end(media)
            if epoch != self._epoch:
                return False
            chunk.reset()
            self.stats.chunk_resets += 1
            return True
        finally:
            lock.release()

    # -- flush barrier ----------------------------------------------------------------

    def drain(self, chunks=None):
        """Process generator: the device flush.  Waits for every write
        admitted before the call (to *chunks* only, when given) to reach
        NAND, never for a later one."""
        programmed, targets = self._programmed, {}
        if chunks is None:
            for key, count in self._admitted.items():
                if count > programmed[key]:
                    targets[key] = count
        else:
            for chunk in chunks:
                key = self._ctx[chunk][3]
                count = self._last_job.get(chunk, 0)
                if count > max(programmed[key], targets.get(key, 0)):
                    targets[key] = count
        if not targets:
            return
        barrier = [len(targets), self.sim.event()]
        for key, count in targets.items():
            if chunks is None:   # every PU's newest job: no entry after it
                self._waiters[key].append((count, barrier))
            else:
                insort(self._waiters[key], (count, barrier),
                       key=lambda entry: entry[0])
        yield barrier[1]

    def _reach(self, key: PuKey) -> None:
        """Count down the barriers PU *key* has reached; wake finished ones."""
        done = self._programmed[key]
        waiters = self._waiters[key]
        while waiters and waiters[0][0] <= done:
            barrier = waiters[0][1]
            del waiters[0]
            barrier[0] -= 1
            if barrier[0] == 0:
                barrier[1].succeed()
