"""OX-ELEOS: the application-specific FTL for log-structured storage.

"OX-ELEOS exposes Open-Channel SSDs as log-structured storage, with writes
at the granularity of Log-Structured Storage (LSS) I/O buffers, typically
8MB, and reads at the granularity of a single page. ... with
variable-sized pages of an arbitrary number of bytes, mapping becomes more
challenging ... application-specific FTLs might require mapping at a
granularity which is smaller than the unit of read" (§4.2).

Design:

* :meth:`append_buffer` takes one LSS I/O buffer — a list of
  ``(page_id, payload)`` pairs with payloads of *arbitrary byte sizes* —
  packs them back to back, and writes the buffer onto a fresh **segment**:
  a set of whole chunks striped across parallel units.  Pages never span a
  chunk boundary (padding keeps them inside), so a page is always covered
  by a contiguous run of sectors.
* The variable-page map stores ``page_id -> (first_sector, byte_offset,
  length)`` — a *sub-sector* granularity, smaller than the device's 4 KB
  unit of read, which is exactly the paper's point.
* Space reclamation is host-driven, as in log-structured storage: the
  LLAMA-side cleaner re-appends live pages and then calls
  :meth:`free_segment`; the FTL erases the segment's chunks behind the
  cleaner, before an append takes one of them.  There is no
  FTL-internal GC, but the FTL owns segment liveness: every map update
  moves the page between the per-segment live sets the cleaner reads.
* WAL + checkpoints give the same transactional guarantees as OX-Block:
  an ``append_buffer`` is atomic — after a crash either every page of the
  buffer is readable or none is mapped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FTLError, OutOfSpaceError, ReproError
from repro.ocssd.address import Ppa, PpaRun
from repro.ocssd.chunk import ChunkState
from repro.ox.ftl import serial
from repro.ox.ftl.journal import Journal
from repro.ox.ftl.recovery import RecoveryReport
from repro.ox.media import MediaManager
from repro.sim.core import Process
from repro.sim.resources import Resource
from repro.units import MIB

ChunkKey = Tuple[int, int, int]


@dataclass(frozen=True)
class EleosConfig:
    """Tunables of the OX-ELEOS FTL."""

    buffer_bytes: int = 8 * MIB      # LSS I/O buffer size (paper: 8 MB)
    wal_chunk_count: int = 8
    ckpt_chunks_per_slot: int = 2
    replay_cpu_per_record: float = 2e-6
    wal_pressure_threshold: float = 0.6


@dataclass
class VPageEntry:
    """Where a variable-sized page lives."""

    first_sector: int   # linearized device sector
    offset: int         # byte offset within that sector
    length: int         # page length in bytes


@dataclass
class EleosStats:
    buffers_appended: int = 0
    pages_appended: int = 0
    bytes_appended: int = 0
    pages_read: int = 0
    segments_freed: int = 0
    checkpoints: int = 0
    chunks_retired: int = 0     # erases that failed: grown bad blocks


class OXEleos:
    """The OX-ELEOS FTL instance.

    Construct with :meth:`format` on a fresh device or :meth:`recover`
    after a crash.
    """

    def __init__(self, media: MediaManager, config: EleosConfig):
        self.media = media
        self.sim = media.sim
        self.obs = media.sim.obs    # repro.obs hub, None unless attached
        self.config = config
        self.geometry = media.geometry
        self.journal = Journal(media, config.wal_chunk_count,
                               config.ckpt_chunks_per_slot)
        self.layout = self.journal.layout
        if config.buffer_bytes < self.geometry.sector_size:
            raise FTLError("LSS buffer must hold at least one sector")
        self.vmap: Dict[int, VPageEntry] = {}
        self.segments: Dict[int, List[ChunkKey]] = {}
        # Liveness, kept in step with vmap by _map_page: segment -> ids of
        # the pages it currently holds, segment -> pages it was written
        # with, chunk (linear index) -> owning segment.
        self._live: Dict[int, Set[int]] = {}
        self._written: Dict[int, int] = {}
        self._chunk_segment: Dict[int, int] = {}
        # Erased chunks as one FIFO per PU, PUs group-first ((0,0), (1,0),
        # ..., (0,1), ...): the allocation cursor walks them in this order.
        self._free: Dict[Tuple[int, int], Deque[ChunkKey]] = {
            pu: deque() for pu in sorted(self.geometry.iter_pus(),
                                         key=lambda pu: pu[::-1])}
        for key in self.layout.data_chunk_keys():
            self._free[key[:2]].append(key)
        self._rotation = list(self._free.values())
        self._cursor = 0
        # Freed chunks whose erase is still in flight -> the erase.
        self._erasing: Dict[ChunkKey, Process] = {}
        self._next_segment_id = 1
        self._lock = Resource(self.sim, capacity=1, name="eleos-dispatch")
        self._alive = True
        self.stats = EleosStats()

    @property
    def tenant(self):
        """The :class:`~repro.qos.TenantContext` this FTL's I/O is tagged
        with (from its media manager); None for untagged stacks."""
        return self.media.tenant

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def format(cls, media: MediaManager, config: EleosConfig,
               tenant=None) -> "OXEleos":
        if tenant is not None:
            media = media.for_tenant(tenant)
        ftl = cls(media, config)
        ftl.sim.run_until(ftl.sim.spawn(ftl._checkpoint_locked_proc()))
        return ftl

    @classmethod
    def recover(cls, media: MediaManager, config: EleosConfig,
                tenant=None) -> Tuple["OXEleos", RecoveryReport]:
        """Rebuild from media; see :mod:`repro.ox.ftl.recovery` for the
        replay rules (committed + durable transactions only)."""
        if tenant is not None:
            media = media.for_tenant(tenant)
        sim = media.sim
        started = sim.now
        ftl = cls(media, config)
        report = sim.run_until(sim.spawn(ftl._recover_proc()))
        sim.run_until(sim.spawn(ftl._checkpoint_locked_proc()))
        report.duration = sim.now - started
        return ftl, report

    def crash(self) -> None:
        """kill -9: volatile state and the controller cache are gone."""
        self._alive = False
        self.media.device.crash_volatile()

    # -- public synchronous API ------------------------------------------------------

    def append_buffer(self, pages: Sequence[Tuple[int, bytes]]) -> int:
        """Write one LSS I/O buffer; returns the new segment id."""
        return self.sim.run_until(
            self.sim.spawn(self.append_buffer_proc(pages)))

    def read_page(self, page_id: int) -> bytes:
        return self.sim.run_until(self.sim.spawn(self.read_page_proc(page_id)))

    def free_segment(self, segment_id: int) -> None:
        self.sim.run_until(self.sim.spawn(self.free_segment_proc(segment_id)))

    def checkpoint(self) -> None:
        self.sim.run_until(self.sim.spawn(self._checkpoint_locked_proc()))

    def live_page_ids(self) -> List[int]:
        return sorted(self.vmap)

    def segment_of(self, page_id: int) -> Optional[int]:
        """Which segment currently holds *page_id* (None if unmapped)."""
        entry = self.vmap.get(page_id)
        if entry is None:
            return None
        return self._segment_at(entry.first_sector)

    def free_chunk_count(self) -> int:
        """Chunks available to new segments, erasing ones included."""
        return sum(map(len, self._rotation)) + len(self._erasing)

    def offline_chunks(self) -> Set[ChunkKey]:
        """Data chunks the device reports offline: retired or failed."""
        return {key for key in self.layout.data_chunk_keys()
                if self.media.chunk_info(Ppa(*key, 0)).state
                is ChunkState.OFFLINE}

    def segment_live_pages(self, segment_id: int) -> List[int]:
        """Ids of the pages *segment_id* still holds, ascending."""
        return sorted(self._live.get(segment_id, ()))

    def segment_live_ratio(self, segment_id: int) -> float:
        """Live pages of the segment / pages originally written to it (for
        a recovered segment: the pages it held at recovery)."""
        written = self._written.get(segment_id)
        if not written:
            return 0.0
        return len(self._live[segment_id]) / written

    # -- process API --------------------------------------------------------------------

    def append_buffer_proc(self, pages: Sequence[Tuple[int, bytes]],
                           parent=None):
        self._check_alive()
        if not pages:
            raise FTLError("empty LSS buffer")
        # Everything the WAL will have to encode is checked here, before
        # the lock: a rejected buffer allocates, writes and logs nothing.
        total = 0
        for page_id, payload in pages:
            if not serial.fits(serial.REC_VPAGE_UPDATE, (page_id, 0, 0, 0)):
                raise FTLError(
                    f"page id {page_id!r} is not an unsigned 64-bit integer")
            if not isinstance(payload, (bytes, bytearray, memoryview)) \
                    or not payload:
                raise FTLError(
                    f"page {page_id} needs a non-empty bytes-like payload")
            total += len(payload)
        if total > self.config.buffer_bytes:
            raise FTLError(
                f"buffer of {total} bytes exceeds the configured LSS "
                f"buffer size {self.config.buffer_bytes}")
        obs = self.obs
        span = obs.begin("ftl", "append", parent) if obs is not None else None
        grant = self._lock.request()
        yield grant
        try:
            # The commit is sized before anything is allocated, so a batch
            # the ring cannot take costs no segment: SEGMENT_NEW, COMMIT
            # and each VPAGE_UPDATE record open at most one frame after the
            # buffered SEGMENT_FREEs; flush_proc cannot run out of ring.
            wal = self.journal.wal
            per_record = serial.rows_per_record(
                serial.REC_VPAGE_UPDATE, self.geometry.sector_size)
            needed = wal.sectors_needed(2 + -(-len(pages) // per_record))
            if needed > wal.capacity_sectors:
                raise FTLError(
                    f"a buffer of {len(pages)} pages commits in up to "
                    f"{needed} WAL sectors but the ring holds "
                    f"{wal.capacity_sectors}; enlarge wal_chunk_count")
            if wal.used_sectors + needed > wal.capacity_sectors:
                yield from self._do_checkpoint_proc(span)
            segment_id, entries = yield from self._write_segment_proc(
                pages, span)
            wal.append(self._segment_record(serial.REC_SEGMENT_NEW,
                                            segment_id))
            self.journal.log_txn(serial.REC_VPAGE_UPDATE,
                                 self.journal.take_txn_id(), entries)
            yield from wal.flush_proc(span)
            for entry in entries:
                self._map_page(*entry)
            self._written[segment_id] = len(self._live[segment_id])
            if self.journal.pressed(self.config.wal_pressure_threshold):
                yield from self._do_checkpoint_proc(span)
        finally:
            self._lock.release()
        self.stats.buffers_appended += 1
        self.stats.pages_appended += len(pages)
        self.stats.bytes_appended += total
        if obs is not None:
            obs.end(span, pages=len(pages), segment=segment_id)
        return segment_id

    def read_page_proc(self, page_id: int, parent=None):
        """Read one page: fetch the covering sectors (unit of read = 4 KB),
        slice out the page bytes — the mapping is finer than the read."""
        self._check_alive()
        entry = self.vmap.get(page_id)
        if entry is None:
            raise FTLError(f"page {page_id} is not mapped")
        sector_size = self.geometry.sector_size
        covering = max(1, -(-(entry.offset + entry.length) // sector_size))
        first = self.geometry.delinearize(entry.first_sector)
        obs = self.obs
        span = obs.begin("ftl", "read", parent) if obs is not None else None
        completion = yield from self.media.read_proc(
            PpaRun(first[:3], first[3], covering), parent=span)
        self.media.require_ok(completion, f"page {page_id} read")
        data = completion.data
        blob = data[0] if len(data) == 1 else b"".join(data)
        self.stats.pages_read += 1
        if obs is not None:
            obs.end(span, page=page_id)
        return bytes(blob[entry.offset:entry.offset + entry.length])

    def free_segment_proc(self, segment_id: int, parent=None):
        """Host-driven reclamation: the LSS cleaner guarantees every live
        page of the segment has been re-appended elsewhere, so a free costs
        one device flush; the chunks' erases run behind it, side by side,
        and only an append that finds no erased chunk waits for one.
        SEGMENT_FREE is only buffered: it rides the next WAL flush, ahead
        of any SEGMENT_NEW that could reuse these chunks; if a crash takes
        it, recovery drops the empty segment."""
        self._check_alive()
        obs = self.obs
        span = obs.begin("ftl", "free", parent) if obs is not None else None
        grant = self._lock.request()
        yield grant
        try:
            chunks = self.segments.get(segment_id)
            if chunks is None:
                raise FTLError(f"unknown segment {segment_id}")
            stale = self.segment_live_pages(segment_id)
            if stale:
                raise FTLError(
                    f"segment {segment_id} still holds live pages "
                    f"{stale[:5]}{'...' if len(stale) > 5 else ''}")
            self.journal.wal.append(serial.encode(serial.REC_SEGMENT_FREE,
                                                  (segment_id,)))
            # The relocated copies are durable before the old ones go.
            yield from self.media.flush_proc()
            self._drop_segment(segment_id)
            for key in chunks:
                self._erasing[key] = self.sim.spawn(
                    self._reset_chunk_proc(key), "eleos-erase")
        finally:
            self._lock.release()
        self.stats.segments_freed += 1
        if obs is not None:
            obs.end(span, segment=segment_id)

    def _reset_chunk_proc(self, key: ChunkKey):
        """Erase one chunk back into the free pool, as its own root span;
        a failed erase retires it (a grown bad block).  The erase is the
        FTL's: a ReproError is absorbed and counted, and an instance that
        crashed meanwhile books nothing."""
        obs = self.obs
        span = obs.begin("ftl", "erase") if obs is not None else None
        try:
            completion = yield from self.media.reset_proc(Ppa(*key, 0),
                                                          parent=span)
            failure = (None if completion.ok else
                       ("reset-failed", completion.error or str(key)))
        except ReproError as exc:
            failure = ("erase-absorbed", str(exc))
        self._erasing.pop(key, None)     # recovery's erases are not here
        if obs is not None:
            obs.end(span, chunk=key)
        if not self._alive:
            return
        if failure is None:
            self._free[key[:2]].append(key)
            return
        self.stats.chunks_retired += 1
        if obs is not None:
            obs.error("ftl", *failure)

    # -- internals ----------------------------------------------------------------------

    def _check_alive(self) -> None:
        if not self._alive:
            raise FTLError("FTL instance has crashed or been closed")

    def _chunk_linear(self, key: ChunkKey) -> int:
        group, pu, chunk = key
        return (group * self.geometry.pus_per_group + pu) \
            * self.geometry.chunks_per_pu + chunk

    def _chunk_from_linear(self, linear: int) -> ChunkKey:
        per_pu = self.geometry.chunks_per_pu
        pu_linear, chunk = divmod(linear, per_pu)
        group, pu = divmod(pu_linear, self.geometry.pus_per_group)
        return (group, pu, chunk)

    def _segment_at(self, linear: int) -> Optional[int]:
        """The segment owning the chunk that holds sector *linear*."""
        return self._chunk_segment.get(
            linear // self.geometry.sectors_per_chunk)

    def _segment_record(self, rtype: int, segment_id: int) -> bytes:
        """The segment's chunks as a record of kind *rtype*."""
        return serial.encode(rtype, (segment_id,), [
            (self._chunk_linear(key),) for key in self.segments[segment_id]])

    def _add_segment_rows(self, segment_id: int, rows) -> None:
        """:meth:`_add_segment` from a decoded segment record's rows."""
        self._add_segment(segment_id, [
            self._chunk_from_linear(linear) for linear, in rows])

    def _add_segment(self, segment_id: int, chunks: List[ChunkKey]) -> None:
        self.segments[segment_id] = chunks
        self._live[segment_id] = set()
        for key in chunks:
            self._chunk_segment[self._chunk_linear(key)] = segment_id
        self._next_segment_id = max(self._next_segment_id, segment_id + 1)

    def _drop_segment(self, segment_id: int) -> None:
        for key in self.segments.pop(segment_id, ()):
            del self._chunk_segment[self._chunk_linear(key)]
        self._live.pop(segment_id, None)
        self._written.pop(segment_id, None)

    def _map_page(self, page_id: int, linear: int, offset: int,
                  length: int) -> None:
        """The one place vmap maps a page (append, checkpoint load, WAL
        replay): the page leaves its old segment's live set and joins the
        new one's.  A location no segment owns — possible only in a map
        recovered around a torn free — is mapped but counted nowhere."""
        old = self.vmap.get(page_id)
        if old is not None:
            left = self._live.get(self._segment_at(old.first_sector))
            if left is not None:
                left.discard(page_id)
        self.vmap[page_id] = VPageEntry(linear, offset, length)
        joined = self._live.get(self._segment_at(linear))
        if joined is not None:
            joined.add(page_id)

    def _write_segment_proc(self, pages: Sequence[Tuple[int, bytes]],
                            parent=None):
        """Pack pages into sectors, allocate whole chunks, write them.

        Returns ``(segment_id, [(page_id, linear, offset, length), ...])``.
        """
        geometry = self.geometry
        sector_size = geometry.sector_size
        chunk_bytes = geometry.chunk_size

        # Lay pages out; a page never crosses a chunk boundary.
        layout: List[Tuple[int, int, int]] = []   # (page_id, byte_pos, len)
        position = 0
        for page_id, payload in pages:
            if len(payload) > chunk_bytes:
                raise FTLError(
                    f"page {page_id} ({len(payload)} bytes) exceeds the "
                    f"chunk size {chunk_bytes}")
            if (position % chunk_bytes) + len(payload) > chunk_bytes:
                position += chunk_bytes - (position % chunk_bytes)
            layout.append((page_id, position, len(payload)))
            position += len(payload)
        total_bytes = position

        # Build the byte stream: the pages, zeros where one was pushed to
        # the next chunk.
        pieces: List[bytes] = []
        position = 0
        for (page_id, byte_pos, length), (__, payload) in zip(layout, pages):
            if byte_pos > position:
                pieces.append(bytes(byte_pos - position))
            pieces.append(payload)
            position = byte_pos + length
        stream = memoryview(b"".join(pieces))
        sectors_needed = -(-total_bytes // sector_size)
        sectors_needed += (-sectors_needed) % geometry.ws_min
        chunks_needed = -(-sectors_needed // geometry.sectors_per_chunk)

        chunk_keys = yield from self._allocate_chunks_proc(chunks_needed)
        segment_id = self._next_segment_id
        self._add_segment(segment_id, chunk_keys)

        # One vector write per chunk, each its slice of the stream (the
        # last one short of its padded sector count); the device stripes
        # across PUs.
        procs = []
        for index, key in enumerate(chunk_keys):
            first_byte = index * chunk_bytes
            last_byte = min(total_bytes, first_byte + chunk_bytes)
            count = -(-(last_byte - first_byte) // sector_size)
            count += (-count) % geometry.ws_min
            count = min(count, geometry.sectors_per_chunk)
            oob = [("lss", segment_id, s) for s in range(count)]
            procs.append(self.sim.spawn(self.media.write_proc(
                PpaRun(key, 0, count), stream[first_byte:last_byte],
                oob=oob, parent=parent)))
        completions = yield self.sim.all_of(procs)
        for completion in completions:
            self.media.require_ok(completion, "LSS segment write")

        entries = []
        for page_id, byte_pos, length in layout:
            chunk_index, chunk_offset = divmod(byte_pos, chunk_bytes)
            sector_in_chunk, offset = divmod(chunk_offset, sector_size)
            key = chunk_keys[chunk_index]
            linear = geometry.linearize(Ppa(*key, sector_in_chunk))
            entries.append((page_id, linear, offset, length))
        return segment_id, entries

    def _allocate_chunks_proc(self, count: int):
        """Take *count* erased chunks, one PU after another from where the
        last segment stopped (group-first, oldest-freed first within a
        PU), so a segment's chunks and consecutive segments land on
        different channels.  Chunks still erasing count as free: short of
        erased ones, wait for the oldest erase in flight."""
        while True:
            free = self.free_chunk_count()
            if count > free:
                raise OutOfSpaceError(
                    f"segment needs {count} chunks, {free} free")
            if count <= free - len(self._erasing):
                break
            yield next(iter(self._erasing.values()))
        chosen: List[ChunkKey] = []
        rotation = self._rotation
        while len(chosen) < count:
            queue = rotation[self._cursor]
            self._cursor = (self._cursor + 1) % len(rotation)
            if queue:
                chosen.append(queue.popleft())
        return chosen

    # -- checkpoint / recovery ------------------------------------------------------------

    def _checkpoint_locked_proc(self):
        grant = self._lock.request()
        yield grant
        try:
            yield from self._do_checkpoint_proc()
        finally:
            self._lock.release()

    def _do_checkpoint_proc(self, parent=None):
        # A checkpointed mapping must point at durable data: drain the
        # controller cache before snapshotting the vmap.
        obs = self.obs
        span = (obs.begin("ftl", "checkpoint", parent)
                if obs is not None else None)
        yield from self.media.flush_proc()
        vmap_rows = [(page_id, entry.first_sector, entry.offset, entry.length)
                     for page_id, entry in sorted(self.vmap.items())]
        records = serial.split(serial.REC_CKPT_VMAP, (), vmap_rows,
                               self.geometry.sector_size)
        records += [self._segment_record(serial.REC_CKPT_SEGMENT, segment_id)
                    for segment_id in sorted(self.segments)]
        yield from self.journal.checkpoint_proc(records, parent=span)
        self.stats.checkpoints += 1
        if obs is not None:
            obs.end(span)

    def _recover_proc(self):
        report = RecoveryReport()
        tables, records = yield from self.journal.load_proc(report)
        for segment_id, rows in tables.get(serial.REC_CKPT_SEGMENT, ()):
            self._add_segment_rows(segment_id, rows)
        for entry in tables.get(serial.REC_CKPT_VMAP, ()):
            self._map_page(*entry)

        if self.config.replay_cpu_per_record:
            for __ in records:      # replay pays one tick per record
                yield self.sim.timeout(self.config.replay_cpu_per_record)
        opened: List[Tuple[int, List[Tuple[int]]]] = []   # since a commit
        for rtype, ident, rows in self.journal.fold(records):
            if rtype == serial.REC_SEGMENT_NEW:
                opened.append((ident, rows))
            elif rtype == serial.REC_SEGMENT_FREE:
                self._drop_segment(ident)
            else:   # REC_COMMIT: the transaction's VPAGE_UPDATE rows
                segments, opened = opened, []
                if not self._txn_durable(rows):
                    report.txns_dropped += 1
                    continue
                for segment_id, chunk_rows in segments:
                    self._add_segment_rows(segment_id, chunk_rows)
                for entry in rows:
                    self._map_page(*entry)
                report.txns_applied += 1

        # A page whose chunk went offline after the ack (a failed program
        # of cached data) died with it: unmapped and reported lost, as on
        # OX-Block.
        offline = self.offline_chunks()
        for page_id, entry in list(self.vmap.items()):
            if self.geometry.delinearize(entry.first_sector).chunk_key() \
                    in offline:
                self._live.get(self._segment_at(entry.first_sector),
                               set()).discard(page_id)
                del self.vmap[page_id]
                report.lost_lbas.append(page_id)

        # A segment nothing maps into holds nothing: the cleaner emptied
        # it, and free_segment_proc may have erased it before the crash
        # took the SEGMENT_FREE it had only buffered.  Drop it; the
        # free-pool rebuild below resets whatever its chunks still hold.
        for segment_id in [s for s, live in self._live.items() if not live]:
            self._drop_segment(segment_id)

        # What a recovered segment holds now is all the cleaner can ever
        # know it was written with.
        self._written = {segment_id: len(live)
                         for segment_id, live in self._live.items()}

        # Rebuild the free pool: anything not owned by a live segment and
        # not reserved for metadata is free, erased here if it holds data.
        for queue in self._rotation:
            queue.clear()
        for key in self.layout.data_chunk_keys():
            if self._chunk_linear(key) in self._chunk_segment \
                    or key in offline:
                continue
            if self.media.chunk_info(Ppa(*key, 0)).write_pointer > 0:
                yield from self._reset_chunk_proc(key)
            else:
                self._free[key[:2]].append(key)
        return report

    def _txn_durable(self, entries: List[Tuple[int, int, int, int]]) -> bool:
        sector_size = self.geometry.sector_size
        for __, linear, offset, length in entries:
            ppa = self.geometry.delinearize(linear)
            covering = max(1, -(-(offset + length) // sector_size))
            info = self.media.chunk_info(ppa)
            if ppa.sector + covering > info.write_pointer:
                return False
        return True
