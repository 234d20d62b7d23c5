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
  counts them back to back and cuts the stream into **runs** of whole
  write units, as many as the buffer has units but at most one per
  parallel unit (PU), taken group-first from a cursor kept across
  appends.  Each PU keeps one open data chunk and a run goes at its write
  pointer, so consecutive appends share chunks.  A page never crosses a
  run boundary and a run never a chunk boundary, so a page is always
  covered by a contiguous run of sectors.  **Sense rule:** in the run's
  sectors a page is placed to touch ``ceil(length / group)`` multi-plane
  sense groups (``FlashGeometry.read_unit_sectors``, one tR each) where
  the run's padding has room.  The runs are written FUA, side by side:
  nothing of an append is left in the controller cache behind its ack.
* An append **commits where it lands**: every sector of its runs carries
  in its OOB the rows ``(page_id, offset, length)`` of the pages starting
  there, the append's id, its sector count and a horizon: every id up to
  it was acked, or aborted and passed by a checkpoint's scan floor.
  OX-ELEOS keeps no WAL ring (its metadata chunks are the two checkpoint
  slots); recovery reads the stamps back
  (:func:`repro.ox.ftl.recovery.stamp_scan_proc`).
* A **segment** is what one append wrote: a set of write units, named by
  unit-linear address in the checkpoint; its id is the append's.
* The variable-page map stores ``page_id -> (first_sector, byte_offset,
  length)`` — a *sub-sector* granularity, smaller than the device's 4 KB
  unit of read, which is exactly the paper's point.
* Space reclamation is host-driven, as in log-structured storage: the
  LLAMA-side cleaner re-appends live pages and then calls
  :meth:`free_segment`; the FTL erases a chunk behind the cleaner once it
  is closed (full, or passed over for a page too big for its rest) and no
  live segment owns a unit in it.  There is no
  FTL-internal GC, but the FTL owns segment liveness: every map update
  moves the page between the per-segment live sets the cleaner reads.
* Stamps + checkpoints give the same transactional guarantees as
  OX-Block: an ``append_buffer`` is atomic — after a crash either every
  page of the buffer is readable or none is mapped.  A checkpoint only
  bounds the recovery scan; a free takes one once appends have opened a
  chunk per PU since the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FTLError, OutOfSpaceError, ReproError
from repro.ocssd.address import Ppa, PpaRun
from repro.ocssd.chunk import ChunkState
from repro.ox.ftl import recovery, serial
from repro.ox.ftl.journal import Journal
from repro.ox.ftl.recovery import RecoveryReport
from repro.ox.media import ChunkKey, ChunkPool, MediaManager, PuKey
from repro.sim.core import guarded
from repro.sim.resources import Resource
from repro.units import MIB


@dataclass(frozen=True)
class EleosConfig:
    """Tunables of the OX-ELEOS FTL."""

    buffer_bytes: int = 8 * MIB      # LSS I/O buffer size (paper: 8 MB)
    # OX-ELEOS keeps no WAL ring (appends commit in their stamps): the
    # field is accepted so specs that set it still load, and reserves
    # nothing.
    wal_chunk_count: int = 0
    ckpt_chunks_per_slot: int = 2
    replay_cpu_per_record: float = 2e-6


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


def _place(sizes: List[int], room: int, group: int) -> List[int]:
    """Byte offsets of pages of *sizes* in a run of *room* bytes, by the
    sense rule: first-fit-decreasing into its groups of *group* bytes; if
    a page is left out, in order instead, a page that would touch an extra
    group moved up to the next boundary if the pages from it on still fit."""
    fill, offsets = [0] * (room // group), [0] * len(sizes)
    for index in sorted(range(len(sizes)), key=sizes.__getitem__,
                        reverse=True):
        size = sizes[index]
        span = -(-size // group)
        for at in range(len(fill) - span + 1):
            if fill[at] + size <= span * group \
                    and not any(fill[at + 1:at + span]):
                break
        else:
            break
        offsets[index] = at * group + fill[at]
        fill[at:at + span] = [group] * (span - 1) + [
            fill[at] + size - (span - 1) * group]
    else:
        return offsets
    position, left = 0, sum(sizes)
    for index, size in enumerate(sizes):
        aligned = -(-position // group) * group
        if position % group + size > -(-size // group) * group \
                and aligned + left <= room:
            position = aligned
        offsets[index] = position
        position, left = position + size, left - size
    return offsets


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
        self.journal = Journal(media, None, config.ckpt_chunks_per_slot)
        self.layout = self.journal.layout
        if config.buffer_bytes < self.geometry.sector_size:
            raise FTLError("LSS buffer must hold at least one sector")
        self._ws_min = self.geometry.ws_min
        self._units_per_chunk = self.geometry.sectors_per_chunk \
            // self._ws_min
        self.vmap: Dict[int, VPageEntry] = {}
        # Segment -> the write units it owns, as unit-linear addresses
        # (a sector's linear address // ws_min).
        self.segments: Dict[int, List[int]] = {}
        # Liveness, kept in step with vmap by _map_page: segment -> ids of
        # the pages it currently holds, segment -> pages it was written
        # with, unit -> owning segment.
        self._live: Dict[int, Set[int]] = {}
        self._written: Dict[int, int] = {}
        self._unit_segment: Dict[int, int] = {}
        self.stats = EleosStats()
        # The data chunks; a chunk's holds are the units of it that live
        # segments and appends in flight own.
        self.pool = ChunkPool(media, self.layout.data_chunk_keys(),
                              name="eleos", stats=self.stats)
        # PUs group-first ((0,0), (1,0), ..., (0,1), ...), the order the
        # run cursor walks; per PU its one open chunk with the sectors
        # written into it.
        self._pus: List[PuKey] = sorted(self.geometry.iter_pus(),
                                        key=lambda pu: pu[::-1])
        self._open: Dict[PuKey, Tuple[ChunkKey, int]] = {}
        self._cursor = 0
        # Append ids taken whose pages are not mapped yet; ids of aborted
        # appends no checkpoint has passed yet (a stamp's horizon stays
        # below both); the sequence number of the newest checkpoint, and
        # the chunks opened since it.
        self._unmapped: Set[int] = set()
        self._aborted: Set[int] = set()
        self._checkpoint_seq = 0
        self._opened = 0
        self._lock = Resource(self.sim, capacity=1, name="eleos-dispatch")
        self._alive = True

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def format(cls, media: MediaManager, config: EleosConfig) -> "OXEleos":
        ftl = cls(media, config)
        ftl.sim.run_until(ftl.sim.spawn(ftl._checkpoint_locked_proc()))
        return ftl

    @classmethod
    def recover(cls, media: MediaManager,
                config: EleosConfig) -> Tuple["OXEleos", RecoveryReport]:
        """Rebuild from media; see :mod:`repro.ox.ftl.recovery` for the
        replay rules (committed + durable transactions only)."""
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

    def read_page(self, page_id: int, parent=None) -> bytes:
        return self.sim.run_until(
            self.sim.spawn(self.read_page_proc(page_id, parent)))

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
        """Chunks an append can still open, erasing ones included."""
        return self.pool.free_count() + len(self.pool.erasing)

    def free_unit_count(self) -> int:
        """Write units appends can still take: the rest of every open
        chunk, and every chunk they can open."""
        rest = sum(self.geometry.sectors_per_chunk - used
                   for __, used in self._open.values()) // self._ws_min
        return rest + self.free_chunk_count() * self._units_per_chunk

    def open_chunks(self) -> Dict[PuKey, ChunkKey]:
        """Each PU's open data chunk, the one its next run goes into."""
        return {pu: key for pu, (key, __) in self._open.items()}

    def segment_chunks(self, segment_id: int) -> List[ChunkKey]:
        """The chunks holding units of *segment_id*, ascending."""
        return sorted({self._unit_chunk(unit)
                       for unit in self.segments[segment_id]})

    def census(self) -> Dict[str, List[ChunkKey]]:
        """The data chunks by state (:meth:`ChunkPool.census`): in use
        are the open ones and those holding a unit of a live segment."""
        return self.pool.census(set(self.open_chunks().values()) | {
            self._unit_chunk(unit) for units in self.segments.values()
            for unit in units})

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
        # Everything a checkpoint will have to encode is checked here,
        # before the lock: a rejected buffer allocates and writes nothing.
        total = 0
        chunk_bytes = self.geometry.chunk_size
        named: Set[int] = set()
        for page_id, payload in pages:
            if not serial.fits(serial.REC_CKPT_VMAP, (page_id, 0, 0, 0)):
                raise FTLError(
                    f"page id {page_id!r} is not an unsigned 64-bit integer")
            # Recovery maps a buffer's pages in placement order, not the
            # order given: one id twice would have no defined winner.
            if page_id in named:
                raise FTLError(f"page {page_id} is named twice in one "
                               f"LSS buffer")
            named.add(page_id)
            if not isinstance(payload, (bytes, bytearray, memoryview)) \
                    or not payload:
                raise FTLError(
                    f"page {page_id} needs a non-empty bytes-like payload")
            if len(payload) > chunk_bytes:
                raise FTLError(
                    f"page {page_id} ({len(payload)} bytes) exceeds the "
                    f"chunk size {chunk_bytes}")
            total += len(payload)
        if total > self.config.buffer_bytes:
            raise FTLError(
                f"buffer of {total} bytes exceeds the configured LSS "
                f"buffer size {self.config.buffer_bytes}")
        obs = self.obs
        span = obs.begin("ftl", "append", parent) if obs is not None else None
        # The runs are planned and started before the lock (planning runs
        # between two yields, so it needs none): an append queued behind
        # another has its units in flight already.  The lock is taken in
        # id order, so appends ack and map their pages in id order, each
        # once its own runs landed: the ack means the commit is durable.
        plan = yield from self._plan_proc([len(p) for __, p in pages])
        segment_id, units, entries, writes = self._write_runs(pages, plan,
                                                              span)
        runs = [self.sim.spawn(guarded(write), "eleos-run")
                for write in writes]
        grant = self._lock.request()
        yield grant
        try:
            done = yield self.sim.all_of(runs)
            try:
                for completion in done:
                    if isinstance(completion, ReproError):
                        raise completion
                    self.media.require_ok(completion, "LSS segment write")
            except ReproError:
                yield from self._abort_append_proc(segment_id, units, span)
                raise
            self._add_segment(segment_id, units)
            for entry in entries:
                self._map_page(*entry)
            self._written[segment_id] = len(self._live[segment_id])
            self._unmapped.discard(segment_id)
        finally:
            self._lock.release()
        self.stats.buffers_appended += 1
        self.stats.pages_appended += len(pages)
        self.stats.bytes_appended += total
        if obs is not None:
            obs.end(span, pages=len(pages), segment=segment_id)
        return segment_id

    def read_page_proc(self, page_id: int, parent=None):
        """Read one page: fetch the covering sectors (unit of read = 4 KB)
        and join the page's bytes out of them in one copy — the mapping
        is finer than the read."""
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
        start, left, parts = entry.offset, entry.length, []
        for view in completion.data:
            parts.append(view[start:start + left])
            start, left = 0, left - len(parts[-1])
        self.stats.pages_read += 1
        if obs is not None:
            obs.end(span, page=page_id)
        return b"".join(parts)

    def free_segment_proc(self, segment_id: int, parent=None):
        """Host-driven reclamation: the LSS cleaner guarantees every live
        page of the segment has been re-appended elsewhere, so a free costs
        one device flush (appends are FUA: it has nothing to drain).  A
        chunk the segment leaves closed and unheld is erased behind it,
        side by side with the others, and only an append that finds no
        erased chunk waits for one.  Nothing is logged: recovery drops a
        segment nothing maps into.  Once appends have opened a chunk per
        PU since the last checkpoint, the free takes one before its
        erases, under the lock, to bound the recovery scan."""
        self._check_alive()
        obs = self.obs
        span = obs.begin("ftl", "free", parent) if obs is not None else None
        grant = self._lock.request()
        yield grant
        try:
            if segment_id not in self.segments:
                raise FTLError(f"unknown segment {segment_id}")
            stale = self.segment_live_pages(segment_id)
            if stale:
                raise FTLError(
                    f"segment {segment_id} still holds live pages "
                    f"{stale[:5]}{'...' if len(stale) > 5 else ''}")
            # The relocated copies are durable before the old ones go.
            yield from self.media.flush_proc()
            released = self._release(self.segments[segment_id])
            self._drop_segment(segment_id)
            if self._opened >= len(self._pus):
                yield from self._do_checkpoint_proc(span)
            self._erase_unheld(released)
        finally:
            self._lock.release()
        self.stats.segments_freed += 1
        if obs is not None:
            obs.end(span, segment=segment_id)

    # -- internals ----------------------------------------------------------------------

    def _check_alive(self) -> None:
        if not self._alive:
            raise FTLError("FTL instance has crashed or been closed")

    def _unit_chunk(self, unit: int) -> ChunkKey:
        """The chunk holding unit-linear address *unit*."""
        pu_linear, chunk = divmod(unit // self._units_per_chunk,
                                  self.geometry.chunks_per_pu)
        group, pu = divmod(pu_linear, self.geometry.pus_per_group)
        return (group, pu, chunk)

    def _segment_at(self, linear: int) -> Optional[int]:
        """The segment owning the unit that holds sector *linear*."""
        return self._unit_segment.get(linear // self._ws_min)

    def _add_segment(self, segment_id: int, units: List[int]) -> None:
        self.segments[segment_id] = units
        self._live[segment_id] = set()
        for unit in units:
            self._unit_segment[unit] = segment_id

    def _drop_segment(self, segment_id: int) -> None:
        for unit in self.segments.pop(segment_id, ()):
            # A unit is reused only after its chunk's erase, which comes
            # after every free of the units before it; a replay that
            # meets the new owner first must not unlink it.
            if self._unit_segment.get(unit) == segment_id:
                del self._unit_segment[unit]
        self._live.pop(segment_id, None)
        self._written.pop(segment_id, None)

    def _hold(self, units: List[int]) -> None:
        """Hold *units*' chunks, once a unit: a held chunk is never erased."""
        for unit in units:
            self.pool.hold(self._unit_chunk(unit))

    def _release(self, units: List[int]) -> List[ChunkKey]:
        """Undo :meth:`_hold`; returns the chunks left unheld."""
        return [key for key in map(self._unit_chunk, units)
                if self.pool.release(key)]

    def _erase_unheld(self, keys) -> None:
        """Erase, behind the caller, each chunk of *keys* that is closed,
        holds no unit of a live segment and is not offline."""
        open_keys = {key for key, __ in self._open.values()}
        self.pool.erase(key for key in keys if key not in open_keys)

    def _map_page(self, page_id: int, linear: int, offset: int,
                  length: int) -> None:
        """The one place vmap maps a page (append, checkpoint load, stamp
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

    def _plan_proc(self, sizes: List[int]):
        """:meth:`_plan` of a buffer with pages of *sizes* bytes; short of
        an erased chunk some run needs, wait for the oldest erase in flight
        and plan again."""
        while True:
            plan = self._plan(sizes)
            if plan is not None:
                return plan
            if not self.pool.erasing:
                raise OutOfSpaceError(
                    f"a buffer of {sum(sizes)} bytes finds no room: "
                    f"{self.free_unit_count()} write units free")
            yield next(iter(self.pool.erasing.values()))

    def _plan(self, sizes: List[int]):
        """Cut a buffer, pages counted back to back, into runs of whole
        write units: as many runs as it has units, at most one per PU,
        each at its PU's open chunk and sized from what is left.  A run
        whose share does not fit the rest of the PU's open chunk opens the
        PU's next erased chunk instead (short of one, a run makes do with
        the rest if its first page fits; else the PU is passed over).
        A run's pages get byte offsets by the sense rule (module docs).
        Reads state, changes none: returns ``(runs, cursor, opened, view)``
        — runs as ``(chunk, first_sector, sectors, first_page, end_page,
        offsets)``, the chunks opened per PU, and every PU's open chunk and
        fill after the runs — or None when no PU can take a page."""
        geometry = self.geometry
        sector_size, ws_min = geometry.sector_size, self._ws_min
        unit_bytes = ws_min * sector_size
        group = geometry.flash.read_unit_sectors * sector_size
        per_chunk = geometry.sectors_per_chunk
        pus = self._pus
        view = dict(self._open)
        opened: Dict[PuKey, List[ChunkKey]] = {}
        runs = []
        cursor = self._cursor
        left = sum(sizes)
        wanted = min(-(-left // unit_bytes), len(pus))
        index = 0
        while index < len(sizes):
            least = -(-sizes[index] // unit_bytes) * ws_min
            share = -(-(-(-left // unit_bytes)) // max(1, wanted - len(runs)))
            need = min(max(share * ws_min, least), per_chunk)
            for __ in pus:
                pu = pus[cursor]
                cursor = (cursor + 1) % len(pus)
                key, used = view.get(pu, (None, per_chunk))
                if per_chunk - used < need:
                    taken = opened.setdefault(pu, [])
                    queue = self.pool.free[pu]
                    if len(taken) < len(queue):
                        key, used = queue[len(taken)], 0
                        taken.append(key)
                    elif per_chunk - used < least:
                        continue
                break
            else:
                return None
            cap = min(per_chunk - used, need) // ws_min * unit_bytes
            end, packed = index, 0
            while end < len(sizes) and packed + sizes[end] <= cap:
                packed += sizes[end]
                end += 1
            sectors = -(-packed // unit_bytes) * ws_min
            runs.append((key, used, sectors, index, end, _place(
                sizes[index:end], sectors * sector_size, group)))
            view[pu] = (key, used + sectors)
            left -= packed
            index = end
        return runs, cursor, opened, view

    def _write_runs(self, pages: Sequence[Tuple[int, bytes]], plan,
                    parent=None):
        """Carry out :meth:`_plan`'s *plan*: open its chunks, hold the
        units it writes, and return ``(segment_id, units, entries,
        writes)`` — the vpage rows ``(page_id, linear, offset, length)``
        and one FUA write generator per run, each sector stamped
        ``(rows, id, sectors, horizon)`` (module docs).  The segment is
        registered when its pages are mapped."""
        runs, self._cursor, opened, view = plan
        geometry = self.geometry
        sector_size, ws_min = geometry.sector_size, self._ws_min
        per_chunk = geometry.sectors_per_chunk
        touched = {key for key, __ in self._open.values()}
        for pu, keys in opened.items():
            touched.update(self.pool.take(pu) for __ in keys)
            self._opened += len(keys)
        self._open = {pu: state for pu, state in view.items()
                      if state[1] < per_chunk}
        segment_id = self.journal.take_txn_id()
        self._unmapped.add(segment_id)
        stamp = (segment_id, sum(run[2] for run in runs),
                 min(self._unmapped | self._aborted) - 1)
        units: List[int] = []
        entries = []
        writes = []
        for key, first, count, start, end, offsets in runs:
            linear = geometry.linearize(Ppa(*key, first))
            units.extend(range(linear // ws_min, (linear + count) // ws_min))
            rows: List[list] = [[] for __ in range(count)]
            parts, filled = [], 0
            for position, (page_id, payload) in sorted(
                    zip(offsets, pages[start:end]), key=lambda p: p[0]):
                sector, offset = divmod(position, sector_size)
                entries.append((page_id, linear + sector, offset,
                                len(payload)))
                rows[sector].append((page_id, offset, len(payload)))
                parts += (bytes(position - filled), payload)
                filled = position + len(payload)
            writes.append(self.media.write_proc(
                PpaRun(key, first, count), b"".join(parts),
                oob=[(tuple(row), *stamp) for row in rows],
                fua=True, parent=parent))
        self._hold(units)
        # A chunk passed over for a page too big for its rest is closed:
        # with no live unit in it, nothing keeps it from its erase.
        self._erase_unheld(touched)
        return segment_id, units, entries, writes

    def _abort_append_proc(self, segment_id: int, units: List[int],
                           parent=None):
        """A run failed, so the append is not acked — but its other runs
        may be on media, and a horizon past it would prove it.  Its units
        are let go, an open chunk the failure retired is closed, and a
        checkpoint whose scan floor is past the append is taken before
        any of its chunks is erased; until one lands, no stamp's horizon
        reaches the append."""
        for pu, (key, __) in list(self._open.items()):
            if self.media.chunk_info(Ppa(*key, 0)).state \
                    is ChunkState.OFFLINE:
                del self._open[pu]
        released = self._release(units)
        self._unmapped.discard(segment_id)
        self._aborted.add(segment_id)
        yield from self._do_checkpoint_proc(parent)
        self._erase_unheld(released)

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
        # controller cache before snapshotting the vmap (appends are FUA,
        # so this waits only for what another writer left there).
        obs = self.obs
        span = (obs.begin("ftl", "checkpoint", parent)
                if obs is not None else None)
        yield from self.media.flush_proc()
        vmap_rows = [(page_id, entry.first_sector, entry.offset, entry.length)
                     for page_id, entry in sorted(self.vmap.items())]
        records = serial.split(serial.REC_CKPT_VMAP, (), vmap_rows,
                               self.geometry.sector_size)
        records += [serial.encode(serial.REC_CKPT_SEGMENT, (segment_id,),
                                  [(unit,) for unit in self.segments[
                                      segment_id]])
                    for segment_id in sorted(self.segments)]
        # Ids are taken before the lock: the header's scan floor is the
        # oldest append not mapped yet, which may ack after this snapshot.
        # No ring follows the slot, so there is no log to truncate.
        seq = self._checkpoint_seq + 1
        self._opened = 0
        yield from self.journal.checkpointer.write_payload_proc(
            seq, min(self._unmapped, default=self.journal.next_txn_id),
            records, parent=span)
        # Appends abort under the lock in id order, so every aborted id
        # is below the floor just written.
        self._checkpoint_seq = seq
        self._aborted.clear()
        self.stats.checkpoints += 1
        if obs is not None:
            obs.end(span)

    def _recover_proc(self):
        report = RecoveryReport()
        checkpoint = yield from self.journal.checkpointer.read_latest_proc()
        tables = {}
        if checkpoint is not None:
            self._checkpoint_seq, self.journal.next_txn_id, tables = checkpoint
            report.checkpoint_seq = self._checkpoint_seq
        floor = self.journal.next_txn_id    # the checkpoint maps every id below
        for segment_id, rows in tables.get(serial.REC_CKPT_SEGMENT, ()):
            self._add_segment(segment_id, [unit for unit, in rows])
        for entry in tables.get(serial.REC_CKPT_VMAP, ()):
            self._map_page(*entry)

        ws_min = self._ws_min
        chunks = [(key, self.geometry.linearize(Ppa(*key, 0)), pointer,
                   pointer - 1)     # a chunk's stamps never get older
                  for key, pointer in recovery.written_chunks(
                      self.media, set(self.layout.data_chunk_keys()))]
        complete, found = yield from recovery.stamp_scan_proc(
            self.media, self.journal, chunks, floor, floor - 1, report)
        stamped = {linear // ws_min: txn
                   for txn, got in found.items() for linear in got}
        # A checkpointed mapping is stale if its chunk went offline (a
        # failed program retired it), was erased since, or a newer
        # stamp owns its unit: an acked append moved the page, and its
        # stamps died with a retired chunk.  The page is lost, as on
        # OX-Block, unless a complete append maps it again below.
        lost: Dict[int, None] = {}
        sector_size = self.geometry.sector_size
        for page_id, entry in list(self.vmap.items()):
            ppa = self.geometry.delinearize(entry.first_sector)
            info = self.media.chunk_info(ppa)
            covering = max(1, -(-(entry.offset + entry.length)
                                // sector_size))
            if info.state is ChunkState.OFFLINE \
                    or ppa.sector + covering > info.write_pointer \
                    or entry.first_sector // ws_min in stamped:
                self._live.get(self._segment_at(entry.first_sector),
                               set()).discard(page_id)
                del self.vmap[page_id]
                lost[page_id] = None
        for segment_id in complete:
            got = found[segment_id]
            if self.config.replay_cpu_per_record:
                yield self.sim.timeout(self.config.replay_cpu_per_record
                                       * len(got))
            self._add_segment(segment_id,
                              sorted({linear // ws_min for linear in got}))
            for linear, rows in sorted(got.items()):
                for page_id, offset, length in rows:
                    self._map_page(page_id, linear, offset, length)
                    lost.pop(page_id, None)
        report.lost_lbas = list(lost)

        # A segment nothing maps into holds nothing: the cleaner emptied
        # it, and free_segment_proc may have erased it before the crash.
        # Drop it; the pool rebuild below resets whatever its chunks
        # still hold.
        for segment_id in [s for s, live in self._live.items() if not live]:
            self._drop_segment(segment_id)

        # What a recovered segment holds now is all the cleaner can ever
        # know it was written with.
        self._written = {segment_id: len(live)
                         for segment_id, live in self._live.items()}

        # A chunk holding a unit of a live segment stays, closed; any
        # other data chunk is free, erased here if it holds data.
        for units in self.segments.values():
            self._hold(units)
        yield from self.pool.rebuild_proc(self.pool.held)
        return report
