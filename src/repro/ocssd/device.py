"""The Open-Channel SSD facade: what the host (or OX media manager) talks to.

Two ways to drive the device:

* **Inside the simulation** — ``yield from device.submit(cmd)`` from a
  process; returns a :class:`Completion` with timing.
* **Synchronously** — ``device.execute(cmd)`` (or the ``write``/``read``/
  ``reset``/``copy`` helpers) runs the simulator until the command
  completes.  Convenient for functional code and tests; each call advances
  the shared simulated clock.

Crash semantics: :meth:`crash_volatile` models a power/controller failure —
the write-back cache is lost, chunks roll back to their flushed pointers,
and in-flight commands are orphaned.  :meth:`flush` is the durability
barrier that bounds what a crash can lose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    GeometryError, MediaError, ReproError, WriteUnitError)
from repro.nand.chip import FlashChip
from repro.nand.errors import WearModel
from repro.nand.timing import NandTiming, timing_for
from repro.ocssd.address import Ppa, PpaRun, PpaVector
from repro.ocssd.chunk import Chunk, ChunkState, payload_view
from repro.ocssd.commands import (
    Buffer,
    ChunkReset,
    Completion,
    CommandStatus,
    VectorCopy,
    VectorRead,
    VectorWrite,
)
from repro.ocssd.controller import Controller
from repro.ocssd.geometry import DeviceGeometry
from repro.sidecar import FAULTS_SLOT, OBS_SLOT, init_sidecar_slots
from repro.sim.core import Simulator


@dataclass(frozen=True)
class ChunkNotification:
    """Asynchronous report of a chunk state change (§2.2): a failed
    program or erase took the chunk OFFLINE.  A read error fails its read
    and is not reported here."""

    ppa: Ppa
    kind: str       # "write-failed" | "reset-failed"
    detail: str
    time: float


@dataclass(frozen=True)
class ChunkDescriptor:
    """Chunk metadata as returned by the chunk-information admin command."""

    ppa: Ppa
    state: ChunkState
    write_pointer: int
    capacity: int
    wear_index: int
    #: Sectors durably on NAND; the [flushed_pointer, write_pointer)
    #: window is admitted but still volatile (write-back cache).
    flushed_pointer: int = 0


_Run = Tuple[Chunk, int, int, int]  # (chunk, first_sector, count, offset)

# Completion statuses bound once: one is attached per submitted command.
_OK = CommandStatus.OK
# Root-span / latency-histogram names per command type (repro.obs).
_COMMAND_KIND = {VectorRead: "read", VectorWrite: "write",
                 ChunkReset: "reset", VectorCopy: "copy"}
_WRITE_FAILED = CommandStatus.WRITE_FAILED
_READ_FAILED = CommandStatus.READ_FAILED
_RESET_FAILED = CommandStatus.RESET_FAILED
_INVALID = CommandStatus.INVALID
_POWER_FAIL = CommandStatus.POWER_FAIL


class OpenChannelSSD:
    """A simulated Open-Channel SSD exposing the OCSSD 2.0 command set."""

    def __init__(self, sim: Optional[Simulator] = None,
                 geometry: Optional[DeviceGeometry] = None,
                 timing: Optional[NandTiming] = None,
                 write_back: bool = True,
                 cache_sectors: Optional[int] = None,
                 wear_seed: int = 0,
                 grown_fail_prob: float = 0.0,
                 factory_bad: Optional[Dict[Tuple[int, int], List[int]]] = None):
        self.sim = sim or Simulator()
        self.geometry = geometry or DeviceGeometry()
        flash = self.geometry.flash
        timing = timing or timing_for(flash.cell)
        factory_bad = factory_bad or {}

        self.chips: Dict[Tuple[int, int], FlashChip] = {}
        self.chunks: Dict[Tuple[int, int, int], Chunk] = {}
        for index, (group, pu) in enumerate(self.geometry.iter_pus()):
            wear = WearModel(cell=flash.cell, seed=wear_seed + index,
                             grown_fail_prob=grown_fail_prob)
            self.chips[(group, pu)] = FlashChip(geometry=flash, timing=timing,
                                                wear=wear)
            bad = factory_bad.get((group, pu), ())
            for chunk_index in range(self.geometry.chunks_per_pu):
                ppa = Ppa(group, pu, chunk_index, 0)
                chunk = Chunk(ppa, capacity=self.geometry.sectors_per_chunk,
                              ws_min=self.geometry.ws_min,
                              sector_size=self.geometry.sector_size)
                if chunk_index in bad:
                    chunk.retire()
                self.chunks[(group, pu, chunk_index)] = chunk
        # Built in address order, so position == linear chunk index.
        self._chunk_list: List[Chunk] = list(self.chunks.values())
        self._sectors_per_chunk = self.geometry.sectors_per_chunk

        self.notifications: List[ChunkNotification] = []
        # Sidecars (repro.sidecar): every slot is None unless the matching
        # subsystem attached, so each disabled check costs one attribute
        # load.  faults gates submit(); obs opens one root span per
        # command.
        init_sidecar_slots(self, FAULTS_SLOT, OBS_SLOT)
        self.controller = Controller(
            self.sim, self.geometry, self.chips, self.chunks,
            notify=self._notify, write_back=write_back,
            cache_sectors=cache_sectors)

    # -- admin commands -----------------------------------------------------------

    def report_geometry(self) -> DeviceGeometry:
        """The geometry-discovery admin command."""
        return self.geometry

    def chunk_info(self, ppa: Ppa) -> ChunkDescriptor:
        """Chunk metadata for the chunk containing *ppa*."""
        return self._descriptor(self._chunk(ppa))

    def iter_chunk_info(self) -> Iterator[ChunkDescriptor]:
        """Walk every chunk descriptor in address order (recovery scans).

        Iterates the chunk table directly — it is built in address order —
        instead of re-deriving and re-validating one Ppa per chunk.
        """
        for chunk in self.chunks.values():
            yield self._descriptor(chunk)

    def _descriptor(self, chunk: Chunk) -> ChunkDescriptor:
        """The chunk's state and pointers, and its die's erase count."""
        address = chunk.address
        return ChunkDescriptor(
            ppa=address, state=chunk.state,
            write_pointer=chunk.write_pointer, capacity=chunk.capacity,
            wear_index=self.chips[address[:2]].erase_counts[address[2]],
            flushed_pointer=chunk.flushed_pointer)

    def pop_notifications(self) -> List[ChunkNotification]:
        """Drain the asynchronous notification log."""
        drained, self.notifications = self.notifications, []
        return drained

    # -- command submission (in-simulation generator API) -----------------------------

    def submit(self, command, parent=None):
        """Process generator executing *command*; returns a Completion.

        *parent* is the obs span of the caller (an FTL operation, say) so
        the device span nests under it when tracing is attached."""
        submitted = self.sim.now
        faults = self.faults
        if faults is not None and not faults.powered:
            completion = Completion(status=_POWER_FAIL,
                                    error="device is powered off")
            completion.submitted_at = submitted
            completion.completed_at = self.sim.now
            return completion
        obs = self.obs
        span = None
        if obs is not None:
            kind = _COMMAND_KIND.get(type(command), "invalid")
            span = obs.begin("ocssd", kind, parent)
        try:
            # Reads outnumber every other command; test them first.
            if isinstance(command, VectorRead):
                completion = yield from self._do_read(command, span)
            elif isinstance(command, VectorWrite):
                completion = yield from self._do_write(command, span)
            elif isinstance(command, ChunkReset):
                completion = yield from self._do_reset(command, span)
            elif isinstance(command, VectorCopy):
                completion = yield from self._do_copy(command, span)
            else:
                raise ReproError(f"unknown command {command!r}")
        except ReproError as exc:
            completion = Completion(status=_INVALID,
                                    error=str(exc))
            if obs is not None:
                obs.error("ocssd", "invalid-command", str(exc))
        if obs is not None:
            obs.close(span, f"ocssd.{kind}.latency_s",
                      status=completion.status.name)
        completion.submitted_at = submitted
        completion.completed_at = self.sim.now
        return completion

    # -- synchronous convenience API ---------------------------------------------------

    def execute(self, command) -> Completion:
        """Run *command* to completion, advancing the simulated clock."""
        return self.sim.run_until(self.sim.spawn(self.submit(command)))

    def write(self, ppas: PpaVector, data: Buffer,
              oob: Optional[List[object]] = None,
              fua: bool = False) -> Completion:
        return self.execute(VectorWrite(ppas=ppas, data=data, oob=oob,
                                        fua=fua))

    def read(self, ppas: PpaVector) -> Completion:
        return self.execute(VectorRead(ppas=ppas))

    def reset(self, ppa: Ppa) -> Completion:
        return self.execute(ChunkReset(ppa=ppa))

    def copy(self, src: PpaVector, dst: PpaVector,
             dst_oob: Optional[List[object]] = None) -> Completion:
        return self.execute(VectorCopy(src=src, dst=dst, dst_oob=dst_oob))

    def flush(self) -> None:
        """Synchronous :meth:`flush_proc` over every chunk."""
        self.sim.run_until(self.sim.spawn(self.flush_proc()))

    def flush_proc(self, chunks=None):
        """Process generator: the durability barrier (NVMe Flush): every
        write admitted before it, or only to *chunks* (chunk keys)."""
        if chunks is not None:
            chunks = [self.chunks[key] for key in chunks]
        yield from self.controller.drain(chunks)

    def crash_volatile(self) -> None:
        """Power-fail / controller-kill: lose everything volatile."""
        self.controller.crash_volatile()

    # -- internals ------------------------------------------------------------------

    def _notify(self, ppa: Ppa, kind: str, detail: str) -> None:
        self.notifications.append(ChunkNotification(
            ppa=ppa, kind=kind, detail=detail, time=self.sim.now))

    def _chunk(self, ppa: Ppa) -> Chunk:
        self.geometry.check(ppa)
        return self.chunks[ppa[:3]]          # ppa.chunk_key(), inline

    def _run(self, key, first: int, count: int, offset: int) -> _Run:
        """One run of :meth:`_split_runs`; both its end addresses must be
        on the device."""
        chunk = self.chunks.get(key)
        if (chunk is None or first < 0
                or first + count > self._sectors_per_chunk):
            self.geometry.check(Ppa(*key, first))
            self.geometry.check(Ppa(*key, first + count - 1))
        return chunk, first, count, offset

    def _split_runs(self, ppas: PpaVector) -> Tuple[List[_Run], int]:
        """The maximal chunk-contiguous runs of *ppas*, each with its
        offset into the flattened vector, and the vector's sector count.

        A :class:`PpaRun` passes through as told.  In a list, pieces —
        runs, or single addresses — that continue each other in one chunk
        merge: however a vector was cut up, the same ``read_run`` /
        ``write_run`` processes serve it.
        """
        runs: List[_Run] = []
        key = None
        first = count = offset = 0
        for piece in (ppas,) if type(ppas) is PpaRun else ppas:
            if type(piece) is PpaRun:
                if not piece.count:
                    continue
                piece_key, sector, more = piece.key, piece.first, piece.count
            else:
                piece_key, sector, more = piece[:3], piece[3], 1
            if sector == first + count and piece_key == key:
                count += more
                continue
            if count:
                runs.append(self._run(key, first, count, offset))
                offset += count
            key, first, count = piece_key, sector, more
        if count:
            runs.append(self._run(key, first, count, offset))
        return runs, offset + count

    def _do_write(self, command: VectorWrite, span=None):
        runs, total = self._split_runs(command.ppas)
        oob = command.oob
        if oob is not None and len(oob) != total:
            raise WriteUnitError(
                f"vector write with {total} addresses but "
                f"{len(oob)} OOB entries")
        # Admission is synchronous and in vector order: write pointers
        # advance and payloads become readable before the timed transfer —
        # the semantics of a controller that buffers on arrival.  A
        # validation error mid-vector leaves earlier runs admitted: the
        # paper is explicit that vector writes are *not* atomic (§4.3).
        if len(runs) == 1:
            # Single-run vectors dominate; drive the controller inline
            # instead of paying a process spawn + join for no parallelism.
            chunk, first_sector, count, __ = runs[0]
            chunk.admit_write(first_sector, count, command.data, oob)
            results = [(yield from self.controller.write_run(
                chunk, first_sector, count, fua=command.fua, span=span))]
        else:
            # The buffer is sized (and, if mutable, copied) once for the
            # whole vector; each run admits its slice of that view.
            sector_size = self.geometry.sector_size
            view = payload_view(command.data, total, sector_size)
            for chunk, first_sector, count, offset in runs:
                chunk.admit_write(
                    first_sector, count,
                    view[offset * sector_size:
                         (offset + count) * sector_size],
                    oob[offset:offset + count] if oob is not None else None)
            # A crash before the children's first step must fail them.
            epoch = self.controller.epoch
            procs = [self.sim.spawn(
                         self.controller.write_run(chunk, first_sector, count,
                                                   fua=command.fua, span=span,
                                                   epoch=epoch),
                         name=f"write{chunk.address.chunk_key()}")
                     for chunk, first_sector, count, __ in runs]
            results = yield self.sim.all_of(procs)
        if all(results):
            return Completion(status=_OK)
        return Completion(status=_WRITE_FAILED,
                          error="program failure (see notifications)")

    def _split_linears(self, linears: List[int]) -> List[_Run]:
        """:meth:`_split_runs` for linear sector addresses."""
        per_chunk = self._sectors_per_chunk
        chunks = self._chunk_list
        limit = len(chunks) * per_chunk
        total = len(linears)
        runs: List[_Run] = []
        start = 0
        while start < total:
            first = linears[start]
            if not 0 <= first < limit:
                raise GeometryError(f"linear index {first} out of range")
            chunk_index, sector = divmod(first, per_chunk)
            # A run ends with its chunk, whatever address follows.
            stop = min(total, start + per_chunk - sector)
            end = start + 1
            while end < stop and linears[end] == first + (end - start):
                end += 1
            runs.append((chunks[chunk_index], sector, end - start, start))
            start = end
        return runs

    def read_sectors_proc(self, linears: List[int], parent=None):
        """Process generator: the payload-only read lane of an FTL's
        foreground reads.

        Reads the sectors at the linear addresses *linears* (see
        :meth:`DeviceGeometry.linearize`) with the timing, root span and
        histograms of ``submit(VectorRead(...))``, minus the per-sector
        ``Ppa``, command and Completion objects and the OOB copy.
        Returns the payload as ``Completion.data`` carries it — a short
        list of views, in vector order, joining to ``len(linears)``
        sectors — or ``None`` on any failure (power loss, uncorrectable
        read, an address a racing reset made unreadable): callers retry
        or surface the error exactly as they would a failed Completion.
        """
        faults = self.faults
        if faults is not None and not faults.powered:
            return None
        obs = self.obs
        span = obs.begin("ocssd", "read", parent) if obs is not None else None
        status = _OK
        try:
            payloads, __ = yield from self._read_runs_proc(
                self._split_linears(linears), len(linears), False, span)
        except MediaError:
            payloads = None
            status = _READ_FAILED
        except ReproError as exc:
            payloads = None
            status = _INVALID
            if obs is not None:
                obs.error("ocssd", "invalid-command", str(exc))
        if obs is not None:
            obs.close(span, "ocssd.read.latency_s", status=status.name)
        return payloads

    def _read_runs_proc(self, runs: List[_Run], total: int, want_oob: bool,
                        span, meta_only: bool = False):
        """Timed read of *runs* (*total* sectors in all): one run inline —
        no process spawn + join for parallelism that is not there —,
        several as one spawned process each.  Returns ``(payloads, oob)``
        in vector order (*oob* is None unless *want_oob*, *payloads* empty
        when *meta_only*); raises :class:`MediaError` if any run was
        uncorrectable."""
        read_run = self.controller.read_run
        if len(runs) == 1:
            chunk, first_sector, count, __ = runs[0]
            data = yield from read_run(chunk, first_sector, count, span,
                                       meta_only)
            return data, (chunk.read_oob(first_sector, count)
                          if want_oob else None)
        parts: List[List[memoryview]] = [[] for __ in runs]
        oob: Optional[List[object]] = [None] * total if want_oob else None
        failures: List[str] = []

        def one_run(index: int, chunk: Chunk, first_sector: int, count: int,
                    offset: int):
            try:
                parts[index] = yield from read_run(
                    chunk, first_sector, count, span, meta_only)
            except MediaError as exc:
                failures.append(str(exc))
                return
            if want_oob:
                oob[offset:offset + count] = chunk.read_oob(first_sector,
                                                            count)

        yield self.sim.all_of([
            self.sim.spawn(one_run(index, *run), name="read-run")
            for index, run in enumerate(runs)])
        if failures:
            raise MediaError("; ".join(failures))
        return [view for part in parts for view in part], oob

    def _do_read(self, command: VectorRead, span=None):
        runs, total = self._split_runs(command.ppas)
        try:
            data, oob = yield from self._read_runs_proc(
                runs, total, True, span, command.meta_only)
        except MediaError as exc:
            return Completion(status=_READ_FAILED, oob=[None] * total,
                              error=str(exc))
        return Completion(status=_OK, data=data, oob=oob)

    def _do_reset(self, command: ChunkReset, span=None):
        chunk = self._chunk(command.ppa)
        epoch = self.controller.epoch
        ok = yield from self.controller.reset_chunk(chunk, span=span)
        if ok:
            return Completion(status=_OK)
        if epoch != self.controller.epoch:
            return Completion(status=_POWER_FAIL, error="power lost")
        return Completion(status=_RESET_FAILED,
                          error=f"reset failed for {chunk.address}")

    def _do_copy(self, command: VectorCopy, span=None):
        """Device-internal copy: data never crosses the host interface.

        Payloads move synchronously (chunk state to chunk state); the timed
        part is the source reads plus the destination programs.
        """
        src_runs, total = self._split_runs(command.src)
        dst_runs, dst_total = self._split_runs(command.dst)
        if dst_total != total:
            raise WriteUnitError(
                f"vector copy with {total} sources but "
                f"{dst_total} destinations")
        dst_oob = command.dst_oob
        if dst_oob is not None and len(dst_oob) != total:
            raise WriteUnitError(
                f"vector copy with {total} destinations but "
                f"{len(dst_oob)} OOB overrides")
        # The move itself: one join of the source views, one slice of the
        # result per destination run.
        views: List[memoryview] = []
        oobs: List[Optional[object]] = []
        for chunk, first_sector, count, __ in src_runs:
            views += chunk.read(first_sector, count)
            oobs += chunk.read_oob(first_sector, count)
        if dst_oob is not None:
            oobs = dst_oob
        sector_size = self.geometry.sector_size
        moved = memoryview(b"".join(views))
        for chunk, first_sector, count, offset in dst_runs:
            chunk.admit_write(
                first_sector, count,
                moved[offset * sector_size:(offset + count) * sector_size],
                oobs[offset:offset + count])

        epoch = self.controller.epoch   # as in _do_write
        failures: List[str] = []

        def read_timing(chunk: Chunk, first_sector: int, count: int,
                        offset: int):
            try:
                # Timing only: the payloads moved above.
                yield from self.controller.read_run(
                    chunk, first_sector, count, span, True, epoch)
            except MediaError as exc:
                # The destinations still program what was staged, but the
                # copy fails: they hold bytes the media could not read.
                failures.append(str(exc))

        # Dependency order: a destination is programmed from what its
        # sources read, so no destination transfer starts before they end.
        yield self.sim.all_of([self.sim.spawn(read_timing(*run),
                                              name="copy-read")
                               for run in src_runs])
        results = yield self.sim.all_of([self.sim.spawn(
            self.controller.write_run(chunk, first_sector, count, span=span,
                                      epoch=epoch),
            name="copy-write") for chunk, first_sector, count, __ in dst_runs])
        if failures:
            return Completion(status=_READ_FAILED, error="; ".join(failures))
        if all(results):
            return Completion(status=_OK)
        return Completion(status=_WRITE_FAILED,
                          error="copy destination not programmed")
