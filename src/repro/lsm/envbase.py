"""Shared machinery under the concrete storage environments.

:mod:`repro.lsm.env` defines *what* the LSM engine needs from storage;
this module holds the *how* that every on-device environment kept
re-implementing before the stack refactor:

* :class:`ManifestEnv` — the MANIFEST-governed visibility contract
  shared by :class:`~repro.lsm.blockenv.BlockDevEnv` and
  :class:`~repro.lsm.znsenv.ZnsEnv`: version-edit logging and the
  replay-then-read-meta recovery walk.
  (LightLSM deliberately does **not** inherit this: atomic SSTable
  flush makes the MANIFEST unnecessary, §5.)
* :func:`pad_to_sectors` — the meta-blob padding the sector-addressed
  FTLs ask of their host (round up to whole sectors).
* :class:`StripedTableWriter` — the table writer under LightLSM and
  :class:`~repro.lsm.znsenv.ZnsEnv`: one block write in flight per
  lane of the table's stripe, joined before the commit or the reclaim.
* :class:`WriteDispatcher` — the paper's "single dispatch thread"
  (§4.2): one queue, strictly serialized submissions, overlapping
  completions.  LightLSM owns the only write pointers today, but the
  thread itself is environment-agnostic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.errors import ReproError
from repro.lsm.env import (
    SSTableHandle, SSTableWriter, StorageEnv, replay_manifest)
from repro.ocssd.address import PpaVector
from repro.ocssd.commands import Buffer, VectorWrite
from repro.sim.resources import Store


def pad_to_sectors(blob: bytes, sector_size: int) -> Tuple[int, bytes]:
    """Pad *blob* to whole sectors; returns ``(sectors, padded)``."""
    sectors = -(-len(blob) // sector_size)
    return sectors, blob.ljust(sectors * sector_size, b"\x00")


class ManifestEnv(StorageEnv):
    """A storage env whose table visibility is governed by a MANIFEST.

    Subclasses own ``self._tables`` (id -> per-env layout record) and
    ``self.sector_size``; this base supplies the shared contract: the
    version-edit log, the recovery walk that replays it and reads each
    live table's meta, and the writer-admission checks.
    """

    def __init__(self) -> None:
        self._tables: Dict[int, object] = {}
        self.manifest: List[Tuple[str, int, int]] = []

    def _admit_writer(self, sstable_id: int, block_size: int) -> None:
        """Both MANIFEST envs sit on sector-addressed FTLs: blocks need
        only sector alignment, and table ids must be fresh."""
        if block_size % self.sector_size:
            raise ReproError(f"block_size {block_size} not sector-aligned")
        self._require_new(sstable_id)

    def list_tables_proc(self):
        """Visibility via the MANIFEST, as on any file system: a table
        exists iff its "add" edit survived replay."""
        live = replay_manifest(self.manifest)
        result = []
        for sstable_id in sorted(live):
            if sstable_id not in self._tables:
                continue
            handle = SSTableHandle(sstable_id, live[sstable_id])
            blob = yield from self.read_meta_proc(handle)
            result.append((handle, blob))
        return result

    def log_version_edit(self, edit: Tuple[str, int, int]) -> None:
        self.manifest.append(edit)


class StripedTableWriter(SSTableWriter):
    """Streams one table's blocks over the *lanes* of its stripe (the
    channels of a LightLSM chunk stripe, the zones of a ZnsEnv stripe),
    one block write in flight per lane: a block write first waits for
    the previous one on its lane, when the writer next uses that lane
    (back-pressure at the speed the device cache admits writes).

    A subclass places and submits each block (``_wait_lane_proc``, then
    ``_submitted``), reads a landed write in ``_landed`` and supplies its
    ``_commit_proc`` and ``_discard_proc``.  ``finish_proc`` and
    ``abort_proc`` start with one join of every write in flight: finish
    raises the first failure, abort reclaims regardless, and no write
    lands on space the reclaim gave back.
    """

    def __init__(self) -> None:
        self.blocks = 0     # blocks submitted so far
        #: lane -> (block index, the done event of its write in flight)
        self._lanes: Dict[Hashable, Tuple[int, object]] = {}

    def _wait_lane_proc(self, lane: Hashable):
        """Wait for *lane*'s write in flight, if any; a failure raises."""
        entry = self._lanes.pop(lane, None)
        if entry is not None:
            index, done = entry
            self._landed(index, (yield done))

    def _submitted(self, lane: Hashable, done) -> None:
        """Block ``self.blocks`` went out on *lane*, *done* its landing."""
        self._lanes[lane] = (self.blocks, done)
        self.blocks += 1

    def _landed(self, index: int, value) -> None:
        """Block *index*'s write landed with *value*; raise if it failed."""

    def _join_proc(self):
        """Wait for every write in flight, in block order; the first
        failure once all are done, else None."""
        failure = None
        for index, done in sorted(self._lanes.values()):
            try:
                self._landed(index, (yield done))
            except ReproError as error:
                failure = failure or error
        self._lanes = {}
        return failure

    def finish_proc(self, meta_blob: bytes):
        failure = yield from self._join_proc()
        if failure is not None:
            raise failure
        return (yield from self._commit_proc(meta_blob))

    def abort_proc(self):
        yield from self._join_proc()
        yield from self._discard_proc()

    @abc.abstractmethod
    def _commit_proc(self, meta_blob: bytes):
        """Every block landed: persist the meta, commit; the handle."""

    @abc.abstractmethod
    def _discard_proc(self):
        """No write in flight: give the partial table's space back."""


@dataclass
class _DispatchJob:
    ppas: PpaVector
    data: Buffer
    oob: List[object]
    fua: bool
    done: object   # Event


class WriteDispatcher:
    """The thread(s) owning the write pointers (§4.2): submissions are
    strictly serialized in queue order, completions overlap.

    The paper runs exactly one dispatch thread "so that there are no
    concurrent accesses to the write pointers" and names it the
    bottleneck keeping LightLSM from saturating the device.  *workers*
    makes that an axis: N loops drain the same queue, so up to N jobs
    can be paying *dispatch_cpu* (the per-submission CPU cost of the
    thread) at once.  The defaults — one worker, zero CPU — are the
    paper's configuration and are bit-identical to the historical
    single-loop dispatcher; the bottleneck only materializes when
    ``dispatch_cpu > 0``, once several block writes are queued (a
    LightLSM table writer keeps one in flight per channel its stripe
    spans, and several writers contend).
    """

    def __init__(self, sim, media, name: str = "lsm", workers: int = 1,
                 dispatch_cpu: float = 0.0):
        if workers < 1:
            raise ReproError(
                f"WriteDispatcher: workers must be >= 1, got {workers}")
        if dispatch_cpu < 0:
            raise ReproError(
                f"WriteDispatcher: dispatch_cpu must be >= 0, "
                f"got {dispatch_cpu}")
        self.sim = sim
        self.media = media
        self.workers = workers
        self.dispatch_cpu = dispatch_cpu
        self.jobs_dispatched = 0
        self._queue = Store(sim, name=f"{name}-dispatch")
        for worker in range(workers):
            suffix = "" if worker == 0 else f"-{worker}"
            sim.spawn(self._dispatcher(),
                      name=f"{name}-dispatcher{suffix}")
        self._write_name = f"{name}-write"

    def submit(self, ppas: PpaVector, data: Buffer,
               oob: List[object], fua: bool = False):
        """Queue a write on the dispatch thread; returns the done event."""
        done = self.sim.event()
        self._queue.put(_DispatchJob(ppas, data, oob, fua, done))
        return done

    def _dispatcher(self):
        def completer(job: _DispatchJob):
            completion = yield from self.media.device.submit(
                VectorWrite(ppas=job.ppas, data=job.data, oob=job.oob,
                            fua=job.fua))
            job.done.succeed(completion)

        while True:
            job: _DispatchJob = yield self._queue.get()
            if self.dispatch_cpu:
                # The dispatch thread's own work: while it burns CPU on
                # this submission, queued jobs wait (unless another
                # worker is free) — the §4.2 bottleneck.
                yield self.sim.timeout(self.dispatch_cpu)
            self.jobs_dispatched += 1
            # Spawning admits the write synchronously on the process's
            # first step, in queue order: write pointers advance under a
            # single logical thread per worker.
            self.sim.spawn(completer(job), name=self._write_name)
