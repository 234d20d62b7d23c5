"""The write-ahead log.

"In all our designs, we use write-ahead logging (WAL) and checkpoints to
ensure atomicity and durability of FTL writes" (§4.3).  The log lives in a
fixed ring of chunks (see :class:`~repro.ox.ftl.provisioning.MetadataLayout`);
records are packed into sector frames, batches are padded to ``ws_min``
and written with FUA so a commit acknowledged to the caller is on NAND.

Each flushed sector carries ``("wal", epoch, seq)`` in its OOB: *epoch* is
the sequence number of the checkpoint the log is relative to, *seq* a
per-epoch monotone sector counter.  Recovery reads the ring in order and
stops at the first sector whose epoch/seq does not continue the chain —
which cleanly handles both a torn tail and a ring that was only partially
truncated when the crash hit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import FTLError, RecoveryError
from repro.ocssd.address import Ppa, PpaRun
from repro.ox.ftl import serial
from repro.ox.media import MediaManager

ChunkKey = Tuple[int, int, int]


class WalAppender:
    """The log ring at one epoch: buffer records, flush FUA batches,
    truncate — and, after a restart, read back what was flushed."""

    def __init__(self, media: MediaManager, chunks: Sequence[ChunkKey],
                 epoch: int):
        if not chunks:
            raise FTLError("WAL needs at least one chunk")
        self.media = media
        self.sim = media.sim
        # Observability (repro.obs): inherited from the simulator; None
        # unless a hub was attached before the FTL stack was built.
        self.obs = media.sim.obs
        self.chunks = list(chunks)
        self.epoch = epoch
        geometry = media.geometry
        self.ws_min = geometry.ws_min
        self.sectors_per_chunk = geometry.sectors_per_chunk
        self.sector_size = geometry.sector_size
        self._writer = serial.FrameWriter(self.sector_size)
        #: Buffer one encoded record (see :mod:`repro.ox.ftl.serial`).
        self.append = self._writer.append
        self.capacity_sectors = len(self.chunks) * self.sectors_per_chunk
        #: Sectors flushed this epoch: the ring position (chunk ``//``,
        #: sector ``%`` sectors_per_chunk) and the next OOB sequence number.
        self.used_sectors = 0
        self.sectors_written = 0

    def fill_fraction(self) -> float:
        """The ring's fill once the buffered frames are flushed."""
        return (self.used_sectors + self.sectors_needed(0)) \
            / self.capacity_sectors

    # -- appending -------------------------------------------------------------------

    def sectors_needed(self, more_frames: int) -> int:
        """Ring sectors a flush takes once *more_frames* frames join the
        buffered ones: whole write units."""
        count = self._writer.frame_count() + more_frames
        return count + (-count) % self.ws_min

    def drop_buffered(self) -> None:     # a checkpoint covers them
        self._writer.take()

    def flush_proc(self, parent=None):
        """Process generator: write buffered frames durably (FUA).

        Pads the batch to a whole number of write units — the writer's
        frames are the buffer, the padding its missing tail.  Raises
        :class:`FTLError` when the ring is exhausted — the caller must
        checkpoint (which truncates the ring) before this happens.  The
        check runs *before* anything is written, so a failed flush leaves
        the records buffered and the ring untouched: the caller can
        checkpoint and retry with no half-written batch in the log.
        """
        count = self._writer.frame_count()
        if not count:
            return 0
        padded = count + (-count) % self.ws_min
        if self.used_sectors + padded > self.capacity_sectors:
            raise FTLError(
                "WAL ring exhausted; checkpointing must truncate the "
                "log before it fills (records stay buffered)")
        data = memoryview(self._writer.take())

        obs = self.obs
        span = (obs.begin("ftl.wal", "flush", parent)
                if obs is not None else None)
        sector_size = self.sector_size
        per_chunk = self.sectors_per_chunk
        total = 0
        while total < padded:   # one write per ring chunk the batch touches
            used = self.used_sectors
            first = used % per_chunk
            batch = min(padded - total, per_chunk - first)
            oob = [("wal", self.epoch, used + i) for i in range(batch)]
            completion = yield from self.media.write_proc(
                PpaRun(self.chunks[used // per_chunk], first, batch),
                data[total * sector_size:(total + batch) * sector_size],
                oob=oob, fua=True, parent=span)
            self.media.require_ok(completion, "WAL flush")
            self.used_sectors += batch
            self.sectors_written += batch
            total += batch
        if obs is not None:
            obs.close(span, "ftl.wal.flush_s", sectors=total)
        return total

    # -- truncation --------------------------------------------------------------------

    def truncate_proc(self, new_epoch: int, parent=None):
        """Process generator: reset the ring and restart at *new_epoch*.

        Only call after a checkpoint with sequence *new_epoch* is durable —
        everything in the old log is then redundant, so the dirty chunks
        (striped over group 0's PUs) are erased side by side: whatever a
        crash leaves of them holds no sector of the new epoch.
        """
        obs = self.obs
        span = (obs.begin("ftl.wal", "truncate", parent)
                if obs is not None else None)
        for completion in (yield from self.media.reset_dirty_proc(
                self.chunks, "wal-truncate", span)):
            self.media.require_ok(completion, "WAL truncate")
        self.epoch = new_epoch
        self.used_sectors = 0
        if obs is not None:
            obs.end(span)

    # -- replay ----------------------------------------------------------------------

    def read_proc(self):
        """Process generator: read and decode the valid log of this epoch;
        returns ``(records, sectors)`` — the records in order and the ring
        sectors they took.  Timing is real: every sector is fetched
        through the device."""
        records: List[serial.Record] = []
        expected_seq = 0
        for key in self.chunks:
            info = self.media.chunk_info(Ppa(*key, 0))
            if info.write_pointer == 0:
                break
            completion = yield from self.media.read_proc(
                PpaRun(key, 0, info.write_pointer))
            self.media.require_ok(completion, "WAL read")
            for frame, sector_oob in zip(
                    serial.iter_frames(completion.data, self.sector_size),
                    completion.oob):
                if sector_oob != ("wal", self.epoch, expected_seq):
                    return records, expected_seq
                expected_seq += 1
                try:
                    records.extend(serial.decode_frame(frame))
                except RecoveryError:
                    return records, expected_seq
        return records, expected_seq
