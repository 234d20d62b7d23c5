"""The journal: one owner for the WAL ring, the checkpoint slots and the
counters that tie them.

"In all our designs, we use write-ahead logging and checkpoints to ensure
atomicity and durability of FTL writes" (§4.3) — one mechanism, so one
place knows its couplings:

* a checkpoint's sequence number is the epoch of the log that follows it;
* ``next_txn_id`` rides in the checkpoint header and ends up past every
  transaction the log of that epoch committed;
* the slot is written before the ring is truncated, and a load reads the
  newest complete slot, then the ring of that epoch — whatever a crash
  between the two left in the ring is stamped with the epoch before.

An FTL says only what its records *mean*: which rows a checkpoint holds,
how a table row or a log record applies, when a replayed entry is durable.
An FTL that commits only in its units' OOB stamps (OX-ELEOS) keeps no
ring: it passes ``wal_chunk_count`` None, and writes and reads its
checkpoint slots through ``checkpointer`` itself.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.ox.ftl import serial
from repro.ox.ftl.checkpoint import CheckpointManager
from repro.ox.ftl.provisioning import MetadataLayout
from repro.ox.ftl.wal import WalAppender
from repro.ox.media import MediaManager


class Journal:
    """The durability plane of one FTL instance on *media*."""

    def __init__(self, media: MediaManager, wal_chunk_count: Optional[int],
                 ckpt_chunks_per_slot: int):
        self.layout = MetadataLayout.build(
            media.geometry, wal_chunk_count=wal_chunk_count or 0,
            ckpt_chunks_per_slot=ckpt_chunks_per_slot)
        self.wal = (None if wal_chunk_count is None else
                    WalAppender(media, self.layout.wal_chunks, epoch=0))
        self.checkpointer = CheckpointManager(media, self.layout.ckpt_slots)
        self.next_txn_id = 1
        #: "Checkpoint if the ring is pressed", set by an FTL whose
        #: background work (GC) logs between its own transactions and
        #: must be able to ask for room.
        self.relieve_proc = None

    # -- logging -------------------------------------------------------------

    def take_txn_id(self) -> int:
        txn_id = self.next_txn_id
        self.next_txn_id += 1
        return txn_id

    def log_txn(self, rtype: int, txn_id: int, rows: Sequence[tuple]) -> None:
        """Buffer transaction *txn_id*: *rows* as records of kind *rtype*,
        then its ``COMMIT``.  Durable once ``wal.flush_proc`` returns."""
        for record in serial.split(rtype, (txn_id,), rows,
                                   self.wal.sector_size):
            self.wal.append(record)
        self.wal.append(serial.encode(serial.REC_COMMIT, (txn_id,)))

    def pressed(self, threshold: float) -> bool:
        """Whether the ring is fuller than *threshold*: checkpoint now,
        or a later flush finds it exhausted."""
        return self.wal.fill_fraction() > threshold

    # -- checkpointing -------------------------------------------------------

    def checkpoint_proc(self, records: Sequence[bytes], map_entries: int = 0,
                        chunk_entries: int = 0, parent=None):
        """Process generator: persist *records* (the FTL's state, every
        mapping in it pointing at durable data) as the next checkpoint,
        then truncate the log it makes redundant."""
        seq = self.wal.epoch + 1
        yield from self.checkpointer.write_payload_proc(
            seq, self.next_txn_id, records, map_entries, chunk_entries,
            parent)
        yield from self.wal.truncate_proc(seq, parent)

    # -- recovery ------------------------------------------------------------

    def load_proc(self, report):
        """Process generator: position the journal after a restart and
        return ``(tables, records)`` — the newest complete checkpoint's
        rows by record type (empty if there is none) and the log of its
        epoch.  Fills the read side of *report* (a
        :class:`~repro.ox.ftl.recovery.RecoveryReport`)."""
        tables: Dict[int, list] = {}
        checkpoint = yield from self.checkpointer.read_latest_proc()
        if checkpoint is not None:
            self.wal.epoch, self.next_txn_id, tables = checkpoint
            report.checkpoint_seq = self.wal.epoch
        records, report.wal_sectors_read = yield from self.wal.read_proc()
        report.records_decoded = len(records)
        return tables, records

    def fold(self, records: Iterable[serial.Record]
             ) -> Iterator[Tuple[int, int, List[tuple]]]:
        """*records* as ``(REC_COMMIT, txn_id, rows)`` in log order, one
        item per committed transaction carrying every row logged under its
        id.  Rows
        without a commit (the crash window) are discarded — that is the
        WAL's atomicity guarantee — and ``next_txn_id`` moves past every
        transaction yielded."""
        pending: Dict[int, List[tuple]] = {}
        for record in records:
            rtype = record.rtype
            if rtype == serial.REC_MAP_UPDATE:
                (txn_id,), rows = serial.decode(record)
                pending.setdefault(txn_id, []).extend(rows)
            elif rtype == serial.REC_COMMIT:
                (txn_id,), __ = serial.decode(record)
                if txn_id in pending:
                    self.next_txn_id = max(self.next_txn_id, txn_id + 1)
                    yield rtype, txn_id, pending.pop(txn_id)
