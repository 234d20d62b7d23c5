"""Checkpointing: bounded recovery time (the mechanism behind Figure 3).

A checkpoint persists the FTL's durable state into one of two alternating
slots, then the journal (:mod:`repro.ox.ftl.journal`) truncates the WAL.
Recovery reads both slots, validates completeness via the footer record,
and starts from the newest complete one.  "The checkpoint process truncates the log at regular
intervals", which is why recovery time "oscillates up and down and remains
constant" instead of growing with runtime (§4.3).

The manager is FTL-agnostic: OX-Block persists page-map and chunk-metadata
records, OX-ELEOS persists variable-page-map and segment records; both go
through :meth:`CheckpointManager.write_payload_proc`, and
:meth:`read_latest_proc` hands back the rows it finds by record type —
each FTL picks the kinds it wrote.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FTLError, RecoveryError
from repro.ocssd.address import Ppa, PpaRun
from repro.ox.ftl import serial
from repro.ox.media import MediaManager

ChunkKey = Tuple[int, int, int]

#: A checkpoint as recovered from media: ``(seq, next_txn_id, {rtype:
#: rows})``.  A record without a head adds its rows to its type's list; one
#: with a head adds the single row ``(*head, rows)``.
Checkpoint = Tuple[int, int, Dict[int, list]]


class CheckpointManager:
    """Writes and recovers checkpoints in the two metadata slots."""

    def __init__(self, media: MediaManager,
                 slots: Sequence[Sequence[ChunkKey]]):
        if len(slots) != 2:
            raise FTLError("checkpointing uses exactly two slots")
        self.media = media
        self.slots = [list(slot) for slot in slots]
        geometry = media.geometry
        self.sector_size = geometry.sector_size
        self.ws_min = geometry.ws_min
        self.sectors_per_chunk = geometry.sectors_per_chunk

    # -- writing ---------------------------------------------------------------

    def write_payload_proc(self, seq: int, next_txn_id: int,
                           records: Sequence[bytes],
                           map_entries: int = 0, chunk_entries: int = 0,
                           parent=None):
        """Persist checkpoint *seq* with caller-provided records, durably
        (FUA), framed by a header and a checksummed footer.

        The caller must hold the FTL dispatch lock (stop-the-world): the
        records must be consistent with the WAL truncation that follows.
        """
        slot = self.slots[seq % 2]
        writer = serial.FrameWriter(self.sector_size)
        writer.append(serial.encode(
            serial.REC_CKPT_HEADER,
            (seq, map_entries, chunk_entries, next_txn_id)))
        for record in records:
            writer.append(record)
        writer.append(serial.encode(serial.REC_CKPT_FOOTER, (seq,)))
        # The writer's buffer is the payload; the padding to a whole write
        # unit is its missing tail.
        data = memoryview(writer.take())
        sector_size = self.sector_size
        frames = len(data) // sector_size

        capacity = len(slot) * self.sectors_per_chunk
        padded = frames + (-frames) % self.ws_min
        if padded > capacity:
            raise FTLError(
                f"checkpoint needs {padded} sectors but the slot holds "
                f"{capacity}; enlarge ckpt_chunks_per_slot")

        # Nothing orders one chunk of the slot after another — the footer
        # only counts if every chunk before its own is full (see
        # _read_slot_proc) — so dirty chunks are erased side by side, then
        # the stream's chunks written side by side.
        for completion in (yield from self.media.reset_dirty_proc(
                slot, "ckpt-reset", parent)):
            self.media.require_ok(completion, "checkpoint slot reset")
        per_chunk = self.sectors_per_chunk
        writes = []
        for key, offset in zip(slot, range(0, padded, per_chunk)):
            batch = min(padded - offset, per_chunk)
            writes.append(self.media.write_proc(
                PpaRun(key, 0, batch),
                data[offset * sector_size:(offset + batch) * sector_size],
                oob=[("ckpt", seq, offset + i) for i in range(batch)],
                fua=True, parent=parent))
        for completion in (yield from self.media.sim.join_proc(
                writes, "ckpt-write")):
            self.media.require_ok(completion, "checkpoint write")

    # -- recovery ------------------------------------------------------------------

    def read_latest_proc(self):
        """Return the newest complete :data:`Checkpoint`, or None if no
        complete checkpoint exists (freshly formatted device or
        first-checkpoint crash)."""
        best: Optional[Checkpoint] = None
        for slot in self.slots:
            found = yield from self._read_slot_proc(slot)
            if found is not None and (best is None or found[0] > best[0]):
                best = found
        return best

    def _read_slot_proc(self, slot: List[ChunkKey]):
        chunk_info = self.media.chunk_info
        ppas = [PpaRun(key, 0, chunk_info(Ppa(*key, 0)).write_pointer)
                for key in slot]
        if not any(ppas):
            return None
        # Chunks are erased and written side by side, so a crash can leave
        # a later one and not an earlier: the stream is whole only if
        # every chunk before its last is full.
        last = max(index for index, run in enumerate(ppas) if run)
        if any(len(run) != self.sectors_per_chunk for run in ppas[:last]):
            return None
        completion = yield from self.media.read_proc(ppas)
        if not completion.ok:
            return None
        header = None       # (seq, map_entries, chunk_entries, next_txn_id)
        complete = False
        tables: Dict[int, list] = {}
        try:
            for frame in serial.iter_frames(completion.data,
                                            self.sector_size):
                for record in serial.decode_frame(frame):
                    head, rows = serial.decode(record)
                    if record.rtype == serial.REC_CKPT_HEADER:
                        header = head
                    elif record.rtype == serial.REC_CKPT_FOOTER:
                        complete = header is not None and head[0] == header[0]
                    else:
                        tables.setdefault(record.rtype, []).extend(
                            [(*head, rows)] if head else rows)
        except RecoveryError:
            return None
        return (header[0], header[3], tables) if complete else None
