"""Checkpointing: bounded recovery time (the mechanism behind Figure 3).

A checkpoint persists the FTL's durable state into one of two alternating
slots, then the caller truncates the WAL.  Recovery reads both slots,
validates completeness via the footer record, and starts from the newest
complete one.  "The checkpoint process truncates the log at regular
intervals", which is why recovery time "oscillates up and down and remains
constant" instead of growing with runtime (§4.3).

The manager is FTL-agnostic: OX-Block persists page-map and chunk-metadata
records, OX-ELEOS persists variable-page-map and segment records; both go
through :meth:`CheckpointManager.write_payload_proc`, and
:meth:`read_latest_proc` decodes every known record type into a
:class:`CheckpointSnapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import FTLError, RecoveryError
from repro.ocssd.address import Ppa, PpaRun
from repro.ox.ftl import serial
from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable
from repro.ox.media import MediaManager

ChunkKey = Tuple[int, int, int]


@dataclass
class CheckpointSnapshot:
    """A decoded checkpoint, as recovered from media."""

    seq: int
    next_txn_id: int
    map_entries: List[Tuple[int, int]] = field(default_factory=list)
    chunk_rows: List[Tuple[int, int, int]] = field(default_factory=list)
    vmap_entries: List[Tuple[int, int, int, int]] = field(default_factory=list)
    segments: List[Tuple[int, List[int]]] = field(default_factory=list)


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
        self.checkpoints_written = 0

    # -- writing ---------------------------------------------------------------

    def write_proc(self, seq: int, page_map: PageMap, chunk_table: ChunkTable,
                   next_txn_id: int):
        """Persist an OX-Block-style checkpoint (page map + chunk table).

        The caller must hold the FTL dispatch lock (stop-the-world): the
        snapshot must be consistent with the WAL truncation that follows.
        """
        records: List[bytes] = []
        map_packed = page_map.snapshot_packed()
        chunk_snapshot = chunk_table.snapshot()
        records.extend(serial.split_ckpt_map_packed(map_packed,
                                                    self.sector_size))
        records.extend(serial.split_ckpt_chunk(chunk_snapshot,
                                               self.sector_size))
        yield from self.write_payload_proc(seq, next_txn_id, records,
                                           map_entries=len(map_packed) // 16,
                                           chunk_entries=len(chunk_snapshot))
        page_map.mark_clean()

    def write_payload_proc(self, seq: int, next_txn_id: int,
                           records: Sequence[bytes],
                           map_entries: int = 0, chunk_entries: int = 0):
        """Persist checkpoint *seq* with caller-provided records, durably
        (FUA), framed by a header and a checksummed footer."""
        slot = self.slots[seq % 2]
        writer = serial.FrameWriter(self.sector_size)
        writer.append(serial.encode_ckpt_header(
            seq, map_entries, chunk_entries, next_txn_id))
        for record in records:
            writer.append(record)
        writer.append(serial.encode_ckpt_footer(seq))
        frames = writer.frames()

        capacity = len(slot) * self.sectors_per_chunk
        padded = len(frames) + ((-len(frames)) % self.ws_min)
        if padded > capacity:
            raise FTLError(
                f"checkpoint needs {padded} sectors but the slot holds "
                f"{capacity}; enlarge ckpt_chunks_per_slot")

        for key in slot:
            info = self.media.chunk_info(Ppa(*key, 0))
            if info.write_pointer > 0 or info.state.value != "free":
                completion = yield from self.media.reset_proc(Ppa(*key, 0))
                self.media.require_ok(completion, "checkpoint slot reset")
        # One buffer; the padding to a whole write unit is its missing tail.
        data = memoryview(b"".join(frames))
        sector_size = self.sector_size
        offset = 0
        for key in slot:
            if offset >= padded:
                break
            batch = min(padded - offset, self.sectors_per_chunk)
            oob = [("ckpt", seq, offset + i) for i in range(batch)]
            completion = yield from self.media.write_proc(
                PpaRun(key, 0, batch),
                data[offset * sector_size:(offset + batch) * sector_size],
                oob=oob, fua=True)
            self.media.require_ok(completion, "checkpoint write")
            offset += batch
        self.checkpoints_written += 1

    # -- recovery ------------------------------------------------------------------

    def read_latest_proc(self):
        """Return the newest complete :class:`CheckpointSnapshot`, or None
        if no complete checkpoint exists (freshly formatted device or
        first-checkpoint crash)."""
        best: Optional[CheckpointSnapshot] = None
        for slot in self.slots:
            snapshot = yield from self._read_slot_proc(slot)
            if snapshot is not None and (best is None
                                         or snapshot.seq > best.seq):
                best = snapshot
        return best

    def _read_slot_proc(self, slot: List[ChunkKey]):
        chunk_info = self.media.chunk_info
        ppas = [PpaRun(key, 0, chunk_info(Ppa(*key, 0)).write_pointer)
                for key in slot]
        if not any(ppas):
            return None
        completion = yield from self.media.read_proc(ppas)
        if not completion.ok:
            return None
        snapshot = CheckpointSnapshot(seq=-1, next_txn_id=0)
        saw_header = False
        complete = False
        try:
            for frame in serial.iter_frames(completion.data,
                                            self.sector_size):
                for record in serial.decode_frame(frame):
                    if record.rtype == serial.REC_CKPT_HEADER:
                        seq, __, __, next_txn = serial.decode_ckpt_header(
                            record.body)
                        snapshot.seq = seq
                        snapshot.next_txn_id = next_txn
                        saw_header = True
                    elif record.rtype == serial.REC_CKPT_MAP:
                        snapshot.map_entries.extend(
                            serial.decode_ckpt_map(record.body))
                    elif record.rtype == serial.REC_CKPT_CHUNK:
                        snapshot.chunk_rows.extend(
                            serial.decode_ckpt_chunk(record.body))
                    elif record.rtype == serial.REC_CKPT_VMAP:
                        snapshot.vmap_entries.extend(
                            serial.decode_ckpt_vmap(record.body))
                    elif record.rtype == serial.REC_CKPT_SEGMENT:
                        snapshot.segments.append(
                            serial.decode_segment(record.body))
                    elif record.rtype == serial.REC_CKPT_FOOTER:
                        footer_seq = serial.decode_ckpt_footer(record.body)
                        complete = saw_header and footer_seq == snapshot.seq
        except RecoveryError:
            return None
        return snapshot if complete else None
