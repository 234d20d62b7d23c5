"""Binary serialization of FTL metadata: WAL records and checkpoints.

Everything the FTL persists is encoded with :mod:`struct` into sector-sized
frames:

* A **frame** is one sector: ``[u32 payload_length][payload][padding]``.
* A **record** inside a payload is ``[u8 type][u32 body_length][body]``.

Records never span sectors (writers start a new frame when a record would
not fit), so a torn tail — the normal case after a crash — costs at most
the records in the unwritten frames, never a mis-parse.
"""

from __future__ import annotations

import struct
import zlib
from itertools import chain
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.errors import RecoveryError

_FRAME_HEADER = struct.Struct("<I")
_RECORD_HEADER = struct.Struct("<BI")

# Record types.
REC_MAP_UPDATE = 1     # txn_id, [(lba, new_ppa, old_ppa)]
REC_COMMIT = 2         # txn_id
REC_CKPT_HEADER = 3    # seq, map_entries, chunk_entries, next_lba
REC_CKPT_MAP = 4       # [(lba, ppa)]
REC_CKPT_CHUNK = 5     # [(chunk_linear, state, valid_count)]
REC_CKPT_FOOTER = 6    # seq, checksum of seq (completion marker)
# OX-ELEOS records: variable-size page mapping + LSS segment lifecycle.
REC_VPAGE_UPDATE = 8   # txn_id, [(page_id, linear, offset, length)]
REC_SEGMENT_NEW = 9    # segment_id, [chunk_linear]
REC_SEGMENT_FREE = 10  # segment_id
REC_CKPT_VMAP = 11     # [(page_id, linear, offset, length)]
REC_CKPT_SEGMENT = 12  # segment_id, [chunk_linear]

_MAP_ENTRY = struct.Struct("<QQQ")     # lba, new_ppa, old_ppa
_CKPT_MAP_ENTRY = struct.Struct("<QQ")  # lba, ppa
_CKPT_CHUNK_ENTRY = struct.Struct("<QBI")  # chunk_linear, state, valid
_TXN = struct.Struct("<Q")
_CKPT_HEADER = struct.Struct("<QQQQ")
_CKPT_FOOTER = struct.Struct("<QI")

_VPAGE_ENTRY = struct.Struct("<QQII")  # page_id, linear, offset, length
_SEGMENT_HEADER = struct.Struct("<Q")  # segment_id

# Sentinel for "no previous mapping" in map-update records.
NO_PPA = 2**64 - 1

# Checkpoints pack hundreds of fixed-size entries per record; one batched
# struct call per record beats one call per entry by an order of magnitude.
# Formats stay explicitly little-endian, so the bytes are unchanged.
_BATCH_CACHE: dict = {}


def _batch(unit: str, count: int) -> struct.Struct:
    key = (unit, count)
    packer = _BATCH_CACHE.get(key)
    if packer is None:
        packer = _BATCH_CACHE[key] = struct.Struct("<" + unit * count)
    return packer


@dataclass(frozen=True)
class Record:
    """One decoded record: its type tag and raw body bytes."""

    rtype: int
    body: bytes


def encode_record(rtype: int, body: bytes) -> bytes:
    return _RECORD_HEADER.pack(rtype, len(body)) + body


def encode_map_update(txn_id: int,
                      entries: Sequence[Tuple[int, int, int]]) -> bytes:
    body = _TXN.pack(txn_id) + _batch("QQQ", len(entries)).pack(
        *chain.from_iterable(entries))
    return encode_record(REC_MAP_UPDATE, body)


def decode_map_update(body: bytes) -> Tuple[int, List[Tuple[int, int, int]]]:
    (txn_id,) = _TXN.unpack_from(body, 0)
    entries = list(_MAP_ENTRY.iter_unpack(memoryview(body)[_TXN.size:]))
    return txn_id, entries


def encode_commit(txn_id: int) -> bytes:
    return encode_record(REC_COMMIT, _TXN.pack(txn_id))


def decode_commit(body: bytes) -> int:
    (txn_id,) = _TXN.unpack(body)
    return txn_id


def encode_ckpt_header(seq: int, map_entries: int, chunk_entries: int,
                       next_lba: int) -> bytes:
    return encode_record(
        REC_CKPT_HEADER,
        _CKPT_HEADER.pack(seq, map_entries, chunk_entries, next_lba))


def decode_ckpt_header(body: bytes) -> Tuple[int, int, int, int]:
    return _CKPT_HEADER.unpack(body)


def decode_ckpt_map(body: bytes) -> List[Tuple[int, int]]:
    return list(_CKPT_MAP_ENTRY.iter_unpack(body))


def encode_ckpt_chunk(entries: Sequence[Tuple[int, int, int]]) -> bytes:
    body = _batch("QBI", len(entries)).pack(*chain.from_iterable(entries))
    return encode_record(REC_CKPT_CHUNK, body)


def decode_ckpt_chunk(body: bytes) -> List[Tuple[int, int, int]]:
    return list(_CKPT_CHUNK_ENTRY.iter_unpack(body))


def encode_ckpt_footer(seq: int) -> bytes:
    checksum = zlib.crc32(_TXN.pack(seq))
    return encode_record(REC_CKPT_FOOTER, _CKPT_FOOTER.pack(seq, checksum))


def decode_ckpt_footer(body: bytes) -> int:
    seq, checksum = _CKPT_FOOTER.unpack(body)
    if checksum != zlib.crc32(_TXN.pack(seq)):
        raise RecoveryError(f"checkpoint footer checksum mismatch (seq {seq})")
    return seq


def encode_vpage_update(txn_id: int,
                        entries: Sequence[Tuple[int, int, int, int]]) -> bytes:
    body = _TXN.pack(txn_id) + b"".join(
        _VPAGE_ENTRY.pack(*entry) for entry in entries)
    return encode_record(REC_VPAGE_UPDATE, body)


def decode_vpage_update(body: bytes) -> Tuple[int, List[Tuple[int, int, int, int]]]:
    (txn_id,) = _TXN.unpack_from(body, 0)
    entries = [_VPAGE_ENTRY.unpack_from(body, offset)
               for offset in range(_TXN.size, len(body), _VPAGE_ENTRY.size)]
    return txn_id, entries


def split_vpage_update(txn_id: int,
                       entries: Sequence[Tuple[int, int, int, int]],
                       sector_size: int) -> List[bytes]:
    capacity = sector_size - _FRAME_HEADER.size - _RECORD_HEADER.size
    per_record = max(1, (capacity - _TXN.size) // _VPAGE_ENTRY.size)
    return [encode_vpage_update(txn_id, entries[i:i + per_record])
            for i in range(0, len(entries), per_record)]


def _encode_segment(rtype: int, segment_id: int,
                    chunk_linears: Sequence[int]) -> bytes:
    body = _SEGMENT_HEADER.pack(segment_id) + b"".join(
        _TXN.pack(linear) for linear in chunk_linears)
    return encode_record(rtype, body)


def encode_segment_new(segment_id: int,
                       chunk_linears: Sequence[int]) -> bytes:
    return _encode_segment(REC_SEGMENT_NEW, segment_id, chunk_linears)


def encode_segment_free(segment_id: int) -> bytes:
    return _encode_segment(REC_SEGMENT_FREE, segment_id, [])


def encode_ckpt_segment(segment_id: int,
                        chunk_linears: Sequence[int]) -> bytes:
    return _encode_segment(REC_CKPT_SEGMENT, segment_id, chunk_linears)


def decode_segment(body: bytes) -> Tuple[int, List[int]]:
    (segment_id,) = _SEGMENT_HEADER.unpack_from(body, 0)
    linears = [_TXN.unpack_from(body, offset)[0]
               for offset in range(_SEGMENT_HEADER.size, len(body),
                                   _TXN.size)]
    return segment_id, linears


def encode_ckpt_vmap(entries: Sequence[Tuple[int, int, int, int]]) -> bytes:
    body = b"".join(_VPAGE_ENTRY.pack(*entry) for entry in entries)
    return encode_record(REC_CKPT_VMAP, body)


def decode_ckpt_vmap(body: bytes) -> List[Tuple[int, int, int, int]]:
    return [_VPAGE_ENTRY.unpack_from(body, offset)
            for offset in range(0, len(body), _VPAGE_ENTRY.size)]


def split_ckpt_vmap(entries: Sequence[Tuple[int, int, int, int]],
                    sector_size: int) -> List[bytes]:
    capacity = sector_size - _FRAME_HEADER.size - _RECORD_HEADER.size
    per_record = max(1, capacity // _VPAGE_ENTRY.size)
    return [encode_ckpt_vmap(entries[i:i + per_record])
            for i in range(0, len(entries), per_record)]


class FrameWriter:
    """Packs records into sector-sized frames."""

    def __init__(self, sector_size: int):
        self.sector_size = sector_size
        self._frames: List[bytes] = []
        self._current = bytearray()

    @property
    def payload_capacity(self) -> int:
        return self.sector_size - _FRAME_HEADER.size

    def append(self, record: bytes) -> None:
        if len(record) > self.payload_capacity:
            raise RecoveryError(
                f"record of {len(record)} bytes exceeds frame capacity "
                f"{self.payload_capacity}; split it before encoding")
        if len(self._current) + len(record) > self.payload_capacity:
            self._seal()
        self._current.extend(record)

    def frame_count(self) -> int:
        """Frames a :meth:`frames` call would return, without draining."""
        return len(self._frames) + (1 if self._current else 0)

    def frames(self) -> List[bytes]:
        """Seal the current frame and return all frames (each one sector)."""
        if self._current:
            self._seal()
        frames, self._frames = self._frames, []
        return frames

    def _seal(self) -> None:
        payload = bytes(self._current)
        frame = _FRAME_HEADER.pack(len(payload)) + payload
        frame += b"\x00" * (self.sector_size - len(frame))
        self._frames.append(frame)
        self._current = bytearray()


def split_map_update(txn_id: int, entries: Sequence[Tuple[int, int, int]],
                     sector_size: int) -> List[bytes]:
    """Encode a map-update that may exceed one frame as several records."""
    capacity = sector_size - _FRAME_HEADER.size - _RECORD_HEADER.size
    per_record = max(1, (capacity - _TXN.size) // _MAP_ENTRY.size)
    return [encode_map_update(txn_id, entries[i:i + per_record])
            for i in range(0, len(entries), per_record)]


def split_ckpt_map_packed(packed: bytes, sector_size: int) -> List[bytes]:
    """Checkpoint map records from pre-packed ``<QQ`` (lba, ppa) entry
    bytes (:meth:`PageMap.snapshot_packed`) — record bodies are byte
    slices of the blob, so the checkpoint hot path never materializes
    per-entry integers at all."""
    capacity = sector_size - _FRAME_HEADER.size - _RECORD_HEADER.size
    step = max(1, capacity // _CKPT_MAP_ENTRY.size) * _CKPT_MAP_ENTRY.size
    return [encode_record(REC_CKPT_MAP, packed[i:i + step])
            for i in range(0, len(packed), step)]


def split_ckpt_chunk(entries: Sequence[Tuple[int, int, int]],
                     sector_size: int) -> List[bytes]:
    capacity = sector_size - _FRAME_HEADER.size - _RECORD_HEADER.size
    per_record = max(1, capacity // _CKPT_CHUNK_ENTRY.size)
    return [encode_ckpt_chunk(entries[i:i + per_record])
            for i in range(0, len(entries), per_record)]


def iter_frames(views: Sequence[memoryview],
                sector_size: int) -> Iterator[memoryview]:
    """The sector frames of a read's payload (``Completion.data``: a few
    views, each a whole number of sectors), in order."""
    for view in views:
        for at in range(0, len(view), sector_size):
            yield view[at:at + sector_size]


def decode_frame(sector: bytes) -> Iterator[Record]:
    """Yield the records of one frame; an all-zero sector — padding, or
    one written without payload — yields nothing.

    Raises :class:`RecoveryError` on a structurally corrupt frame — a
    record that claims to extend past the frame payload.
    """
    if not sector or len(sector) < _FRAME_HEADER.size:
        return
    (length,) = _FRAME_HEADER.unpack_from(sector, 0)
    if length == 0:
        return
    end = _FRAME_HEADER.size + length
    if end > len(sector):
        raise RecoveryError(
            f"frame claims {length} payload bytes in a "
            f"{len(sector)}-byte sector")
    offset = _FRAME_HEADER.size
    while offset < end:
        rtype, body_length = _RECORD_HEADER.unpack_from(sector, offset)
        offset += _RECORD_HEADER.size
        if offset + body_length > end:
            raise RecoveryError("record extends past frame payload")
        yield Record(rtype, sector[offset:offset + body_length])
        offset += body_length
