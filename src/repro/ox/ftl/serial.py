"""Binary serialization of FTL metadata: WAL records and checkpoints.

Everything the FTL persists is sector-sized frames of records:

* A **frame** is one sector: ``[u32 payload_length][payload][padding]``.
* A **record** inside a payload is ``[u8 type][u32 body_length][body]``.
* A **body** is a fixed-size *head* followed by zero or more fixed-size
  *rows*; :data:`KINDS` is the one table of what each record type's head
  and rows are.  Adding a record kind is one row of that table.

Records never span sectors (writers start a new frame when a record would
not fit), so a torn tail — the normal case after a crash — costs at most
the records in the unwritten frames, never a mis-parse.
"""

from __future__ import annotations

import struct
import zlib
from itertools import chain
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import RecoveryError

_FRAME_HEADER = struct.Struct("<I")
_RECORD_HEADER = struct.Struct("<BI")
_CRC = struct.Struct("<I")

# Record types.
REC_MAP_UPDATE = 1
REC_COMMIT = 2
REC_CKPT_HEADER = 3
REC_CKPT_MAP = 4
REC_CKPT_CHUNK = 5
REC_CKPT_FOOTER = 6
# OX-ELEOS checkpoint records: variable-size page mapping + LSS segments.
REC_CKPT_VMAP = 11
REC_CKPT_SEGMENT = 12

# Sentinel for "no previous mapping" in map-update records.
NO_PPA = 2**64 - 1


class Kind(NamedTuple):
    """One record type: a fixed head, then rows of one fixed shape."""

    name: str
    head: struct.Struct
    head_fields: str
    row: Optional[struct.Struct]   # None: the record is its head
    row_fields: str
    writer: str        # who writes it (DESIGN's "Metadata records" table)
    #: The head is followed by its CRC32: a torn or stale record decodes
    #: as a :class:`RecoveryError`, never as a valid one.
    crc: bool = False


_S = struct.Struct
_NO_HEAD = _S("<")
_ID = _S("<Q")

KINDS: Dict[int, Kind] = {
    REC_MAP_UPDATE: Kind(
        "MAP_UPDATE", _ID, "txn_id", _S("<QQQ"), "lba, new_ppa, old_ppa",
        "OX-Block WAL: write, trim, GC relocation"),
    REC_COMMIT: Kind(
        "COMMIT", _ID, "txn_id", None, "", "OX-Block WAL"),
    REC_CKPT_HEADER: Kind(
        "CKPT_HEADER", _S("<QQQQ"),
        "seq, map_entries, chunk_entries, next_txn_id", None, "",
        "every checkpoint, first record"),
    REC_CKPT_MAP: Kind(
        "CKPT_MAP", _NO_HEAD, "", _S("<QQ"), "lba, ppa",
        "OX-Block checkpoint"),
    REC_CKPT_CHUNK: Kind(
        "CKPT_CHUNK", _NO_HEAD, "", _S("<QBI"),
        "chunk_linear, state, valid_count", "OX-Block checkpoint"),
    REC_CKPT_FOOTER: Kind(
        "CKPT_FOOTER", _ID, "seq", None, "",
        "every checkpoint, last record", crc=True),
    REC_CKPT_VMAP: Kind(
        "CKPT_VMAP", _NO_HEAD, "", _S("<QQII"),
        "page_id, linear, offset, length", "OX-ELEOS checkpoint"),
    REC_CKPT_SEGMENT: Kind(
        "CKPT_SEGMENT", _ID, "segment_id", _ID, "unit_linear",
        "OX-ELEOS checkpoint"),
}

# Records pack hundreds of fixed-size rows; one batched struct call per
# record beats one call per row by an order of magnitude.  Formats stay
# explicitly little-endian and unpadded, so the bytes are those of the
# rows packed one by one.
_ROW_PACKERS: Dict[Tuple[str, int], struct.Struct] = {}


def _pack_rows(row: struct.Struct, rows: Sequence[tuple]) -> bytes:
    key = (row.format, len(rows))
    packer = _ROW_PACKERS.get(key)
    if packer is None:
        packer = _ROW_PACKERS[key] = _S("<" + row.format[1:] * len(rows))
    return packer.pack(*chain.from_iterable(rows))


class Record(NamedTuple):
    """One framed record: its type tag and raw body bytes."""

    rtype: int
    body: bytes


def encode(rtype: int, head: tuple = (), rows=()) -> bytes:
    """One record of kind *rtype*.  *rows* is a sequence of row tuples or
    their already packed bytes (a whole number of rows)."""
    kind = KINDS[rtype]
    body = kind.head.pack(*head)
    if kind.crc:
        body += _CRC.pack(zlib.crc32(body))
    if rows:
        body += rows if isinstance(rows, (bytes, bytearray, memoryview)) \
            else _pack_rows(kind.row, rows)
    return _RECORD_HEADER.pack(rtype, len(body)) + body


def fits(rtype: int, row: tuple) -> bool:
    """Whether *row* packs as a row of kind *rtype*: every field an
    integer inside its width.  FTLs check what callers hand them against
    this, so no :class:`struct.error` leaves their API."""
    try:
        KINDS[rtype].row.pack(*row)
    except struct.error:
        return False
    return True


def decode(record: Record) -> Tuple[tuple, List[tuple]]:
    """``(head, rows)`` of a framed record; :class:`RecoveryError` on an
    unknown type, a body that is not a head plus whole rows, or a head
    that fails its checksum."""
    rtype, body = record
    kind = KINDS.get(rtype)
    if kind is None:
        raise RecoveryError(f"unknown record type {rtype}")
    head_size = kind.head.size
    rows_at = head_size + (_CRC.size if kind.crc else 0)
    extra = len(body) - rows_at
    if extra < 0 or (extra % kind.row.size if kind.row else extra):
        raise RecoveryError(
            f"{kind.name} record body of {len(body)} bytes is not a "
            f"{rows_at}-byte head plus whole rows")
    head = kind.head.unpack_from(body, 0)
    if kind.crc and _CRC.unpack_from(body, head_size)[0] \
            != zlib.crc32(body[:head_size]):
        raise RecoveryError(f"{kind.name} checksum mismatch (head {head})")
    if not extra:
        return head, []
    return head, list(kind.row.iter_unpack(memoryview(body)[rows_at:]))


def rows_per_record(rtype: int, sector_size: int) -> int:
    """Rows one record of kind *rtype* carries and still fits a frame."""
    kind = KINDS[rtype]
    capacity = (sector_size - _FRAME_HEADER.size - _RECORD_HEADER.size
                - kind.head.size)
    return max(1, capacity // kind.row.size)


def split(rtype: int, head: tuple, rows, sector_size: int) -> List[bytes]:
    """*rows* (tuples or packed bytes) as however many records of kind
    *rtype* it takes for each to fit one frame, every one under *head*;
    no rows, no records."""
    step = rows_per_record(rtype, sector_size)
    if isinstance(rows, (bytes, bytearray, memoryview)):
        step *= KINDS[rtype].row.size
    return [encode(rtype, head, rows[at:at + step])
            for at in range(0, len(rows), step)]


class FrameWriter:
    """Packs records into sector-sized frames, in one buffer."""

    def __init__(self, sector_size: int):
        self.sector_size = sector_size
        #: Payload bytes one frame holds.
        self.capacity = sector_size - _FRAME_HEADER.size
        # Whole sealed frames, then the open one: a length placeholder
        # and the _fill payload bytes appended so far.
        self._buffer = bytearray()
        self._fill = 0

    def append(self, record: bytes) -> None:
        size = len(record)
        if size > self.capacity:
            raise RecoveryError(
                f"record of {size} bytes exceeds frame capacity "
                f"{self.capacity}; split it before encoding")
        if self._fill + size > self.capacity:
            self._seal()
        if not self._fill:
            self._buffer += bytes(_FRAME_HEADER.size)
        self._buffer += record
        self._fill += size

    def frame_count(self) -> int:
        """Frames a :meth:`take` would return, without draining."""
        return -(-len(self._buffer) // self.sector_size)

    def take(self) -> bytearray:
        """Seal the open frame and hand over the buffer: whole frames,
        one sector each."""
        if self._fill:
            self._seal()
        buffer, self._buffer = self._buffer, bytearray()
        return buffer

    def _seal(self) -> None:
        buffer = self._buffer
        _FRAME_HEADER.pack_into(
            buffer, len(buffer) - self._fill - _FRAME_HEADER.size, self._fill)
        buffer += bytes(-len(buffer) % self.sector_size)
        self._fill = 0


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
