"""SSTable format: fixed-size data blocks + bloom filter + block index.

"In RocksDB, a block is the unit of transfer for reads and writes.  The
size of an SSTable is a multiple of the RocksDB block size.  On a
dual-plane TLC drive, the size of a RocksDB block must be a multiple of
96KB" (§4.2) — so blocks here are exactly ``block_size`` bytes (the tail
of the last entry-bearing block is zero padding), and the LightLSM env
constrains ``block_size`` to a multiple of the device write unit.

Layout of one table::

    [block 0][block 1]...[block N-1]  +  meta (bloom, index, footer)

The meta section travels separately through the Env (it is what makes a
flushed SSTable self-describing, enabling MANIFEST-less recovery in
LightLSM).

Block encoding: back-to-back entries ``[u8 flag][u32 klen][key][u32 vlen]
[value]``; flag 1 marks a tombstone.  Entries never span blocks.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.lsm.bloom import BloomFilter
from repro.lsm.memtable import TOMBSTONE, _Tombstone

_ENTRY_HEADER = struct.Struct("<BI")
_U32 = struct.Struct("<I")
_FOOTER = struct.Struct("<QQIQI")   # sstable_id, entries, blocks, seq, magic
_MAGIC = 0x4C534D54   # "LSMT"
_KEY_AT = _ENTRY_HEADER.size        # an entry's key follows flag + klen
_VALUE_AT = _U32.size               # ... and its value follows vlen
_ENTRY_OVERHEAD = _KEY_AT + _VALUE_AT   # entry bytes beside key and value

Value = Union[bytes, _Tombstone]


def encode_entry(key: bytes, value: Value) -> bytes:
    if isinstance(value, _Tombstone):
        return _ENTRY_HEADER.pack(1, len(key)) + key + _U32.pack(0)
    return (_ENTRY_HEADER.pack(0, len(key)) + key
            + _U32.pack(len(value)) + value)


def decode_value(key: bytes, encoded: bytes) -> Value:
    """The value an encoded entry carries (its first byte is the flag)."""
    return TOMBSTONE if encoded[0] else encoded[_ENTRY_OVERHEAD + len(key):]


def decode_block(block: bytes) -> Tuple[List[bytes], List[bytes]]:
    """One data block (up to its zero padding) as two parallel lists:
    the keys, and the entries still encoded — one merged into another
    table travels as the slice it already is."""
    keys: List[bytes] = []
    entries: List[bytes] = []
    header, u32 = _ENTRY_HEADER.unpack_from, _U32.unpack_from
    offset = 0
    last = len(block) - _ENTRY_OVERHEAD
    while offset < last:
        klen = header(block, offset)[1]
        if klen == 0:
            break   # padding reached
        key_end = offset + _KEY_AT + klen
        entry_end = key_end + _VALUE_AT + u32(block, key_end)[0]
        keys.append(block[offset + _KEY_AT:key_end])
        entries.append(block[offset:entry_end])
        offset = entry_end
    return keys, entries


def search_block(block: bytes, key: bytes) -> Optional[Value]:
    """Point lookup within one block: walks the keys and slices out only
    the value of a hit."""
    header, u32 = _ENTRY_HEADER.unpack_from, _U32.unpack_from
    offset = 0
    last = len(block) - _ENTRY_OVERHEAD
    while offset < last:
        flag, klen = header(block, offset)
        if klen == 0:
            return None   # padding reached
        key_end = offset + _KEY_AT + klen
        entry_key = block[offset + _KEY_AT:key_end]
        value_at = key_end + _VALUE_AT
        value_end = value_at + u32(block, key_end)[0]
        if entry_key >= key:
            if entry_key != key:
                return None
            return TOMBSTONE if flag else block[value_at:value_end]
        offset = value_end
    return None


@dataclass
class SSTableMeta:
    """Self-describing metadata of one SSTable."""

    sstable_id: int
    sequence: int             # creation order; newer wins within a level
    block_size: int
    num_blocks: int
    entry_count: int
    first_keys: List[bytes]   # first key of each block
    last_key: bytes
    bloom: BloomFilter

    @property
    def first_key(self) -> bytes:
        return self.first_keys[0] if self.first_keys else b""

    def covers(self, key: bytes) -> bool:
        return bool(self.first_keys) and self.first_key <= key <= self.last_key

    def overlaps(self, first: bytes, last: bytes) -> bool:
        if not self.first_keys:
            return False
        return not (self.last_key < first or last < self.first_key)

    def locate(self, key: bytes) -> Optional[int]:
        """The index of the block that may hold *key* (None if out of
        range or the bloom filter rules it out)."""
        if not self.covers(key) or not self.bloom.may_contain(key):
            return None
        return bisect.bisect_right(self.first_keys, key) - 1

    # -- serialization -----------------------------------------------------------

    def serialize(self) -> bytes:
        parts = []
        parts.append(_U32.pack(self.block_size))
        parts.append(_U32.pack(len(self.first_keys)))
        for key in self.first_keys:
            parts.append(_U32.pack(len(key)))
            parts.append(key)
        parts.append(_U32.pack(len(self.last_key)))
        parts.append(self.last_key)
        bloom_blob = self.bloom.serialize()
        parts.append(_U32.pack(len(bloom_blob)))
        parts.append(bloom_blob)
        parts.append(_FOOTER.pack(self.sstable_id, self.entry_count,
                                  self.num_blocks, self.sequence, _MAGIC))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, blob: bytes) -> "SSTableMeta":
        try:
            offset = 0
            (block_size,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            (num_keys,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            first_keys = []
            for __ in range(num_keys):
                (klen,) = _U32.unpack_from(blob, offset)
                offset += _U32.size
                first_keys.append(blob[offset:offset + klen])
                offset += klen
            (llen,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            last_key = blob[offset:offset + llen]
            offset += llen
            (blen,) = _U32.unpack_from(blob, offset)
            offset += _U32.size
            bloom = BloomFilter.deserialize(blob[offset:offset + blen])
            offset += blen
            sstable_id, entries, blocks, sequence, magic = \
                _FOOTER.unpack_from(blob, offset)
        except struct.error as exc:
            raise ReproError(f"corrupt SSTable meta: {exc}") from exc
        if magic != _MAGIC:
            raise ReproError("corrupt SSTable meta: bad magic")
        if blocks != len(first_keys):
            raise ReproError("corrupt SSTable meta: block count mismatch")
        return cls(sstable_id=sstable_id, sequence=sequence,
                   block_size=block_size, num_blocks=blocks,
                   entry_count=entries, first_keys=first_keys,
                   last_key=last_key, bloom=bloom)


@dataclass
class SSTableData:
    """A fully materialized SSTable (used by tests and the MemEnv)."""

    meta: SSTableMeta
    blocks: List[bytes] = field(default_factory=list)

    def get(self, key: bytes) -> Optional[Value]:
        index = self.meta.locate(key)
        if index is None:
            return None
        return search_block(self.blocks[index], key)

    def items(self) -> Iterator[Tuple[bytes, Value]]:
        for block in self.blocks:
            for key, encoded in zip(*decode_block(block)):
                yield key, decode_value(key, encoded)


class SSTableBuilder:
    """Streams sorted entries into fixed-size blocks.

    ``add`` / ``add_encoded`` return a finished block whenever one fills;
    ``finish`` returns the final partial block (zero-padded to
    ``block_size``) plus the table's metadata.
    """

    def __init__(self, sstable_id: int, sequence: int, block_size: int,
                 bits_per_key: int = 10):
        if block_size < 64:
            raise ReproError(f"block_size {block_size} is too small")
        self.sstable_id = sstable_id
        self.sequence = sequence
        self.block_size = block_size
        self.bits_per_key = bits_per_key
        self._parts: List[bytes] = []     # encoded entries of the open block
        self._size = 0                    # ... and their total bytes
        self._first_keys: List[bytes] = []
        self._last_key = b""
        # Every key: the bloom filter is sized and built from them at
        # finish (RocksDB full-filter style).
        self._keys: List[bytes] = []
        self.data_bytes = 0               # key + value bytes added so far

    def add(self, key: bytes, value: Value) -> Optional[bytes]:
        """Append an entry (keys must arrive in strictly increasing
        order); returns a completed block when one fills."""
        return self.add_encoded(key, encode_entry(key, value))

    def add_encoded(self, key: bytes, encoded: bytes) -> Optional[bytes]:
        """:meth:`add` for an entry already in its block encoding (what
        :func:`decode_block` hands out), which goes in as it is."""
        if key <= self._last_key:
            if not key:
                # klen 0 is what the block decoder reads as padding.
                raise ReproError("SSTableBuilder: key must not be empty")
            raise ReproError(
                f"SSTable keys out of order: {key!r} after {self._last_key!r}")
        finished = None
        size = self._size + len(encoded)
        if size > self.block_size:
            size = len(encoded)
            if size > self.block_size:
                raise ReproError(
                    f"entry of {size} bytes exceeds block size "
                    f"{self.block_size}")
            finished = self._seal_block()
        if not self._parts:
            self._first_keys.append(key)
        self._size = size
        self.data_bytes += len(encoded) - _ENTRY_OVERHEAD
        self._parts.append(encoded)
        self._keys.append(key)
        self._last_key = key
        return finished

    def finish(self) -> Tuple[Optional[bytes], SSTableMeta]:
        """Seal the final block and build the metadata."""
        final_block = self._seal_block() if self._parts else None
        meta = SSTableMeta(
            sstable_id=self.sstable_id, sequence=self.sequence,
            block_size=self.block_size, num_blocks=len(self._first_keys),
            entry_count=len(self._keys), first_keys=self._first_keys,
            last_key=self._last_key,
            bloom=BloomFilter.build(self._keys, self.bits_per_key))
        return final_block, meta

    def _seal_block(self) -> bytes:
        self._parts.append(bytes(self.block_size - self._size))
        block = b"".join(self._parts)
        self._parts = []
        self._size = 0
        return block


def build_sstable(sstable_id: int, sequence: int, block_size: int,
                  items: Iterator[Tuple[bytes, Value]]) -> SSTableData:
    """Convenience: materialize a whole SSTable in memory."""
    builder = SSTableBuilder(sstable_id, sequence, block_size)
    blocks: List[bytes] = []
    for key, value in items:
        block = builder.add(key, value)
        if block is not None:
            blocks.append(block)
    final, meta = builder.finish()
    if final is not None:
        blocks.append(final)
    return SSTableData(meta=meta, blocks=blocks)
