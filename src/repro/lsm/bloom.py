"""Bloom filters for SSTable point lookups.

"Each random read might traverse several SSTables, depending on the
performance of bloom filters" (§4.3) — read-random throughput hinges on
these.  Double hashing over two independent 64-bit hashes, as in RocksDB's
full filters.

A key probes ``(h1 + i*h2) % num_bits`` for ``i < num_hashes``, walked
incrementally (``bit = h1 % n``, then ``bit += h2 % n`` with one
conditional wrap): no 128-bit arithmetic to insert or to probe.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

_U64 = struct.Struct("<QQ")
_HEADER = struct.Struct("<IQ")   # num_hashes, num_bits


class BloomFilter:
    """A fixed-size bloom filter with k probes by double hashing."""

    def __init__(self, num_bits: int, num_hashes: int):
        if num_bits < 8:
            raise ValueError(f"num_bits must be >= 8, got {num_bits}")
        if not 1 <= num_hashes <= 16:
            raise ValueError(f"num_hashes must be in [1, 16], got {num_hashes}")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)

    @classmethod
    def for_keys(cls, expected_keys: int,
                 bits_per_key: int = 10) -> "BloomFilter":
        """RocksDB-style sizing: ~10 bits/key, k ~= 0.69 * bits/key."""
        num_bits = max(64, expected_keys * bits_per_key)
        num_hashes = max(1, min(16, int(bits_per_key * 0.69)))
        return cls(num_bits, num_hashes)

    @classmethod
    def build(cls, keys: Sequence[bytes],
              bits_per_key: int = 10) -> "BloomFilter":
        """A filter sized for exactly *keys* (RocksDB full-filter style:
        the table builder calls this once, at finish)."""
        bloom = cls.for_keys(max(1, len(keys)), bits_per_key)
        num_bits = bloom.num_bits
        # One byte per filter bit while inserting, so a probe is a store.
        flags = bytearray(len(bloom._bits) * 8)
        probes = range(bloom.num_hashes)
        blake2b, unpack = hashlib.blake2b, _U64.unpack
        for key in keys:
            h1, h2 = unpack(blake2b(key, digest_size=16).digest())
            bit = h1 % num_bits
            step = h2 % num_bits
            for __ in probes:
                flags[bit] = 1
                bit += step
                if bit >= num_bits:
                    bit -= num_bits
        # Bit i of filter byte j is flags[8*j + i]: each plane flags[i::8]
        # shifts into place as one big integer.
        packed = 0
        for i in range(8):
            packed |= int.from_bytes(flags[i::8], "little") << i
        bloom._bits = bytearray(packed.to_bytes(len(bloom._bits), "little"))
        return bloom

    def add(self, key: bytes) -> None:
        bits, num_bits = self._bits, self.num_bits
        h1, h2 = _U64.unpack(hashlib.blake2b(key, digest_size=16).digest())
        bit = h1 % num_bits
        step = h2 % num_bits
        for __ in range(self.num_hashes):
            bits[bit >> 3] |= 1 << (bit & 7)
            bit += step
            if bit >= num_bits:
                bit -= num_bits

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        bits, num_bits = self._bits, self.num_bits
        h1, h2 = _U64.unpack(hashlib.blake2b(key, digest_size=16).digest())
        bit = h1 % num_bits
        step = h2 % num_bits
        for __ in range(self.num_hashes):
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            bit += step
            if bit >= num_bits:
                bit -= num_bits
        return True

    # -- serialization ------------------------------------------------------------

    def serialize(self) -> bytes:
        return _HEADER.pack(self.num_hashes, self.num_bits) + bytes(self._bits)

    @classmethod
    def deserialize(cls, blob: bytes) -> "BloomFilter":
        num_hashes, num_bits = _HEADER.unpack_from(blob, 0)
        bloom = cls(num_bits, num_hashes)
        bits = blob[_HEADER.size:_HEADER.size + len(bloom._bits)]
        bloom._bits = bytearray(bits)
        return bloom
