"""Unit tests for the LSM building blocks: bloom filters, memtable,
SSTable format, rate limiter."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.lsm import BloomFilter, MemTable, TOMBSTONE
from repro.lsm.sstable import (
    SSTableBuilder,
    SSTableMeta,
    build_sstable,
    decode_block,
    decode_value,
    encode_entry,
    search_block,
)
from repro.lsm.tokenbucket import TokenBucket
from repro.sim import Simulator


def iter_block(block):
    """Every (key, value) of one data block."""
    return [(key, decode_value(key, encoded))
            for key, encoded in zip(*decode_block(block))]


class TestBloomFilter:
    def test_no_false_negatives(self):
        keys = [f"key-{i}".encode() for i in range(1000)]
        bloom = BloomFilter.build(keys)
        assert all(bloom.may_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter.build(
            [f"in-{i}".encode() for i in range(2000)], bits_per_key=10)
        false_positives = sum(
            bloom.may_contain(f"out-{i}".encode()) for i in range(2000))
        # ~1 % expected at 10 bits/key; allow generous slack.
        assert false_positives < 2000 * 0.05

    def test_serialize_roundtrip(self):
        bloom = BloomFilter.build([f"k{i}".encode() for i in range(100)])
        restored = BloomFilter.deserialize(bloom.serialize())
        assert restored.num_bits == bloom.num_bits
        assert restored.num_hashes == bloom.num_hashes
        assert all(restored.may_contain(f"k{i}".encode())
                   for i in range(100))

    def test_build_sizes_by_actual_count(self):
        keys = [f"k{i}".encode() for i in range(50)]
        bloom = BloomFilter.build(keys)
        assert bloom.num_bits == 500
        assert all(bloom.may_contain(key) for key in keys)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=4, num_hashes=2)
        with pytest.raises(ValueError):
            BloomFilter(num_bits=64, num_hashes=0)


@given(st.sets(st.binary(min_size=1, max_size=32), min_size=1, max_size=200))
@settings(max_examples=50)
def test_bloom_no_false_negatives_property(keys):
    bloom = BloomFilter.build(sorted(keys))
    assert all(bloom.may_contain(key) for key in keys)


def reference_bloom(keys, bits_per_key):
    """The filter as first written: one ``add`` per key, each probe the
    128-bit ``(h1 + i*h2) % num_bits``."""
    bloom = BloomFilter.for_keys(max(1, len(keys)), bits_per_key)
    for key in keys:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little")
        for i in range(bloom.num_hashes):
            bit = (h1 + i * h2) % bloom.num_bits
            bloom._bits[bit >> 3] |= 1 << (bit & 7)
    return bloom


@given(st.lists(st.binary(min_size=1, max_size=32), max_size=120,
                unique=True),
       st.sampled_from([2, 10, 24]))
@settings(max_examples=60, deadline=None)
def test_bulk_built_bloom_is_bit_identical_to_per_key_adds(keys, bits_per_key):
    """0, 1 and many keys: the bulk build, per-key ``add`` and the
    original probe arithmetic all set the same bits."""
    expected = reference_bloom(keys, bits_per_key).serialize()
    assert BloomFilter.build(keys, bits_per_key).serialize() == expected
    one_by_one = BloomFilter.for_keys(max(1, len(keys)), bits_per_key)
    for key in keys:
        one_by_one.add(key)
    assert one_by_one.serialize() == expected
    assert all(one_by_one.may_contain(key) for key in keys)


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put(b"a", b"1")
        assert table.get(b"a") == b"1"
        assert table.get(b"b") is None

    def test_delete_leaves_tombstone(self):
        table = MemTable()
        table.put(b"a", b"1")
        table.delete(b"a")
        assert table.get(b"a") is TOMBSTONE

    def test_items_sorted(self):
        table = MemTable()
        for key in (b"c", b"a", b"b"):
            table.put(key, key)
        assert [k for k, __ in table.items_sorted()] == [b"a", b"b", b"c"]

    def test_arena_accounting_counts_overwrites(self):
        """RocksDB arena semantics: overwriting a key still consumes
        memtable space (drives the N-client flush pressure of Figure 5)."""
        table = MemTable()
        table.put(b"k", b"v" * 100)
        size_once = table.approximate_bytes
        table.put(b"k", b"v" * 100)
        assert table.approximate_bytes == 2 * size_once
        assert len(table) == 1


class TestSSTableFormat:
    def test_block_roundtrip(self):
        entries = [(f"k{i:03d}".encode(), f"v{i}".encode())
                   for i in range(10)]
        block = b"".join(encode_entry(k, v) for k, v in entries)
        block = block.ljust(1024, b"\x00")
        assert list(iter_block(block)) == entries

    def test_tombstone_roundtrip(self):
        block = encode_entry(b"dead", TOMBSTONE).ljust(256, b"\x00")
        [(key, value)] = list(iter_block(block))
        assert key == b"dead"
        assert value is TOMBSTONE

    def test_search_block(self):
        entries = [(f"k{i:03d}".encode(), str(i).encode())
                   for i in range(0, 20, 2)]
        block = b"".join(encode_entry(k, v) for k, v in entries)
        assert search_block(block, b"k004") == b"4"
        assert search_block(block, b"k005") is None

    def test_builder_emits_fixed_size_blocks(self):
        builder = SSTableBuilder(1, 1, block_size=256)
        blocks = []
        for i in range(50):
            block = builder.add(f"key-{i:04d}".encode(), b"x" * 20)
            if block:
                blocks.append(block)
        final, meta = builder.finish()
        if final:
            blocks.append(final)
        assert all(len(b) == 256 for b in blocks)
        assert meta.num_blocks == len(blocks)
        assert meta.entry_count == 50
        assert len(meta.first_keys) == len(blocks)

    def test_builder_rejects_out_of_order_keys(self):
        builder = SSTableBuilder(1, 1, block_size=256)
        builder.add(b"b", b"")
        with pytest.raises(ReproError):
            builder.add(b"a", b"")
        with pytest.raises(ReproError):
            builder.add(b"b", b"")   # duplicates rejected too

    def test_builder_rejects_oversized_entry(self):
        builder = SSTableBuilder(1, 1, block_size=128)
        with pytest.raises(ReproError):
            builder.add(b"k", b"v" * 256)

    def test_empty_key_rejected(self):
        # klen 0 is the block decoder's padding marker: an empty key
        # would hide itself and every entry after it in its block.
        builder = SSTableBuilder(1, 1, block_size=256)
        with pytest.raises(ReproError, match="key must not be empty"):
            builder.add(b"", b"x")
        with pytest.raises(ReproError, match="key must not be empty"):
            build_sstable(1, 1, 4096,
                          iter([(b"", b"x"), (b"a", b"1"), (b"b", b"2")]))

    def test_meta_serialize_roundtrip(self):
        data = build_sstable(7, 7, 512, iter(
            (f"k{i:04d}".encode(), b"val") for i in range(100)))
        blob = data.meta.serialize()
        meta = SSTableMeta.deserialize(blob)
        assert meta.sstable_id == 7
        assert meta.entry_count == 100
        assert meta.num_blocks == data.meta.num_blocks
        assert meta.first_keys == data.meta.first_keys
        assert meta.last_key == data.meta.last_key
        assert meta.locate(b"k0042") == data.meta.locate(b"k0042")

    def test_meta_corruption_detected(self):
        data = build_sstable(7, 7, 512,
                             iter([(b"a", b"1")]))
        blob = bytearray(data.meta.serialize())
        blob[-2] ^= 0xFF   # clobber the magic
        with pytest.raises(ReproError):
            SSTableMeta.deserialize(bytes(blob))

    def test_locate_uses_bloom(self):
        data = build_sstable(1, 1, 512, iter(
            (f"k{i:04d}".encode(), b"v") for i in range(100)))
        assert data.meta.locate(b"k0050") is not None
        # A key inside the range but absent is (almost surely) filtered.
        misses = sum(data.meta.locate(f"k{i:04d}x".encode()) is not None
                     for i in range(99))
        assert misses < 10

    def test_sstable_data_get(self):
        data = build_sstable(1, 1, 512, iter(
            (f"k{i:04d}".encode(), str(i).encode()) for i in range(200)))
        assert data.get(b"k0123") == b"123"
        assert data.get(b"nope") is None
        assert len(list(data.items())) == 200


@given(st.dictionaries(st.binary(min_size=1, max_size=24),
                       st.binary(max_size=64), min_size=1, max_size=200))
@settings(max_examples=50)
def test_sstable_roundtrip_property(mapping):
    """Property: build from any sorted mapping, read every key back."""
    items = sorted(mapping.items())
    data = build_sstable(1, 1, block_size=512, items=iter(items))
    assert list(data.items()) == items
    for key, value in items:
        assert data.get(key) == value


sorted_items = st.dictionaries(
    st.binary(min_size=1, max_size=24),
    st.one_of(st.binary(max_size=200), st.just(TOMBSTONE)),
    min_size=1, max_size=120).map(lambda mapping: sorted(mapping.items()))


@given(sorted_items)
@settings(max_examples=50, deadline=None)
def test_pass_through_blocks_are_byte_identical(items):
    """Entries decoded from one table's blocks and fed, still encoded,
    to another builder come out as the blocks and meta that re-encoding
    every entry produces."""
    source = build_sstable(1, 1, 256, iter(items))
    builder = SSTableBuilder(1, 1, block_size=256)
    blocks = []
    for block in source.blocks:
        for key, encoded in zip(*decode_block(block)):
            assert encoded == encode_entry(key, decode_value(key, encoded))
            finished = builder.add_encoded(key, encoded)
            if finished is not None:
                blocks.append(finished)
    final, meta = builder.finish()
    if final is not None:
        blocks.append(final)
    assert blocks == source.blocks
    assert meta.serialize() == source.meta.serialize()


@given(sorted_items, st.binary(min_size=1, max_size=24))
@settings(max_examples=50, deadline=None)
def test_search_block_agrees_with_full_decode(items, absent):
    """Present, tombstoned, absent and past-the-end keys."""
    data = build_sstable(1, 1, 512, iter(items))
    past_the_end = items[-1][0] + b"\xff"
    for block in data.blocks:
        decoded = dict(iter_block(block))
        for key in list(decoded) + [absent, past_the_end]:
            assert search_block(block, key) == decoded.get(key)
            if decoded.get(key) is TOMBSTONE:
                assert search_block(block, key) is TOMBSTONE


class TestRateLimiter:
    """The LSM throttle: ``repro.lsm.tokenbucket.TokenBucket``."""
    def test_unlimited_never_waits(self):
        sim = Simulator()
        limiter = TokenBucket(sim, None)

        def proc():
            yield from limiter.acquire_proc(10**9)
            return sim.now

        assert sim.run_until(sim.spawn(proc())) == 0.0

    def test_rate_enforced(self):
        sim = Simulator()
        limiter = TokenBucket(sim, rate_bytes_per_sec=1000, burst_bytes=100)

        def proc():
            yield from limiter.acquire_proc(100)    # burst credit: free
            yield from limiter.acquire_proc(1000)   # must wait ~1 s
            return sim.now

        finished = sim.run_until(sim.spawn(proc()))
        assert finished == pytest.approx(1.0, rel=0.05)

    def test_concurrent_acquirers_share_rate(self):
        sim = Simulator()
        limiter = TokenBucket(sim, rate_bytes_per_sec=1000, burst_bytes=1)
        done = []

        def proc(tag):
            yield from limiter.acquire_proc(500)
            done.append((tag, sim.now))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        # 1000 bytes at 1000 B/s: both done by ~1s, serialized fairly.
        assert done[-1][1] == pytest.approx(1.0, rel=0.05)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(Simulator(), rate_bytes_per_sec=0)


def test_token_bucket_unlimited_never_waits():
    sim = Simulator()
    bucket = TokenBucket(sim)
    sim.run_until(sim.spawn(bucket.acquire_proc(10 ** 9)))
    assert sim.now == 0.0
    assert bucket.total_wait == 0.0


def test_token_bucket_paces_past_burst():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_bytes_per_sec=1000, burst_bytes=1000)

    def consumer():
        for __ in range(5):
            yield from bucket.acquire_proc(1000)

    sim.run_until(sim.spawn(consumer()))
    # First 1000 bytes ride the burst credit; the remaining 4000 pace
    # out at 1000 B/s.
    assert sim.now == pytest.approx(4.0)
    assert bucket.total_acquired == 5000
