"""Unit tests for the compaction machinery: picking, cursors, merging."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsm import MemEnv, TOMBSTONE
from repro.lsm.compaction import (
    MemCursor,
    TableCursor,
    TableRef,
    level_max_tables,
    merge_into_proc,
    pick_compaction,
)
from repro.lsm.sstable import build_sstable, decode_value
from repro.sim import Simulator


def table_ref(sstable_id, items, block_size=256):
    data = build_sstable(sstable_id, sstable_id, block_size, iter(items))
    return TableRef(handle=None, meta=data.meta), data


def make_levels(counts_and_ranges):
    """Build a level structure from [(level, [(id, first, last)])]."""
    levels = [[] for __ in range(4)]
    for level, specs in counts_and_ranges:
        for sstable_id, first, last in specs:
            ref, __ = table_ref(sstable_id,
                                [(first, b"x"), (last, b"y")]
                                if first != last else [(first, b"x")])
            levels[level].append(ref)
    return levels


class TestPickCompaction:
    def test_no_work(self):
        levels = make_levels([(0, [(1, b"a", b"b")])])
        assert pick_compaction(levels, l0_trigger=4, multiplier=4) is None

    def test_l0_trigger(self):
        levels = make_levels([
            (0, [(i, b"a", b"z") for i in range(1, 5)]),
            (1, [(10, b"c", b"d"), (11, b"x", b"y")]),
        ])
        pick = pick_compaction(levels, l0_trigger=4, multiplier=4)
        assert pick is not None
        assert pick.target_level == 1
        # All of L0 plus the overlapping L1 tables.
        assert len(pick.inputs) == 6

    def test_l0_skips_non_overlapping_l1(self):
        levels = make_levels([
            (0, [(i, b"a", b"c") for i in range(1, 5)]),
            (1, [(10, b"x", b"z")]),
        ])
        pick = pick_compaction(levels, l0_trigger=4, multiplier=4)
        assert len(pick.inputs) == 4   # L1 table out of range

    def test_deep_level_overflow(self):
        levels = make_levels([
            (1, [(i, bytes([96 + i]), bytes([97 + i]))
                 for i in range(1, 7)]),   # 6 > multiplier 4
        ])
        pick = pick_compaction(levels, l0_trigger=99, multiplier=4)
        assert pick is not None
        assert pick.target_level == 2
        assert pick.reason == "l1-size"

    def test_level_budgets(self):
        assert level_max_tables(1, 4) == 4
        assert level_max_tables(2, 4) == 16
        assert level_max_tables(3, 2) == 8


def drain(sim, cursor):
    """Every (key, value) a cursor exposes, block after block."""
    def run():
        seen = []
        yield from cursor.load_proc()
        while cursor.keys:
            assert cursor.pos == 0
            seen.extend((key, decode_value(key, encoded))
                        for key, encoded in zip(cursor.keys, cursor.entries))
            yield from cursor.load_proc()
        return seen

    return sim.run_until(sim.spawn(run()))


class TestCursors:
    def test_mem_cursor_iterates_in_order(self):
        items = [(b"a", b"1"), (b"b", TOMBSTONE), (b"c", b"3")]
        for block_entries in (1, 2, 128):
            cursor = MemCursor(items, block_entries=block_entries)
            assert drain(Simulator(), cursor) == items

    def test_table_cursor_streams_blocks(self):
        sim = Simulator()
        env = MemEnv(sim, read_latency=1e-6)
        items = [(f"k{i:04d}".encode(), str(i).encode())
                 for i in range(100)]
        ref, data = table_ref(1, items)

        def build():
            writer = env.create_writer(1, 0, 256)
            for block in data.blocks:
                yield from writer.append_block_proc(block)
            handle = yield from writer.finish_proc(b"meta")
            return handle

        ref.handle = sim.run_until(sim.spawn(build()))
        cursor = TableCursor(env, ref, 256, sim, readahead=1)
        assert drain(sim, cursor) == items


class TestMergeInto:
    def run_merge(self, cursor_items, drop_tombstones=False):
        sim = Simulator()
        cursors = [MemCursor(items) for items in cursor_items]
        out = []

        def sink(key, encoded):
            out.append((key, decode_value(key, encoded)))

        def run():
            emitted = yield from merge_into_proc(cursors, sink,
                                                 drop_tombstones)
            return emitted

        count = sim.run_until(sim.spawn(run()))
        return count, out

    def test_merge_two_sorted_streams(self):
        count, out = self.run_merge([
            [(b"a", b"1"), (b"c", b"3")],
            [(b"b", b"2"), (b"d", b"4")],
        ])
        assert count == 4
        assert [k for k, __ in out] == [b"a", b"b", b"c", b"d"]

    def test_newest_cursor_wins_duplicates(self):
        __, out = self.run_merge([
            [(b"k", b"new")],
            [(b"k", b"old")],
        ])
        assert out == [(b"k", b"new")]

    def test_tombstones_dropped_when_asked(self):
        count, out = self.run_merge([
            [(b"a", TOMBSTONE), (b"b", b"2")],
        ], drop_tombstones=True)
        assert count == 1
        assert out == [(b"b", b"2")]

    def test_tombstone_shadows_older_value(self):
        __, out = self.run_merge([
            [(b"k", TOMBSTONE)],
            [(b"k", b"old")],
        ], drop_tombstones=True)
        assert out == []

    def test_empty_inputs(self):
        count, out = self.run_merge([[], []])
        assert count == 0
        assert out == []


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.dictionaries(st.binary(min_size=1, max_size=8),
                    st.binary(max_size=8), max_size=30),
    min_size=1, max_size=5))
def test_merge_property_sorted_dedup_newest_first(stream_dicts):
    """Property: merging sorted streams (newest first) yields the sorted
    union with the newest value per key."""
    sim = Simulator()
    cursors = [MemCursor(sorted(d.items())) for d in stream_dicts]
    expected = {}
    for d in reversed(stream_dicts):    # oldest first so newest overwrites
        expected.update(d)
    out = []

    def sink(key, encoded):
        out.append((key, decode_value(key, encoded)))

    sim.run_until(sim.spawn(merge_into_proc(cursors, sink, False)))
    assert out == sorted(expected.items())
