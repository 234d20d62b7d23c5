"""Table readahead: a compaction reads each input as wide as its env
striped it (``StorageEnv.read_width``), a scan two blocks ahead with
every table's first read started before the merge waits on any, and a
cursor dropped early leaves no read behind that can fail on nobody."""

import pytest

import repro.lsm.db as lsm_db
from repro.errors import ReproError
from repro.lsm import (
    DB, DBConfig, HorizontalPlacement, LightLSMConfig, LightLSMEnv, MemEnv,
    VerticalPlacement)
from repro.lsm.blockenv import BlockDevEnv
from repro.lsm.compaction import TableCursor, TableRef
from repro.lsm.env import SSTableHandle
from repro.lsm.sstable import build_sstable, encode_entry
from repro.lsm.znsenv import ZnsEnv
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import BlockConfig, MediaManager, OXBlock
from repro.sim import Simulator
from repro.units import KIB
from repro.zns import OXZns, ZnsConfig

BLOCK = 96 * KIB


def key(i):
    return f"{i:016d}".encode()


def lightlsm_env(placement, groups=8, pus=4, chunks=8, partition=None):
    geometry = DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=6))
    device = OpenChannelSSD(geometry=geometry)
    env = LightLSMEnv(MediaManager(device), placement, LightLSMConfig(),
                      pus=partition)
    return device.sim, env


def write_table(sim, env, sstable_id, blocks):
    """One SSTable of *blocks* (an :class:`SSTableData`) through *env*'s
    writer; returns the :class:`TableRef` a DB would hold."""
    def run():
        writer = env.create_writer(sstable_id, 0, BLOCK)
        for block in blocks.blocks:
            yield from writer.append_block_proc(block)
        return (yield from writer.finish_proc(blocks.meta.serialize()))

    return TableRef(handle=sim.run_until(sim.spawn(run())), meta=blocks.meta)


def table_of(num_blocks):
    """An SSTable of exactly *num_blocks* full 96 KiB blocks."""
    value = b"v" * 1000
    per_block = BLOCK // len(encode_entry(key(0), value))
    data = build_sstable(1, 1, BLOCK, ((key(i), value) for i in
                                       range(num_blocks * per_block)))
    assert data.meta.num_blocks == num_blocks
    return data


def count_reads_in_flight(env):
    """Wrap *env*'s block reads; returns ``{sstable_id: peak in flight}``."""
    read, now, peak = env.read_block_proc, {}, {}

    def read_block_proc(handle, block_index, block_size):
        table = handle.sstable_id
        now[table] = now.get(table, 0) + 1
        peak[table] = max(peak.get(table, 0), now[table])
        try:
            return (yield from read(handle, block_index, block_size))
        finally:
            now[table] -= 1

    env.read_block_proc = read_block_proc
    return peak


def drain(sim, cursor):
    def run():
        seen = []
        yield from cursor.load_proc()
        while cursor.keys:
            seen.extend(cursor.keys)
            yield from cursor.load_proc()
        return seen

    started = sim.now
    return sim.run_until(sim.spawn(run())), sim.now - started


class TestReadWidth:
    def test_horizontal_table_spans_every_pu_of_the_partition(self):
        sim, env = lightlsm_env(HorizontalPlacement())
        table = write_table(sim, env, 1, table_of(2))
        assert env.read_width(table.handle) == 32
        partition = [(0, 0), (0, 1), (3, 2)]
        sim, env = lightlsm_env(HorizontalPlacement(), partition=partition)
        table = write_table(sim, env, 1, table_of(2))
        assert env.read_width(table.handle) == len(partition)

    def test_vertical_table_spans_one_group(self):
        sim, env = lightlsm_env(VerticalPlacement(), chunks=16)
        table = write_table(sim, env, 1, table_of(2))
        assert env.read_width(table.handle) == env.geometry.pus_per_group

    def test_zns_reads_as_wide_as_the_groups_its_zones_span(self):
        device = OpenChannelSSD(geometry=DeviceGeometry(
            num_groups=4, pus_per_group=4,
            flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6)))
        zns = OXZns(MediaManager(device), ZnsConfig(chunks_per_zone=3))
        env = ZnsEnv(zns)
        narrow = write_table(device.sim, env, 1, table_of(1))
        wide = write_table(device.sim, env, 2, table_of(6))
        # One block and the meta: two zones; six blocks: every group.
        assert [env.read_width(table.handle) for table in (narrow, wide)] \
            == [2, 4]

    def test_envs_that_hide_placement_read_one_ahead(self):
        device = OpenChannelSSD(geometry=DeviceGeometry(
            num_groups=4, pus_per_group=4,
            flash=FlashGeometry(blocks_per_plane=40, pages_per_block=6)))
        ftl = OXBlock.format(MediaManager(device),
                             BlockConfig(wal_chunk_count=8))
        handle = SSTableHandle(1, 0)
        assert BlockDevEnv(ftl, table_sectors=480).read_width(handle) == 1
        assert MemEnv(Simulator()).read_width(handle) == 1


class TestCursorWindow:
    @pytest.mark.parametrize("width", [1, 4, 32])
    def test_window_bounds_reads_in_flight_and_keeps_block_order(
            self, width):
        sim, env = lightlsm_env(HorizontalPlacement())
        data = table_of(32)
        table = write_table(sim, env, 1, data)
        peak = count_reads_in_flight(env)
        keys, __ = drain(sim, TableCursor(env, table, BLOCK, sim,
                                          readahead=width))
        assert keys == [k for k, __v in data.items()]
        assert peak[1] == min(width, 31)   # block 0 is read before any

    def test_a_wide_window_drains_a_striped_table_in_parallel(self):
        sim, env = lightlsm_env(HorizontalPlacement())
        table = write_table(sim, env, 1, table_of(32))
        __, serial = drain(sim, TableCursor(env, table, BLOCK, sim,
                                            readahead=1))
        __, wide = drain(sim, TableCursor(
            env, table, BLOCK, sim, readahead=env.read_width(table.handle)))
        assert wide < serial / 4


def lightlsm_db(readahead=True):
    sim, env = lightlsm_env(HorizontalPlacement(), groups=4, pus=2,
                            chunks=80)
    config = DBConfig(block_size=BLOCK, write_buffer_bytes=512 * KIB,
                      readahead=readahead)
    return sim, env, DB(env, config, sim)


def record_windows(monkeypatch):
    """Every ``readahead`` the DB opens a table cursor with."""
    windows = []

    class Recording(TableCursor):
        def __init__(self, *args, readahead, **kwargs):
            windows.append(readahead)
            super().__init__(*args, readahead=readahead, **kwargs)

    monkeypatch.setattr(lsm_db, "TableCursor", Recording)
    return windows


def fill(db, rounds=6, keys=400, size=200):
    for round_ in range(rounds):
        for i in range(keys):
            db.put(key(i), bytes([65 + round_]) * size)
        db.flush()
    db.wait_idle()


class TestDbWindows:
    def test_compaction_reads_at_table_width_and_scans_two_ahead(
            self, monkeypatch):
        windows = record_windows(monkeypatch)
        sim, env, db = lightlsm_db()
        fill(db, size=1000)
        assert db.stats.compactions and set(windows) == {8}
        del windows[:]
        peak = count_reads_in_flight(env)
        assert db.scan() == 400
        assert windows and set(windows) == {2}
        # Exactly two reads in flight per cursor, every table being at
        # least three blocks long.
        assert min(table.meta.num_blocks for tables in db.levels
                   for table in tables) >= 3
        assert set(peak.values()) == {2}

    def test_a_scans_first_entry_costs_one_block_read_not_one_per_table(
            self):
        sim = Simulator()
        env = MemEnv(sim, read_latency=1e-3)
        db = mem_db(env, l0_compaction_trigger=10)
        flush_tables(db, 4)
        assert db.level_sizes()[0] == 4
        started = sim.now
        assert db.scan(limit=1) == 1
        assert sim.now - started < 1.5e-3

    def test_readahead_off_prefetches_nothing(self, monkeypatch):
        windows = record_windows(monkeypatch)
        sim, env, db = lightlsm_db(readahead=False)
        fill(db)
        db.scan()
        assert db.stats.compactions and set(windows) == {0}


class FailingMemEnv(MemEnv):
    """A MemEnv whose block reads of one table fail from block 1 on."""

    failing = None

    def read_block_proc(self, handle, block_index, block_size):
        block = yield from super().read_block_proc(handle, block_index,
                                                   block_size)
        if handle.sstable_id == self.failing and block_index >= 1:
            raise ReproError(
                f"block {block_index} of table {handle.sstable_id} failed")
        return block


def mem_db(env, **config):
    return DB(env, DBConfig(block_size=256, write_buffer_bytes=64 * KIB,
                            l0_slowdown_trigger=20, l0_stop_trigger=30,
                            **config), env.sim)


def flush_tables(db, count, keys=40):
    for table in range(count):
        for i in range(table * keys, (table + 1) * keys):
            db.put(key(i), b"x" * 24)
        db.flush()


class TestAbandonedReads:
    def test_a_scan_that_stops_early_leaves_no_failure_behind(self):
        sim = Simulator()
        env = FailingMemEnv(sim, read_latency=1e-3)
        db = mem_db(env, l0_compaction_trigger=10)
        flush_tables(db, 3)
        assert db.level_sizes()[0] == 3
        # The scan's last cursor: its block-1 readahead is still in
        # flight when a 3-entry scan returns.
        env.failing = db.levels[0][-1].handle.sstable_id
        assert db.scan(limit=3) == 3
        sim.run(until=sim.now + 0.01)

    def test_a_failed_compaction_leaves_no_failure_behind(self):
        class WideFailingEnv(FailingMemEnv):
            def read_width(self, handle):
                return 3

        sim = Simulator()
        env = WideFailingEnv(sim, read_latency=1e-3)
        env.failing = 1       # the older input, holding the lower keys
        db = mem_db(env, l0_compaction_trigger=2)
        with pytest.raises(ReproError, match="block 1 of table 1"):
            flush_tables(db, 2)
            db.wait_idle()
        # Blocks 2 and 3 failed beside block 1, with nobody left to wait.
        sim.run(until=sim.now + 0.01)
