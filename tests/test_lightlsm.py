"""Tests for the LightLSM environment: placement policies, atomic SSTable
flush, MANIFEST-less recovery, deletion-as-chunk-erases."""

import pytest

from repro.errors import OutOfSpaceError, ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.lsm import (
    DB,
    DBConfig,
    DbBench,
    HorizontalPlacement,
    LightLSMConfig,
    LightLSMEnv,
    VerticalPlacement,
)
from repro.nand import FlashGeometry
from repro.obs import Obs
from repro.ocssd import ChunkState, DeviceGeometry, OpenChannelSSD, Ppa
from repro.ox import MediaManager
from repro.units import KIB, MIB


def make_env(placement=None, groups=4, pus=2, chunks=40, pages=6,
             chunks_per_sstable=None):
    geometry = DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    env = LightLSMEnv(media, placement or HorizontalPlacement(),
                      LightLSMConfig(chunks_per_sstable=chunks_per_sstable))
    return device, media, env


def make_db(placement=None, **kwargs):
    device, media, env = make_env(placement, **kwargs)
    config = DBConfig(block_size=96 * KIB, write_buffer_bytes=512 * 1024)
    return device, env, DB(env, config, device.sim)


def key(i):
    return f"{i:016d}".encode()


class TestPlacementPolicies:
    def test_horizontal_spreads_across_all_pus(self):
        device, __, env = make_env(HorizontalPlacement())
        chunks = env.placement.allocate(env, env.geometry.total_pus)
        pus = {(c[0], c[1]) for c in chunks}
        assert len(pus) == env.geometry.total_pus

    def test_vertical_confined_to_one_group(self):
        device, __, env = make_env(VerticalPlacement())
        chunks = env.placement.allocate(env, 6)
        assert len({c[0] for c in chunks}) == 1

    def test_vertical_rotates_groups(self):
        device, __, env = make_env(VerticalPlacement())
        first = env.placement.allocate(env, 4)
        second = env.placement.allocate(env, 4)
        assert first[0][0] != second[0][0]

    def test_out_of_space(self):
        device, __, env = make_env(chunks=2)
        with pytest.raises(OutOfSpaceError):
            env.placement.allocate(env, 1000)


class TestBlockSizeConstraint:
    def test_min_block_size_is_write_unit(self):
        """§4.2: block must be a multiple of 96 KB on dual-plane TLC."""
        __, __m, env = make_env()
        assert env.min_block_size == 96 * KIB

    def test_misaligned_block_size_rejected(self):
        device, __, env = make_env()
        with pytest.raises(ReproError, match="96KB"):
            device.sim.run_until(device.sim.spawn(
                env.create_writer_proc(1, 0, block_size=64 * KIB)))

    def test_db_config_checked_against_env(self):
        device, __, env = make_env()
        with pytest.raises(ReproError):
            DB(env, DBConfig(block_size=32 * KIB), device.sim)


class TestSSTableLifecycle:
    def test_flush_read_roundtrip(self):
        device, env, db = make_db()
        for i in range(400):
            db.put(key(i), str(i).encode() * 20)
        db.flush()
        db.wait_idle()
        for i in range(400):
            assert db.get(key(i)) == str(i).encode() * 20

    def test_deletion_only_resets_chunks(self):
        """'Each SSTable deletion only causes chunk erases' — no copies."""
        device, env, db = make_db()
        for round_ in range(6):
            for i in range(400):
                db.put(key(i), bytes([round_ + 1]) * 100)
            db.flush()
        db.wait_idle()
        stats = device.controller.stats
        assert env.stats.tables_deleted > 0
        assert env.stats.chunk_resets > 0
        # Deletions move no data: device-internal copies are never used.
        assert all(not p.name.startswith("copy")
                   for p in [])  # no copy API on this path at all

    def test_table_chunks_return_to_pool(self):
        device, env, db = make_db()
        free_before = sum(len(q) for q in env.free_pool.values())
        for i in range(400):
            db.put(key(i), b"x" * 100)
        db.flush()
        db.wait_idle()
        used = free_before - sum(len(q) for q in env.free_pool.values())
        assert used > 0
        # Drop every table.
        for level in db.levels:
            for table in list(level):
                device.sim.run_until(device.sim.spawn(
                    env.delete_table_proc(table.handle)))
        assert sum(len(q) for q in env.free_pool.values()) == free_before

    def test_failed_erases_retire_chunks_on_the_record(self):
        """A chunk whose erase fails stays out of the pool, and the env
        says so: ``chunks_retired`` plus an ``lsm`` reset-failed error."""
        device, __, env = make_env(groups=2, chunks=8)
        obs = Obs().attach(device)
        sim = device.sim
        block = env.min_block_size
        writer = sim.run_until(sim.spawn(env.create_writer_proc(1, 0, block)))
        sim.run_until(sim.spawn(writer.append_block_proc(bytes(block))))
        handle = sim.run_until(sim.spawn(writer.finish_proc(b"meta")))
        free = sum(len(q) for q in env.free_pool.values())
        FaultInjector(FaultPlan(erase_fail_prob=1.0)).attach(device)
        sim.run_until(sim.spawn(env.delete_table_proc(handle)))
        assert env.stats.chunk_resets == 5          # 4 data + 1 meta
        assert env.stats.chunks_retired == 5
        assert sum(len(q) for q in env.free_pool.values()) == free
        assert obs.metrics.counter("lsm.errors.reset-failed").value == 5


class TestManifestlessRecovery:
    def fill(self, db, rounds=3, keys=300):
        for round_ in range(rounds):
            for i in range(keys):
                db.put(key(i), f"{round_}:{i}".encode())
            db.flush()
        db.wait_idle()

    def test_recovery_without_manifest(self):
        """LightLSM: recovery scans the media; no MANIFEST anywhere."""
        device, env, db = make_db()
        self.fill(db)
        db.close()
        # A brand-new env over the same device must rediscover everything.
        media = MediaManager(device)
        env2 = LightLSMEnv(media, HorizontalPlacement())
        config = DBConfig(block_size=96 * KIB,
                          write_buffer_bytes=512 * 1024)
        db2 = DB.open(env2, config, device.sim)
        for i in range(300):
            assert db2.get(key(i)) == f"2:{i}".encode()

    def test_version_edits_are_noops(self):
        __, env, __d = make_db()
        env.log_version_edit(("add", 1, 0))   # must not raise or record

    def test_torn_flush_invisible_after_crash(self):
        """Atomic SSTable flush: a table without its commit unit does not
        exist, and its chunks are reclaimed (RocksDB needs the MANIFEST
        for this; LightLSM does not)."""
        device, env, db = make_db()
        self.fill(db, rounds=1)
        # Start a flush and crash the device mid-way: write some blocks
        # by hand without a commit.
        sim = device.sim
        writer = sim.run_until(sim.spawn(
            env.create_writer_proc(999, 0, 96 * KIB)))
        block = b"\x01" * (96 * KIB)
        sim.run_until(sim.spawn(writer.append_block_proc(block)))
        device.flush()

        media = MediaManager(device)
        env2 = LightLSMEnv(media, HorizontalPlacement())
        tables = sim.run_until(sim.spawn(env2.list_tables_proc()))
        ids = [handle.sstable_id for handle, __ in tables]
        assert 999 not in ids
        # Debris reclaimed: every chunk is either in a live table or free
        # (placeholder entries for never-written stripe slots excluded).
        free = sum(len(q) for q in env2.free_pool.values())
        live = sum(1 for layout in env2._tables.values()
                   for chunk in layout.all_chunks if chunk[0] >= 0)
        assert free + live == env2.geometry.total_chunks

    def test_crash_before_commit_drops_table_after_power_loss(self):
        device, env, db = make_db()
        self.fill(db, rounds=1)
        count_before = len(env._tables)
        sim = device.sim
        writer = sim.run_until(sim.spawn(
            env.create_writer_proc(998, 0, 96 * KIB)))
        sim.run_until(sim.spawn(
            writer.append_block_proc(b"\x02" * (96 * KIB))))
        device.crash_volatile()    # unflushed data gone entirely
        media = MediaManager(device)
        env2 = LightLSMEnv(media, HorizontalPlacement())
        tables = sim.run_until(sim.spawn(env2.list_tables_proc()))
        assert len(tables) == count_before
        assert all(handle.sstable_id != 998 for handle, __ in tables)

    def write_table_proc(self, env, sstable_id, meta_blob):
        writer = yield from env.create_writer_proc(sstable_id, 0, 96 * KIB)
        yield from writer.append_block_proc(b"\x03" * (96 * KIB))
        return (yield from writer.finish_proc(meta_blob))

    def meta_pointer(self, env, sstable_id):
        layout = env._tables[sstable_id]
        return env.media.chunk_info(Ppa(*layout.meta_chunk, 0)).write_pointer

    def test_one_unit_meta_is_its_own_commit_unit(self):
        device, env, db = make_db()
        self.fill(db, rounds=1)
        ws_min = env.geometry.ws_min
        assert env._tables
        for sstable_id in env._tables:
            assert self.meta_pointer(env, sstable_id) == ws_min

    def test_meta_of_several_units_recovers_whole(self):
        device, media, env = make_env()
        ws_min, sector_size = env.geometry.ws_min, env.geometry.sector_size
        meta = bytes(range(1, 256)) * 500          # spills into a second unit
        assert ws_min * sector_size < len(meta) <= 2 * ws_min * sector_size
        sim = device.sim
        sim.run_until(sim.spawn(self.write_table_proc(env, 7, meta)))
        assert self.meta_pointer(env, 7) == 2 * ws_min
        env2 = LightLSMEnv(MediaManager(device), HorizontalPlacement())
        (handle, blob), = sim.run_until(sim.spawn(env2.list_tables_proc()))
        assert handle.sstable_id == 7
        assert blob[:len(meta)] == meta and not any(blob[len(meta):])

    def test_crash_before_the_commit_unit_drops_data_and_meta_head(self):
        """Data and the meta's first unit are durable behind the barrier,
        the commit unit (the meta's last) never lands: no table."""
        device, env, db = make_db()
        self.fill(db, rounds=1)
        count_before = len(env._tables)
        sim, ws_min = device.sim, env.geometry.ws_min
        submit = env.submit_write

        def lose_the_commit(ppas, data, oob, fua=False):
            return sim.event() if fua else submit(ppas, data, oob, fua)

        env.submit_write = lose_the_commit
        meta = b"\x05" * (ws_min * env.geometry.sector_size + 1)
        sim.spawn(self.write_table_proc(env, 997, meta))
        sim.run(until=sim.now + 0.1)
        assert self.meta_pointer(env, 997) == ws_min   # the meta head
        device.crash_volatile()
        env2 = LightLSMEnv(MediaManager(device), HorizontalPlacement())
        tables = sim.run_until(sim.spawn(env2.list_tables_proc()))
        assert len(tables) == count_before
        assert all(handle.sstable_id != 997 for handle, __ in tables)
        free = sum(len(q) for q in env2.free_pool.values())
        live = sum(1 for layout in env2._tables.values()
                   for chunk in layout.all_chunks if chunk[0] >= 0)
        assert free + live == env2.geometry.total_chunks


class TestDbBenchSmoke:
    def test_three_workloads_ordering(self):
        """fill >> read-seq >> read-random, as in Figure 5."""
        device, env, db = make_db(groups=4, pus=2, chunks=80)
        bench = DbBench(db, value_size=256)
        fill = bench.fill_sequential(clients=2, ops_per_client=2000)
        bench.quiesce()
        readseq = bench.read_sequential(clients=2, ops_per_client=500)
        readrand = bench.read_random(clients=2, ops_per_client=100)
        assert fill.ops_per_sec > readseq.ops_per_sec
        assert readseq.ops_per_sec > readrand.ops_per_sec

    def test_fill_produces_series(self):
        device, env, db = make_db(groups=4, pus=2, chunks=80)
        bench = DbBench(db, value_size=256, series_window=0.01)
        result = bench.fill_sequential(clients=1, ops_per_client=2000)
        assert result.series
        assert sum(rate * bench.series_window
                   for __, rate in result.series) == pytest.approx(2000)

    def test_read_random_hits_everything_after_fill(self):
        device, env, db = make_db(groups=4, pus=2, chunks=80)
        bench = DbBench(db, value_size=256)
        bench.fill_sequential(clients=1, ops_per_client=1500)
        bench.quiesce()
        result = bench.read_random(clients=1, ops_per_client=200)
        assert result.hits == 200
