"""Tests for the LightLSM environment: placement policies, atomic SSTable
flush, MANIFEST-less recovery, deletion-as-chunk-erases."""

import pathlib

import pytest

from repro.errors import OutOfSpaceError, ReproError, ZoneError
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
from repro.lsm.znsenv import ZnsEnv
from repro.nand import FlashGeometry
from repro.obs import Obs
from repro.ocssd import DeviceGeometry, OpenChannelSSD, Ppa
from repro.ocssd.commands import ChunkReset, CommandStatus, Completion
from repro.ox import MediaManager
from repro.ox.media import census_problems
from repro.units import KIB
from repro.zns import OXZns, ZnsConfig
from tests.test_alt_envs import empty_zones


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


def census_clean(env) -> bool:
    return not list(census_problems(env.media, env.pool.keys, env.census()))


class TestPlacementPolicies:
    def test_horizontal_spreads_across_all_pus(self):
        device, __, env = make_env(HorizontalPlacement())
        chunks = env.placement.allocate(env, env.geometry.total_pus)
        pus = {(c[0], c[1]) for c in chunks}
        assert len(pus) == env.geometry.total_pus

    def test_horizontal_tables_first_blocks_sit_on_distinct_channels(self):
        """A writer keeps one block in flight per channel, and block *i*
        goes to the table's chunk *i*: walking the PUs group-major put
        four consecutive blocks behind one channel."""
        device, __, env = make_env(HorizontalPlacement())
        groups = env.geometry.num_groups
        unit = env.geometry.ws_min * env.geometry.sector_size
        for sstable_id in (1, 2):   # the second starts mid-rotation
            env.create_writer(sstable_id, 0, unit)
            layout = env._tables[sstable_id]
            channels = {layout.block_location(index)[0][0]
                        for index in range(groups)}
            assert len(channels) == groups

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
        """A refused table takes no chunk (it took all it found first)."""
        device, __, env = make_env(chunks=2)
        with pytest.raises(OutOfSpaceError):
            env.placement.allocate(env, 1000)
        assert env.pool.free_count() == 16


class TestBlockSizeConstraint:
    def test_min_block_size_is_write_unit(self):
        """§4.2: block must be a multiple of 96 KB on dual-plane TLC."""
        __, __m, env = make_env()
        assert env.min_block_size == 96 * KIB

    def test_misaligned_block_size_rejected(self):
        device, __, env = make_env()
        with pytest.raises(ReproError, match="96KB"):
            env.create_writer(1, 0, block_size=64 * KIB)

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
        """'Each SSTable deletion only causes chunk erases': a table delete
        submits chunk resets, one per chunk of the table, and nothing
        else — no copy, read or write moves a sector."""
        device, env, db = make_db()
        for round_ in range(6):
            for i in range(400):
                db.put(key(i), bytes([round_ + 1]) * 100)
            db.flush()
        db.wait_idle()
        assert env.stats.tables_deleted > 0
        assert env.stats.chunk_resets > 0
        table = next(table for level in db.levels for table in level)
        chunks = env._tables[table.handle.sstable_id].all_chunks
        stats = device.controller.stats
        moved = (stats.sectors_written, stats.sectors_read)
        submitted = []
        submit = device.submit
        device.submit = lambda command, **kw: (
            submitted.append(command), submit(command, **kw))[1]
        device.sim.run_until(device.sim.spawn(
            env.delete_table_proc(table.handle)))
        del device.submit
        assert [type(command) for command in submitted] \
            == [ChunkReset] * len(chunks)
        assert sorted(command.ppa.chunk_key() for command in submitted) \
            == sorted(chunks)
        assert (stats.sectors_written, stats.sectors_read) == moved

    def test_table_chunks_return_to_pool(self):
        device, env, db = make_db()
        free_before = env.pool.free_count()
        for i in range(400):
            db.put(key(i), b"x" * 100)
        db.flush()
        db.wait_idle()
        used = free_before - env.pool.free_count()
        assert used > 0
        # Drop every table.
        for level in db.levels:
            for table in list(level):
                device.sim.run_until(device.sim.spawn(
                    env.delete_table_proc(table.handle)))
        assert env.pool.free_count() == free_before

    def test_failed_erases_retire_chunks_on_the_record(self):
        """A chunk whose erase fails stays out of the pool, and the env
        says so: ``chunks_retired`` plus an ``lsm`` reset-failed error."""
        device, __, env = make_env(groups=2, chunks=8)
        obs = Obs().attach(device)
        sim = device.sim
        block = env.min_block_size
        writer = env.create_writer(1, 0, block)
        sim.run_until(sim.spawn(writer.append_block_proc(bytes(block))))
        handle = sim.run_until(sim.spawn(writer.finish_proc(b"meta")))
        free = env.pool.free_count()
        FaultInjector(FaultPlan(erase_fail_prob=1.0)).attach(device)
        sim.run_until(sim.spawn(env.delete_table_proc(handle)))
        assert env.stats.chunk_resets == 5          # 4 data + 1 meta
        assert env.stats.chunks_retired == 5
        assert env.pool.free_count() == free
        assert obs.metrics.counter("lsm.errors.reset-failed").value == 5


def stripe_env(kind):
    """4 groups of 2 PUs under a LightLSM env (*kind* its placement) or
    a ZnsEnv (*kind* ``ZnsEnv``: 2-chunk zones, a stripe 4 zones wide)."""
    if kind is not ZnsEnv:
        device, __, env = make_env(kind(), groups=4, pus=2, pages=24)
        return device, env
    device = OpenChannelSSD(geometry=DeviceGeometry(
        num_groups=4, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=40, pages_per_block=24)))
    zns = OXZns(MediaManager(device),
                ZnsConfig(chunks_per_zone=2, max_open_zones=16))
    return device, ZnsEnv(zns)


class TestSideBySide:
    """A table's block writes keep one write in flight per lane of its
    stripe (a LightLSM channel, a ZnsEnv zone); a dead table's chunks
    are erased in one join."""

    BLOCK = 96 * KIB

    def count_in_flight(self, env):
        """Wrap the env's block writes; the returned dict holds the writes
        in flight now and at most.  A write going out on a lane (its
        channel under LightLSM, its zone under ZnsEnv) that already has
        one in flight fails the test."""
        seen, lanes = {"now": 0, "max": 0}, set()

        def started(lane):
            assert lane not in lanes, f"two writes in flight on {lane}"
            lanes.add(lane)
            seen["now"] += 1
            seen["max"] = max(seen["max"], seen["now"])

        def landed(lane):
            lanes.discard(lane)
            seen["now"] -= 1

        if isinstance(env, ZnsEnv):
            append_proc = env.zns.append_proc

            def counting_append_proc(zone_id, data):
                started(zone_id)
                try:
                    return (yield from append_proc(zone_id, data))
                finally:
                    landed(zone_id)

            env.zns.append_proc = counting_append_proc
            return seen
        submit = env.submit_write

        def counting(ppas, data, oob, fua=False):
            done = submit(ppas, data, oob, fua)
            if oob[0][0] == "sst":
                started(ppas.key[0])
                done.add_callback(lambda event: landed(ppas.key[0]))
            return done

        env.submit_write = counting
        return seen

    def write_table_proc(self, env, sstable_id, blocks):
        writer = env.create_writer(sstable_id, 0, self.BLOCK)
        for index in range(blocks):
            yield from writer.append_block_proc(bytes([index]) * self.BLOCK)
        return (yield from writer.finish_proc(b"meta"))

    @pytest.mark.parametrize("placement, window", [
        (HorizontalPlacement, 4), (VerticalPlacement, 1), (ZnsEnv, 4)])
    def test_one_block_write_in_flight_per_channel(self, placement, window):
        device, env = stripe_env(placement)
        seen = self.count_in_flight(env)
        sim = device.sim
        handle = sim.run_until(sim.spawn(self.write_table_proc(env, 1, 20)))
        assert seen == {"now": 0, "max": window}
        env.set_block_sectors(handle, self.BLOCK)
        assert [sim.run_until(sim.spawn(env.read_block_proc(
            handle, index, self.BLOCK))) for index in range(20)] \
            == [bytes([index]) * self.BLOCK for index in range(20)]

    def fail_block_0(self, env):
        """Block 0's write fails 1 us after it goes out; every other
        block write goes out 1 ms late."""
        sim, writes = env.sim, [0]
        if isinstance(env, ZnsEnv):
            append_proc = env.zns.append_proc

            def failing_append_proc(zone_id, data):
                writes[0] += 1
                if writes[0] == 1:
                    yield sim.timeout(1e-6)
                    raise ZoneError("injected")
                yield sim.timeout(1e-3)
                return (yield from append_proc(zone_id, data))

            env.zns.append_proc = failing_append_proc
            return
        submit = env.submit_write

        def late(ppas, data, oob, fua, done):
            yield sim.timeout(1e-3)
            done.succeed((yield submit(ppas, data, oob, fua)))

        def failed(done):
            yield sim.timeout(1e-6)
            done.succeed(Completion(status=CommandStatus.WRITE_FAILED,
                                    error="injected"))

        def submit_write(ppas, data, oob, fua=False):
            if oob[0][0] != "sst":
                return submit(ppas, data, oob, fua)
            writes[0] += 1
            done = sim.event()
            sim.spawn(failed(done) if writes[0] == 1
                      else late(ppas, data, oob, fua, done))
            return done

        env.submit_write = submit_write

    def test_failed_block_write_in_the_window_fails_the_table_flush(self):
        device, media, env = make_env(pages=24)
        sim = device.sim
        writer = env.create_writer(1, 0, self.BLOCK)
        self.fail_block_0(env)
        for __ in range(2):     # on lanes of their own: no wait, no error
            sim.run_until(sim.spawn(
                writer.append_block_proc(b"\x01" * self.BLOCK)))
        head_and_commit = b"m" * (self.BLOCK + 1)     # two write units
        with pytest.raises(ReproError, match="block write failed"):
            sim.run_until(sim.spawn(writer.finish_proc(head_and_commit)))
        # Every completion is checked before any of the meta is written.
        meta = env._tables[1].meta_chunk
        assert media.chunk_info(Ppa(*meta, 0)).write_pointer == 0

    @pytest.mark.parametrize("kind", [HorizontalPlacement, ZnsEnv],
                             ids=["lightlsm", "zns"])
    def test_a_failed_write_is_joined_before_the_abort(self, kind):
        """Block 0's write fails while blocks 1-3 are on their way on the
        other lanes: the failure raises when block 4 comes back to block
        0's lane, and abort waits for the three before its first erase, so
        none lands on space back in the pool."""
        device, env = stripe_env(kind)
        sim, zns = device.sim, getattr(env, "zns", None)
        owner = zns or env
        free = empty_zones(zns) if zns else env.pool.free_count()
        writer = env.create_writer(1, 0, self.BLOCK)
        self.fail_block_0(env)
        seen = self.count_in_flight(env)
        reclaim_proc, erased_beside = owner.pool.reclaim_proc, []

        def watched_reclaim_proc(*args, **kwargs):
            erased_beside.append(seen["now"])
            return (yield from reclaim_proc(*args, **kwargs))

        owner.pool.reclaim_proc = watched_reclaim_proc

        def append_proc():
            for __ in range(5):
                yield from writer.append_block_proc(b"\x01" * self.BLOCK)

        with pytest.raises(ReproError, match="injected"):
            sim.run_until(sim.spawn(append_proc()))
        assert writer.blocks == 4 and seen["now"] == 3
        sim.run_until(sim.spawn(writer.abort_proc()))
        sim.run(until=sim.now + 0.1)
        assert erased_beside and not any(erased_beside)
        if zns:
            assert empty_zones(zns) == free and zns.open_budget.in_use == 0
        else:
            assert env.pool.free_count() == free
        assert not list(census_problems(owner.media, owner.pool.keys,
                                        owner.census()))

    def test_cut_with_blocks_in_flight_leaves_no_table(self):
        device, __, env = make_env(pages=24)
        injector = FaultInjector(FaultPlan()).attach(device)
        sim = device.sim
        seen = self.count_in_flight(env)
        writer = env.create_writer(5, 0, self.BLOCK)
        layout = env._tables[5]

        def blocks_proc():
            for __ in range(4):
                yield from writer.append_block_proc(b"\x05" * self.BLOCK)
            yield from env.media.flush_proc(layout.chunks)   # on NAND
            for __ in range(3):
                yield from writer.append_block_proc(b"\x06" * self.BLOCK)

        sim.run_until(sim.spawn(blocks_proc()))
        assert seen["now"] >= 2
        injector.power_cut()
        injector.power_cycle()
        env2 = LightLSMEnv(MediaManager(device), HorizontalPlacement())
        assert sim.run_until(sim.spawn(env2.list_tables_proc())) == []
        assert env2.pool.free_count() == env2.geometry.total_chunks
        assert census_clean(env2)

    def test_deleting_a_table_costs_about_one_erase(self):
        """33 chunks on 33 PUs: the erases overlap."""
        device, __, env = make_env(groups=8, pus=5, chunks=8,
                                   chunks_per_sstable=32)
        sim = device.sim
        handle = sim.run_until(sim.spawn(self.write_table_proc(env, 1, 40)))
        assert len(env._tables[1].all_chunks) == 33
        erase = next(iter(device.chips.values())).timing.erase_latency
        started = sim.now
        sim.run_until(sim.spawn(env.delete_table_proc(handle)))
        assert erase <= sim.now - started < 1.5 * erase
        assert env.stats.chunk_resets == 33


def test_one_table_writer_grep_pin():
    """LightLSM and ZnsEnv keep no write-in-flight bookkeeping of their
    own: the one-write-per-lane rule, its wait and its join live in
    ``repro.lsm.envbase.StripedTableWriter`` alone."""
    lsm = pathlib.Path(__file__).resolve().parent.parent / "src/repro/lsm"
    for name in ("lightlsm.py", "znsenv.py"):
        text = (lsm / name).read_text(encoding="utf-8")
        for twin in ("_join_proc", "_in_flight", "_pending", "_lanes",
                     "deque", "all_of("):
            assert twin not in text, f"{name} keeps {twin!r}"
        assert "(StripedTableWriter):" in text


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

    def test_envs_on_disjoint_partitions_each_recover_only_their_own(self):
        """Two envs on one device, each on half its groups: each writes a
        table, then each recovers and lists only its own, its pool built
        from its partition (recovery walked the whole device: it adopted
        the other env's tables and failed on a PU outside its own)."""
        device, media, __ = make_env()
        sim, block = device.sim, 96 * KIB
        halves = [[(group, pu) for group in groups for pu in range(2)]
                  for groups in ((0, 1), (2, 3))]
        for sstable_id, pus in enumerate(halves, start=1):
            env = LightLSMEnv(media, HorizontalPlacement(), pus=pus)
            writer = env.create_writer(sstable_id, 0, block)
            sim.run_until(sim.spawn(writer.append_block_proc(
                bytes([sstable_id]) * block)))
            sim.run_until(sim.spawn(writer.finish_proc(b"meta")))
        for sstable_id, pus in enumerate(halves, start=1):
            env = LightLSMEnv(MediaManager(device), HorizontalPlacement(),
                              pus=pus)
            listed = sim.run_until(sim.spawn(env.list_tables_proc()))
            assert [handle.sstable_id for handle, __ in listed] \
                == [sstable_id]
            assert {key[:2] for key in env.pool.keys} == set(pus)
            assert census_clean(env)

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
        writer = env.create_writer(999, 0, 96 * KIB)
        block = b"\x01" * (96 * KIB)
        sim.run_until(sim.spawn(writer.append_block_proc(block)))
        device.flush()

        media = MediaManager(device)
        env2 = LightLSMEnv(media, HorizontalPlacement())
        tables = sim.run_until(sim.spawn(env2.list_tables_proc()))
        ids = [handle.sstable_id for handle, __ in tables]
        assert 999 not in ids
        # Debris reclaimed: every chunk is in a live table or free.
        assert census_clean(env2)

    def test_crash_before_commit_drops_table_after_power_loss(self):
        device, env, db = make_db()
        self.fill(db, rounds=1)
        count_before = len(env._tables)
        sim = device.sim
        writer = env.create_writer(998, 0, 96 * KIB)
        sim.run_until(sim.spawn(
            writer.append_block_proc(b"\x02" * (96 * KIB))))
        device.crash_volatile()    # unflushed data gone entirely
        media = MediaManager(device)
        env2 = LightLSMEnv(media, HorizontalPlacement())
        tables = sim.run_until(sim.spawn(env2.list_tables_proc()))
        assert len(tables) == count_before
        assert all(handle.sstable_id != 998 for handle, __ in tables)

    def write_table_proc(self, env, sstable_id, meta_blob):
        writer = env.create_writer(sstable_id, 0, 96 * KIB)
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
        assert census_clean(env2)

    def test_finished_table_survives_a_cut_beside_a_cached_one(self):
        """Table A's barrier covers A's chunks and nothing admitted after
        it: a cut right after A's finish, with table B's blocks still in
        the cache, keeps A whole and B never existed."""
        device, __, env = make_env(pages=24)
        sim, block = device.sim, 96 * KIB
        writer_b = env.create_writer(2, 0, block)
        stop = []
        # B's appends return before their writes land, so its loop is
        # bounded by its stripe's room, not by the clock.
        room = (len(env._tables[2].chunks) * env.geometry.sectors_per_chunk
                // (block // env.geometry.sector_size))

        def table_b():
            for __ in range(room):
                if stop:
                    return
                yield from writer_b.append_block_proc(b"\x0b" * block)

        writing = sim.spawn(table_b())
        handle = sim.run_until(sim.spawn(
            self.write_table_proc(env, 1, b"meta-a")))
        stop.append(True)
        sim.run_until(writing)
        assert any(device.chunks[key].flushed_pointer
                   < device.chunks[key].write_pointer
                   for key in env._tables[2].chunks)
        device.crash_volatile()
        env2 = LightLSMEnv(MediaManager(device), HorizontalPlacement())
        tables = sim.run_until(sim.spawn(env2.list_tables_proc()))
        assert [(h.sstable_id, blob[:6]) for h, blob in tables] \
            == [(1, b"meta-a")]
        env2.set_block_sectors(handle, block)
        assert sim.run_until(sim.spawn(
            env2.read_block_proc(handle, 0, block))) == b"\x03" * block


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
