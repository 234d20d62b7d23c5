"""Tests for the alternative storage environments: the generic
block-device env (over OX-Block) and the ZNS port (over OX-ZNS)."""

from collections import Counter

import pytest

from repro.errors import OutOfSpaceError, ReproError
from repro.lsm import DB, DBConfig, DbBench
from repro.lsm.blockenv import BlockDevEnv
from repro.lsm.znsenv import ZnsEnv
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import BlockConfig, MediaManager, OXBlock
from repro.zns import OXZns, ZnsConfig, ZoneState
from repro.units import KIB


def make_device(chunks=80):
    geometry = DeviceGeometry(
        num_groups=4, pus_per_group=4,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=6))
    return OpenChannelSSD(geometry=geometry)


def make_blockdev_db(chunks=80):
    device = make_device(chunks)
    media = MediaManager(device)
    ftl = OXBlock.format(media, BlockConfig(
        wal_chunk_count=8, gc_low_watermark=8, gc_high_watermark=24))
    env = BlockDevEnv(
        ftl, table_sectors=16 * device.report_geometry().sectors_per_chunk)
    config = DBConfig(block_size=96 * KIB, write_buffer_bytes=512 * 1024)
    return device, env, DB(env, config, device.sim)


def make_zns_db(chunks=80):
    device = make_device(chunks)
    media = MediaManager(device)
    zns = OXZns(media, ZnsConfig(chunks_per_zone=4, max_open_zones=16))
    env = ZnsEnv(zns)
    config = DBConfig(block_size=96 * KIB, write_buffer_bytes=512 * 1024)
    return device, zns, env, DB(env, config, device.sim)


def key(i):
    return f"{i:016d}".encode()


def level_of(db, sstable_id):
    return next(level for level, tables in enumerate(db.levels)
                if any(table.handle.sstable_id == sstable_id
                       for table in tables))


def empty_zones(zns):
    """The free zones: OX-ZNS keeps no other list of them."""
    return {zone.zone_id for zone in zns.zones
            if zone.state is ZoneState.EMPTY}


class TestBlockDevEnv:
    def test_roundtrip_through_generic_ftl(self):
        device, env, db = make_blockdev_db()
        for i in range(600):
            db.put(key(i), str(i).encode() * 20)
        db.flush()
        db.wait_idle()
        for i in range(0, 600, 37):
            assert db.get(key(i)) == str(i).encode() * 20

    def test_manifest_required_for_visibility(self):
        device, env, db = make_blockdev_db()
        for i in range(200):
            db.put(key(i), b"v" * 64)
        db.close()
        db2 = DB.open(env, DBConfig(block_size=96 * KIB,
                                    write_buffer_bytes=512 * 1024),
                      device.sim)
        assert db2.get(key(3)) == b"v" * 64
        env.manifest.clear()
        db3 = DB.open(env, DBConfig(block_size=96 * KIB,
                                    write_buffer_bytes=512 * 1024),
                      device.sim)
        assert db3.get(key(3)) is None

    def test_deletion_creates_ftl_garbage(self):
        """Trimmed extents leave invalid pages for the generic FTL's GC —
        the cost LightLSM's chunk-aligned deletion avoids."""
        device, env, db = make_blockdev_db()
        for round_ in range(8):
            for i in range(300):
                db.put(key(i), bytes([round_ + 1]) * 128)
            db.flush()
        db.wait_idle()
        device.sim.run()
        assert env.ftl.stats.trims > 0
        # Overwritten/trimmed space shows up as invalid sectors somewhere.
        invalid = sum(
            info.write_next - info.valid_count
            for __, info in env.ftl.chunk_table.items()
            if info.write_next)
        assert invalid > 0

    def test_extent_reuse(self):
        device, env, db = make_blockdev_db()
        for round_ in range(6):
            for i in range(300):
                db.put(key(i), bytes([round_ + 1]) * 200)
            db.flush()
        db.wait_idle()
        device.sim.run()
        assert env._free_list or env._next_lba < env.ftl.capacity_sectors

    def test_misaligned_block_size_rejected(self):
        device, env, __ = make_blockdev_db()
        with pytest.raises(ReproError):
            env.create_writer(99, 0, block_size=1000)


class TestZnsEnv:
    def test_roundtrip_through_zns(self):
        device, zns, env, db = make_zns_db()
        for i in range(600):
            db.put(key(i), str(i).encode() * 20)
        db.flush()
        db.wait_idle()
        for i in range(0, 600, 41):
            assert db.get(key(i)) == str(i).encode() * 20

    def test_tables_map_to_the_zones_they_hold(self):
        """With no writer alive, every zone a table lists is FULL or a
        spare of that table's level, held once per listing table."""
        device, zns, env, db = make_zns_db()
        for i in range(400):
            db.put(key(i), b"z" * 512)
        db.flush()
        db.wait_idle()
        listed = [(zone_id, level_of(db, sstable_id))
                  for sstable_id, table in env._tables.items()
                  for zone_id in table.zones]
        assert listed
        for zone_id, level in listed:
            state = zns.zone(zone_id).state
            assert state is ZoneState.FULL or (
                state is ZoneState.OPEN and env._spares[zone_id] == level)
        assert env._holders == Counter(zone_id for zone_id, __ in listed)
        assert set(env._spares) == {zone.zone_id for zone in zns.zones
                                    if zone.state is ZoneState.OPEN}

    def test_deletion_is_zone_reset(self):
        device, zns, env, db = make_zns_db()
        resets_before = zns.stats.zone_resets
        for round_ in range(8):
            for i in range(300):
                db.put(key(i), bytes([round_ + 1]) * 256)
            db.flush()
        db.wait_idle()
        device.sim.run()
        assert zns.stats.zone_resets > resets_before

    def test_manifest_still_required(self):
        """The ZNS port keeps RocksDB's MANIFEST dependence — unlike
        LightLSM, the abstraction does not make media self-describing."""
        device, zns, env, db = make_zns_db()
        for i in range(200):
            db.put(key(i), b"q" * 64)
        db.close()
        env.manifest.clear()
        db2 = DB.open(env, DBConfig(block_size=96 * KIB,
                                    write_buffer_bytes=512 * 1024),
                      device.sim)
        assert db2.get(key(3)) is None

    def test_zone_exhaustion_surfaces(self):
        device, zns, env, db = make_zns_db(chunks=8)
        with pytest.raises(OutOfSpaceError):
            for i in range(30_000):
                db.put(key(i), b"x" * 1024)


class TestZnsReclaim:
    """A table's zones are reset in one join: its stripe puts them in
    distinct groups, so their erases overlap."""

    @staticmethod
    def table(zones=4):
        """A ZnsEnv holding one table striped over *zones* fresh zones,
        one per group, in half-zone blocks: two in each zone but the last
        two, one in each of those, the meta beside the first of them."""
        device = make_device(chunks=8)
        zns = OXZns(MediaManager(device),
                    ZnsConfig(chunks_per_zone=4, max_open_zones=16))
        env, sim = ZnsEnv(zns), device.sim
        block = zns.zone_capacity // 2 * env.sector_size

        def write_proc():
            writer = env.create_writer(1, 0, block)
            for index in range(2 * zones - 2):
                yield from writer.append_block_proc(bytes([index]) * block)
            return (yield from writer.finish_proc(b"meta"))

        handle = sim.run_until(sim.spawn(write_proc()))
        table = env._tables[1]
        assert len(table.zones) == zones
        assert len({zns.zone(zone_id).group
                    for zone_id in table.zones}) == zones
        return device, zns, env, handle, table.zones

    @staticmethod
    def timed(sim, proc) -> float:
        start = sim.now
        sim.run_until(sim.spawn(proc))
        return sim.now - start

    def test_delete_costs_one_zone_reset(self):
        device, zns, env, handle, zones = self.table()
        sim = device.sim
        lone = zns.num_zones - 1
        zns.append(lone, b"r" * zns.zone_capacity * env.sector_size)
        zns.media.flush()
        one_reset = self.timed(sim, zns.reset_zone_proc(lone))
        elapsed = self.timed(sim, env.delete_table_proc(handle))
        assert elapsed < 1.5 * one_reset
        assert set(zones) <= empty_zones(zns)
        assert zns.open_budget.in_use == 0

    def test_failed_reset_retires_only_its_chunk(self):
        """A chunk whose erase fails on a table delete is retired alone:
        nothing raises, every zone of the table is EMPTY, and the one
        that held the bad chunk opens again."""
        from repro.faults import FaultInjector, FaultPlan
        device, zns, env, handle, zones = self.table()
        bad = zones[1]
        FaultInjector(FaultPlan(
            grown_bad=[[*zns.zone(bad).chunks[0], 1]])).attach(device)
        free = empty_zones(zns)
        device.sim.run_until(device.sim.spawn(env.delete_table_proc(handle)))
        assert empty_zones(zns) == free | set(zones)
        assert zns.stats.chunks_retired == 1
        assert zns.stats.zone_resets == len(zones)
        zns.append(bad, b"r" * env.sector_size)
        assert zns.zone(bad).state is ZoneState.OPEN


def zns_env(max_open_zones=16):
    device = make_device(chunks=8)
    zns = OXZns(MediaManager(device), ZnsConfig(
        chunks_per_zone=4, max_open_zones=max_open_zones))
    return device.sim, zns, ZnsEnv(zns)


def write_blocks(sim, writer, count, block=96 * KIB):
    def write_proc():
        for index in range(count):
            yield from writer.append_block_proc(bytes([index]) * block)
    sim.run_until(sim.spawn(write_proc()))


def write_table(sim, env, sstable_id, level, blocks, block=96 * KIB):
    """One committed table of *blocks* blocks at *level*; its handle."""
    def table_proc():
        writer = env.create_writer(sstable_id, level, block)
        for index in range(blocks):
            yield from writer.append_block_proc(bytes([index]) * block)
        return (yield from writer.finish_proc(b"meta"))
    return sim.run_until(sim.spawn(table_proc()))


class TestZnsSharedZones:
    """Tables of one level share zones: a commit leaves its stripe's
    partly written zones OPEN, spares of its level; a writer of that
    level takes them before it opens a zone; a zone resets when the last
    table holding it dies."""

    def test_a_zone_two_tables_hold_resets_at_the_second_delete(self):
        sim, zns, env = zns_env()
        first = write_table(sim, env, 1, 0, 2)
        second = write_table(sim, env, 2, 0, 2)
        shared = set(env._tables[1].zones) & set(env._tables[2].zones)
        assert shared and all(env._holders[zone_id] == 2
                              for zone_id in shared)
        only_first = set(env._tables[1].zones) - shared
        resets = zns.stats.zone_resets
        sim.run_until(sim.spawn(env.delete_table_proc(first)))
        assert not shared & empty_zones(zns)
        assert only_first <= empty_zones(zns)
        assert zns.stats.zone_resets == resets + len(only_first)
        assert [sim.run_until(sim.spawn(env.read_block_proc(
            second, index, 96 * KIB))) for index in range(2)] \
            == [bytes([index]) * 96 * KIB for index in range(2)]
        sim.run_until(sim.spawn(env.delete_table_proc(second)))
        assert shared <= empty_zones(zns)
        assert not env._holders and not env._spares
        assert zns.open_budget.in_use == 0

    def test_a_commit_leaves_its_zones_to_its_own_level(self):
        sim, zns, env = zns_env()
        write_table(sim, env, 1, 0, 2)
        level_0 = env._tables[1].zones
        assert env._spares == dict.fromkeys(level_0, 0)
        write_table(sim, env, 2, 1, 2)
        level_1 = env._tables[2].zones
        assert not set(level_1) & set(level_0)
        assert env._spares == {**dict.fromkeys(level_0, 0),
                               **dict.fromkeys(level_1, 1)}
        write_table(sim, env, 3, 0, 2)
        assert env._tables[3].zones == level_0
        assert env._spares == {**dict.fromkeys(level_1, 1),
                               **dict.fromkeys(level_0, 0)}
        assert zns.stats.zones_finished == 0

    def test_an_aborted_writer_finishes_the_zones_it_shared(self):
        """A torn append may sit in a spare the writer took: the abort
        finishes it for the table still holding it, and leaves the other
        spares as they were."""
        sim, zns, env = zns_env()
        write_table(sim, env, 1, 0, 2)
        zones = env._tables[1].zones
        writer = env.create_writer(2, 0, 96 * KIB)
        write_blocks(sim, writer, 2)
        taken = list(writer.table.zones)
        assert taken == zones[:2]
        sim.run_until(sim.spawn(writer.abort_proc()))
        assert all(zns.zone(zone_id).state is ZoneState.FULL
                   for zone_id in taken)
        assert env._holders == Counter(zones)
        assert env._spares == {zones[2]: 0}
        assert zns.open_budget.in_use == 1

    def test_spares_never_fill_the_open_zone_budget(self):
        """Spares hold units of the budget: a commit that leaves it full,
        and a writer that finds no unit free, finish the oldest spare
        instead of leaving a writer to wait."""
        sim, zns, env = zns_env(max_open_zones=4)     # stripes 2 wide
        write_table(sim, env, 1, 0, 1)
        first = env._tables[1].zones
        write_table(sim, env, 2, 1, 1)
        assert zns.stats.zones_finished == 1
        assert zns.zone(first[0]).state is ZoneState.FULL
        assert first[0] not in env._spares and env._holders[first[0]] == 1
        assert len(env._spares) == 3 == zns.open_budget.in_use
        writer = env.create_writer(3, 2, 96 * KIB)
        write_blocks(sim, writer, 2)
        assert zns.stats.zones_finished == 2
        assert zns.zone(first[1]).state is ZoneState.FULL
        assert len(writer.table.zones) == 2
        assert not set(writer.table.zones) & set(first)
        assert zns.open_budget.in_use == 4

    def test_a_writer_waiting_on_the_budget_proceeds_once_another_commits(
            self):
        """The budget is held by two stripes and no spare: a writer with
        no zone waits; the commit of one stripe leaves spares, which it
        finishes while the budget is full, and the writer proceeds."""
        sim, zns, env = zns_env(max_open_zones=4)     # stripes 2 wide
        writers = [env.create_writer(1, 0, 96 * KIB),
                   env.create_writer(2, 1, 96 * KIB)]
        for writer in writers:
            write_blocks(sim, writer, 2)
        waiting = sim.spawn(env.create_writer(3, 1, 96 * KIB)
                            .append_block_proc(b"w" * 96 * KIB))
        sim.run(until=sim.now + 0.01)
        assert waiting.is_alive and not env._spares
        sim.run_until(sim.spawn(writers[0].finish_proc(b"meta")))
        sim.run_until(waiting)
        assert all(zns.zone(zone_id).state is ZoneState.FULL
                   for zone_id in env._tables[1].zones)
        assert zns.open_budget.in_use == 3 and not env._spares


class TestZnsStripe:
    """A table writer stripes over one zone per group, within
    ``max_open_zones`` (one append in flight per zone: the failure and
    in-flight tests for both striped envs are in ``test_lightlsm.py``)."""

    def test_blocks_read_back_in_block_order_after_out_of_order_appends(
            self):
        sim, zns, env = zns_env()
        append_proc = zns.append_proc
        block = 96 * KIB

        def block_0_lands_last_proc(zone_id, data):
            if data[0] == 0:
                yield sim.timeout(5e-3)
            return (yield from append_proc(zone_id, data))

        zns.append_proc = block_0_lands_last_proc
        writer = env.create_writer(1, 0, block)
        write_blocks(sim, writer, 6)
        handle = sim.run_until(sim.spawn(writer.finish_proc(b"meta")))
        assert [sim.run_until(sim.spawn(env.read_block_proc(
            handle, index, block))) for index in range(6)] \
            == [bytes([index]) * block for index in range(6)]

    def test_a_table_cut_mid_write_is_absent_after_open(self):
        from repro.faults import FaultInjector, FaultPlan
        device, zns, env, db = make_zns_db(chunks=8)
        sim = device.sim
        for i in range(200):
            db.put(key(i), b"a" * 64)
        db.flush()
        db.wait_idle()
        injector = FaultInjector(FaultPlan()).attach(device)
        writer = env.create_writer(99, 0, 96 * KIB)
        write_blocks(sim, writer, 6)
        cut = set(writer.table.zones)
        assert len({zns.zone(zone_id).group for zone_id in cut}) == 4
        injector.power_cut()
        injector.power_cycle()
        db2 = DB.open(env, DBConfig(block_size=96 * KIB,
                                    write_buffer_bytes=512 * 1024), sim)
        assert 99 not in env._tables and db2.get(key(3)) == b"a" * 64
        # Recovery reset the zones only the torn table held and freed
        # them; the ones it shared stay with their tables, finished.
        shared = cut & set(env._holders)
        assert shared and cut - shared and cut - shared <= empty_zones(zns)
        assert all(zns.zone(zone_id).state is ZoneState.FULL
                   for zone_id in shared)
        assert zns.open_budget.in_use == 0

    def test_a_writer_holding_a_zone_narrows_and_one_holding_none_waits(
            self):
        sim, zns, env = zns_env(max_open_zones=5)     # stripes 2 wide
        writers = [env.create_writer(sstable_id, 0, 96 * KIB)
                   for sstable_id in (1, 2, 3, 4)]
        for writer in writers[:3]:
            write_blocks(sim, writer, 2)
        assert [len(writer.table.zones) for writer in writers] \
            == [2, 2, 1, 0]
        waiting = sim.spawn(writers[3].append_block_proc(b"w" * 96 * KIB))
        sim.run(until=sim.now + 0.01)
        assert waiting.is_alive and zns.open_budget.in_use == 5
        sim.run_until(sim.spawn(writers[0].finish_proc(b"meta")))
        sim.run_until(waiting)
        assert len(writers[3].table.zones) == 1
        assert zns.open_budget.in_use == 4

    def test_the_open_zone_budget_holds_while_flush_and_compaction_overlap(
            self):
        """Default ``ZnsConfig()`` (8 open zones) on the 8-group
        evaluation drive: a flush's stripe and a compaction's fill the
        budget, and neither may over-open (an 8-wide stripe did)."""
        from repro.benchhelpers import evaluation_spec
        from repro.stack import build_stack
        stack = build_stack(evaluation_spec(
            name="zns-budget", ftl="zns",
            db={"block_size": 96 * KIB, "write_buffer_bytes": 4 << 20}))
        sim, zns, env = stack.sim, stack.ftl, stack.env
        assert zns.config.max_open_zones == 8
        samples, mismatched, running = [], [], [True]

        def sample_proc():
            while running:
                samples.append(zns.open_budget.in_use)
                mismatched.append(samples[-1] != sum(
                    zone.state is ZoneState.OPEN for zone in zns.zones))
                yield sim.timeout(20e-6)

        sim.spawn(sample_proc())
        bench = stack.dbbench()
        bench.fill_sequential(clients=4, ops_per_client=20_000)
        bench.quiesce()
        running.clear()
        assert stack.db.stats.compactions and max(samples) <= 8
        # The budget is the count of OPEN zones at every sample.
        assert not any(mismatched)


class TestFailedTableWrite:
    """At 8a545bf ``SSTableWriter.abort_proc`` had four implementations
    and no caller: a table write that raised leaked what it had taken."""

    @staticmethod
    def lightlsm():
        from repro.lsm import HorizontalPlacement, LightLSMConfig, LightLSMEnv
        device = make_device(chunks=40)
        env = LightLSMEnv(MediaManager(device), HorizontalPlacement(),
                          LightLSMConfig())
        db = DB(env, DBConfig(block_size=96 * KIB,
                              write_buffer_bytes=512 * 1024), device.sim)
        return env, db, lambda: {pu: sorted(queue) for pu, queue
                                 in env.pool.free.items()}

    @staticmethod
    def zns():
        __, zns, env, db = make_zns_db()
        return env, db, lambda: sorted(empty_zones(zns))

    @staticmethod
    def blockdev():
        __, env, db = make_blockdev_db()
        # Sectors on the free list, less the never-allocated frontier.
        return env, db, lambda: sum(
            extent.sectors for extent in env._free_list) - env._next_lba

    @pytest.mark.parametrize("make", ["lightlsm", "zns", "blockdev"])
    def test_the_open_table_gives_its_space_back(self, make):
        from repro.lsm.compaction import MemCursor
        env, db, free_space = getattr(self, make)()
        items = [(key(i), bytes([i % 251]) * 700) for i in range(600)]
        create_writer = env.create_writer

        def failing_create_writer(*args):
            writer = create_writer(*args)
            append_block_proc = writer.append_block_proc
            blocks = []

            def third_block_fails_proc(block):
                blocks.append(block)
                if len(blocks) == 3:
                    raise OutOfSpaceError("injected mid-table failure")
                yield from append_block_proc(block)

            writer.append_block_proc = third_block_fails_proc
            return writer

        before = free_space()
        env.create_writer = failing_create_writer
        with pytest.raises(OutOfSpaceError, match="injected"):
            db.sim.run_until(db.sim.spawn(db._write_tables_proc(
                [MemCursor(items)], level=0, drop_tombstones=False)))
        assert free_space() == before
        assert not db.levels[0] and db.stats.tables_written == 0
        # The env still takes tables.
        env.create_writer = create_writer
        for item in items:
            db.put(*item)
        db.flush()
        db.wait_idle()
        assert db.get(items[7][0]) == items[7][1]
