"""Tests for the alternative storage environments: the generic
block-device env (over OX-Block) and the ZNS port (over OX-ZNS)."""

import pytest

from repro.errors import OutOfSpaceError, ReproError, ZoneError
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
            device.sim.run_until(device.sim.spawn(
                env.create_writer_proc(99, 0, block_size=1000)))


class TestZnsEnv:
    def test_roundtrip_through_zns(self):
        device, zns, env, db = make_zns_db()
        for i in range(600):
            db.put(key(i), str(i).encode() * 20)
        db.flush()
        db.wait_idle()
        for i in range(0, 600, 41):
            assert db.get(key(i)) == str(i).encode() * 20

    def test_tables_map_to_whole_zones(self):
        device, zns, env, db = make_zns_db()
        for i in range(400):
            db.put(key(i), b"z" * 512)
        db.flush()
        db.wait_idle()
        used_zones = {zone_id for table in env._tables.values()
                      for zone_id in table.zones}
        assert used_zones
        assert used_zones.isdisjoint(set(env._free_zones))

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
    """A table's zones are reset in one join: zone ids taken in order sit
    in distinct groups, so their erases overlap."""

    @staticmethod
    def table(zones=4):
        """A ZnsEnv holding one table over *zones* fresh zones: a
        zone-sized block in each but the last, which takes the meta."""
        device = make_device(chunks=8)
        zns = OXZns(MediaManager(device),
                    ZnsConfig(chunks_per_zone=4, max_open_zones=16))
        env, sim = ZnsEnv(zns), device.sim
        block = zns.zone_capacity * env.sector_size

        def write_proc():
            writer = yield from env.create_writer_proc(1, 0, block)
            for index in range(zones - 1):
                yield from writer.append_block_proc(bytes([index]) * block)
            return (yield from writer.finish_proc(b"meta"))

        handle = sim.run_until(sim.spawn(write_proc()))
        table = env._tables[1]
        assert len(table.zones) == zones
        assert len({zns.zone(zone_id).chunks[0][0]
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
        lone = env._take_free_zone()
        zns.append(lone, b"r" * zns.zone_capacity * env.sector_size)
        zns.media.flush()
        one_reset = self.timed(sim, zns.reset_zone_proc(lone))
        elapsed = self.timed(sim, env.delete_table_proc(handle))
        assert elapsed < 1.5 * one_reset
        assert all(zns.zone(zone_id).state is ZoneState.EMPTY
                   for zone_id in zones)
        assert set(zones) <= set(env._free_zones)

    def test_failed_reset_retires_only_its_zone(self):
        from repro.faults import FaultInjector, FaultPlan
        device, zns, env, handle, zones = self.table()
        bad = zones[1]
        FaultInjector(FaultPlan(
            grown_bad={zns.zone(bad).chunks[0]: 1})).attach(device)
        free = list(env._free_zones)
        with pytest.raises(ZoneError, match=f"zone {bad} retired"):
            device.sim.run_until(device.sim.spawn(
                env.delete_table_proc(handle)))
        assert zns.zone(bad).state is ZoneState.OFFLINE
        survivors = [zone_id for zone_id in zones if zone_id != bad]
        # Every sibling finished its reset before the error surfaced.
        assert all(zns.zone(zone_id).state is ZoneState.EMPTY
                   for zone_id in survivors)
        assert sorted(env._free_zones) == sorted(free + survivors)
        assert zns.stats.zones_retired == 1


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
                                 in env.free_pool.items()}

    @staticmethod
    def zns():
        __, __z, env, db = make_zns_db()
        return env, db, lambda: sorted(env._free_zones)

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
        create_writer_proc = env.create_writer_proc

        def failing_create_writer_proc(*args):
            writer = yield from create_writer_proc(*args)
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
        env.create_writer_proc = failing_create_writer_proc
        with pytest.raises(OutOfSpaceError, match="injected"):
            db.sim.run_until(db.sim.spawn(db._write_tables_proc(
                [MemCursor(items)], level=0, drop_tombstones=False)))
        assert free_space() == before
        assert not db.levels[0] and db.stats.tables_written == 0
        # The env still takes tables.
        env.create_writer_proc = create_writer_proc
        for item in items:
            db.put(*item)
        db.flush()
        db.wait_idle()
        assert db.get(items[7][0]) == items[7][1]
