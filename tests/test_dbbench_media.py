"""Tests for the db_bench driver, the media manager and concurrent
in-simulation clients."""

import pytest

from repro.errors import MediaError, ReproError
from repro.lsm import DB, DBConfig, DbBench, MemEnv
from repro.nand import FlashGeometry
from repro.ocssd import (
    CommandStatus,
    DeviceGeometry,
    OpenChannelSSD,
    Ppa,
)
from repro.ox import BlockConfig, MediaManager, OXBlock
from repro.sim import Simulator


def make_mem_db(**overrides):
    sim = Simulator()
    env = MemEnv(sim, read_latency=1e-6, write_latency=1e-6)
    defaults = dict(block_size=1024, write_buffer_bytes=16 * 1024,
                    sstable_data_bytes=16 * 1024)
    defaults.update(overrides)
    return sim, DB(env, DBConfig(**defaults), sim)


class TestDbBench:
    def test_keys_and_values_shaped_like_the_paper(self):
        __, db = make_mem_db()
        bench = DbBench(db)
        assert len(bench.key(7)) == 16
        assert len(bench.value(7)) == 1024
        assert bench.key(7) < bench.key(8)   # ordered fill

    def test_fill_sequential_counts_and_series(self):
        __, db = make_mem_db()
        bench = DbBench(db, value_size=64, series_window=0.001)
        result = bench.fill_sequential(clients=3, ops_per_client=200)
        assert result.ops == 600
        assert result.ops_per_sec > 0
        assert result.series
        assert bench.populated_keys == 200

    def test_read_sequential_scans_in_order(self):
        __, db = make_mem_db()
        bench = DbBench(db, value_size=64)
        bench.fill_sequential(clients=1, ops_per_client=300)
        bench.quiesce()
        result = bench.read_sequential(clients=2, ops_per_client=100)
        assert result.ops == 200

    def test_read_random_requires_population(self):
        __, db = make_mem_db()
        bench = DbBench(db)
        with pytest.raises(ReproError, match="key_space"):
            bench.read_random(clients=1, ops_per_client=10)

    def test_read_random_deterministic_per_seed(self):
        def run(seed):
            __, db = make_mem_db()
            bench = DbBench(db, value_size=64, seed=seed)
            bench.fill_sequential(clients=1, ops_per_client=200)
            bench.quiesce()
            return bench.read_random(clients=2, ops_per_client=50).elapsed

        assert run(3) == run(3)

    def test_summary_renders(self):
        __, db = make_mem_db()
        bench = DbBench(db, value_size=64)
        result = bench.fill_sequential(clients=1, ops_per_client=50)
        text = result.summary()
        assert "fill-sequential" in text
        assert "kops/s" in text


class TestMediaManager:
    def make(self):
        geometry = DeviceGeometry(
            num_groups=2, pus_per_group=2,
            flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6))
        device = OpenChannelSSD(geometry=geometry)
        return device, MediaManager(device)

    def test_sync_roundtrip(self):
        device, media = self.make()
        ws = media.geometry.ws_min
        ppas = [Ppa(0, 0, 0, s) for s in range(ws)]
        sector = media.geometry.sector_size
        completion = device.write(ppas, b"m" * sector * ws)
        assert completion.ok
        assert b"".join(device.read(ppas[:2]).data) == b"m" * sector * 2
        media.flush()
        assert device.reset(Ppa(0, 1, 0, 0)).ok

    def test_scan_chunks_counts(self):
        device, media = self.make()
        assert len(media.scan_chunks()) == media.geometry.total_chunks

    def test_require_ok_raises_with_context(self):
        device, media = self.make()
        completion = device.read([Ppa(0, 0, 0, 0)])   # nothing written
        with pytest.raises(MediaError, match="probe"):
            media.require_ok(completion, "probe")

    def test_notifications_pass_through(self):
        device, media = self.make()
        device._notify(Ppa(0, 0, 0, 0), "write-failed", "test")
        notes = media.pop_notifications()
        assert len(notes) == 1
        assert media.pop_notifications() == []


class TestConcurrentClients:
    def test_in_sim_clients_interleave_on_ox_block(self):
        """Multiple simulated clients drive the FTL concurrently; all
        acknowledged writes are readable and attributable."""
        geometry = DeviceGeometry(
            num_groups=2, pus_per_group=2,
            flash=FlashGeometry(blocks_per_plane=24, pages_per_block=6))
        device = OpenChannelSSD(geometry=geometry)
        media = MediaManager(device)
        ftl = OXBlock.format(media, BlockConfig(wal_chunk_count=4,
                                                ckpt_chunks_per_slot=1))
        sim = device.sim
        sector = geometry.sector_size

        def client(base, count):
            for i in range(count):
                payload = f"{base}:{i}".encode().ljust(sector, b".")
                yield from ftl.write_proc(base + i, payload)

        clients = [sim.spawn(client(base, 20))
                   for base in (0, 1000, 2000)]
        sim.run_until(sim.all_of(clients))
        for base in (0, 1000, 2000):
            for i in range(20):
                assert ftl.read(base + i, 1).rstrip(b".") \
                    == f"{base}:{i}".encode()
        # Writes were serialized by the dispatch lock, never corrupted.
        assert ftl.stats.writes == 60

    def test_reads_proceed_while_writer_holds_lock(self):
        """Reads bypass the dispatch lock (§4.3: the read path only needs
        a mapping lookup)."""
        geometry = DeviceGeometry(
            num_groups=2, pus_per_group=2,
            flash=FlashGeometry(blocks_per_plane=24, pages_per_block=6))
        device = OpenChannelSSD(geometry=geometry)
        media = MediaManager(device)
        ftl = OXBlock.format(media, BlockConfig(wal_chunk_count=4,
                                                ckpt_chunks_per_slot=1))
        sim = device.sim
        sector = geometry.sector_size
        ftl.write(0, b"r" * sector)
        ftl.flush()

        read_times = []

        def reader():
            started = sim.now
            yield from ftl.read_proc(0, 1)
            read_times.append(sim.now - started)

        def writer():
            # A large transaction holding the dispatch lock for a while.
            yield from ftl.write_proc(100, b"w" * sector * 48)

        sim.spawn(writer())
        sim.spawn(reader())
        sim.run()
        baseline = sim.now
        started = sim.now
        ftl.read(0, 1)
        solo = device.sim.now - started
        # The concurrent read was not serialized behind the whole write.
        assert read_times[0] < solo * 20
