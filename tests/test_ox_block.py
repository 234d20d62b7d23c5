"""Integration tests for the OX-Block FTL: read/write semantics, WAL
durability, checkpointing, recovery, GC."""

import pytest

from repro.errors import FTLError
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import BlockConfig, MediaManager, OXBlock
from tests.cuts import checkpoint


def make_stack(groups=2, pus=2, chunks=16, pages=12, config=None,
               **device_kwargs):
    geometry = DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    device = OpenChannelSSD(geometry=geometry, **device_kwargs)
    media = MediaManager(device)
    config = config or BlockConfig(wal_chunk_count=4, ckpt_chunks_per_slot=2)
    return device, media, OXBlock.format(media, config), config


SS = 4096


class TestBasicIO:
    def test_write_read_roundtrip(self):
        __, __m, ftl, __c = make_stack()
        ftl.write(0, b"a" * SS + b"b" * SS)
        assert ftl.read(0, 1) == b"a" * SS
        assert ftl.read(1, 1) == b"b" * SS
        assert ftl.read(0, 2) == b"a" * SS + b"b" * SS

    def test_unmapped_reads_zero(self):
        __, __m, ftl, __c = make_stack()
        assert ftl.read(1234, 2) == b"\x00" * (2 * SS)

    def test_overwrite_returns_latest(self):
        __, __m, ftl, __c = make_stack()
        ftl.write(7, b"1" * SS)
        ftl.write(7, b"2" * SS)
        assert ftl.read(7, 1) == b"2" * SS

    def test_large_write_one_transaction(self):
        """The paper's workload: random writes up to 1 MB, each one a
        transaction."""
        __, __m, ftl, __c = make_stack()
        data = bytes(range(256)) * (SS // 256) * 32   # 128 KB
        txn = ftl.write(100, data)
        assert isinstance(txn, int)
        assert ftl.read(100, 32) == data

    def test_misaligned_write_rejected(self):
        __, __m, ftl, __c = make_stack()
        with pytest.raises(FTLError):
            ftl.write(0, b"short")
        with pytest.raises(FTLError):
            ftl.write(0, b"")

    def test_trim_unmaps(self):
        __, __m, ftl, __c = make_stack()
        ftl.write(5, b"x" * SS)
        ftl.trim(5)
        assert ftl.read(5, 1) == b"\x00" * SS

    def test_stats_accumulate(self):
        __, __m, ftl, __c = make_stack()
        ftl.write(0, b"x" * SS)
        ftl.read(0, 1)
        ftl.trim(0)
        assert ftl.stats.writes == 1
        assert ftl.stats.reads == 1
        assert ftl.stats.trims == 1


class TestLbaSpace:
    """A block device has a size: ``[0, capacity_sectors)`` is the data
    region, and a range that leaves it is refused before anything moves
    (at d55e796 ``write(10**9, …)`` succeeded, and ``write(-5, …)`` /
    ``write(2**70, …)`` raised ``struct.error`` after mutating the map —
    no checkpoint could ever be written again)."""

    @staticmethod
    def state(ftl):
        return (ftl.page_map.snapshot_packed(), len(ftl.buffer),
                ftl.journal.wal._writer.frame_count(),
                ftl.journal.wal.used_sectors,
                ftl.provisioner.free_chunks(), ftl.chunk_table.snapshot(),
                ftl.journal.next_txn_id, ftl._lock.in_use)

    def test_capacity_is_the_data_region(self):
        __, media, ftl, __c = make_stack()
        assert ftl.capacity_sectors == ftl.page_map.capacity == (
            len(ftl.layout.data_chunk_keys())
            * media.geometry.sectors_per_chunk)

    @pytest.mark.parametrize("lba, count", [
        (-5, 1), (-1, 1), (10**9, 1), (2**70, 1), (5, 0), (5, -3),
    ], ids=["-5", "-1", "1000000000", "1180591620717411303424",
            "no sectors", "negative count"])
    def test_out_of_range_ops_change_nothing(self, lba, count):
        """A count below one is no range either (at 8a545bf ``trim(5, 0)``
        and ``trim(5, -3)`` took the lock and counted as trims)."""
        __, __m, ftl, __c = make_stack()
        ftl.write(3, b"k" * SS)
        before = self.state(ftl), ftl.stats.trims, ftl.stats.reads
        calls = [lambda: ftl.read(lba, count), lambda: ftl.trim(lba, count)]
        if count > 0:
            calls.append(lambda: ftl.write(lba, b"x" * (count * SS)))
        for call in calls:
            with pytest.raises(FTLError) as raised:
                call()
            message = str(raised.value)
            assert (f"lba {lba}" in message and f"{count} sector" in message
                    and str(ftl.capacity_sectors) in message)
            assert (self.state(ftl), ftl.stats.trims,
                    ftl.stats.reads) == before
        # The FTL is unharmed: it can still checkpoint, and recover.
        ftl.flush()
        ftl.sim.run_until(ftl.sim.spawn(ftl._checkpoint_locked_proc()))
        assert ftl.read(3, 1) == b"k" * SS

    def test_a_range_must_end_inside_too(self):
        __, __m, ftl, __c = make_stack()
        last = ftl.capacity_sectors - 1
        ftl.write(last, b"z" * SS)
        assert ftl.read(last, 1) == b"z" * SS
        before = self.state(ftl)
        with pytest.raises(FTLError, match=f"2 sector.*lba {last}"):
            ftl.write(last, b"y" * (2 * SS))
        with pytest.raises(FTLError, match=f"lba {last}"):
            ftl.read(last, 2)
        with pytest.raises(FTLError, match=f"lba {last}"):
            ftl.trim(last, 2)
        assert self.state(ftl) == before
        assert ftl.read(last, 1) == b"z" * SS


class TestTrimCommit:
    """A trim's commit is sized before anything is discarded, and a trim
    that fails its WAL flush leaves every acked sector readable.  The
    stack: a 96-sector ring, LBAs 0..35 327 written, flushed and
    checkpointed, then LBA 0 rewritten into a staged partial unit."""

    STEP = 384      # sectors per write of the fill

    @classmethod
    def sector(cls, lba):
        """What the fill wrote at *lba*."""
        return bytes([lba // cls.STEP % 251]) * SS

    @classmethod
    def stack(cls):
        __, media, ftl, __c = make_stack(
            groups=4, pus=4, chunks=48, config=BlockConfig(
                wal_chunk_count=1, ckpt_chunks_per_slot=8))
        for lba in range(0, 35328, cls.STEP):
            ftl.write(lba, cls.sector(lba) * cls.STEP)
        ftl.flush()
        checkpoint(ftl)
        ftl.write(0, b"z" * SS)
        assert ftl.buffer.partial_units()
        return ftl

    def test_a_failed_wal_flush_leaves_acked_sectors_readable(self):
        """At 9883bfa the unwind put the mappings back but not the staged
        sector's read shadow: the next read of LBA 0 raised "kept racing
        relocation"."""
        ftl = self.stack()
        before = TestLbaSpace.state(ftl)

        def exhausted(*args, **kwargs):
            raise FTLError("WAL ring exhausted")
            yield

        ftl.journal.wal.flush_proc = exhausted
        with pytest.raises(FTLError, match="exhausted"):
            ftl.trim(0, 100)
        assert ftl.read(0, 1) == b"z" * SS
        assert ftl.read(1, 1) == self.sector(1)
        assert TestLbaSpace.state(ftl)[0] == before[0]      # the map

    def test_a_commit_the_ring_cannot_take_now_checkpoints_first(self):
        """At ring fill 0.5 (below the 0.6 pressure mark) a 15 000-sector
        trim's commit does not fit the rest of the ring: at 9883bfa it
        raised "WAL ring exhausted"."""
        ftl = self.stack()
        ftl.write(1, b"y" * SS)
        assert ftl.journal.wal.fill_fraction() == 0.5
        checkpoints = ftl.stats.checkpoints
        ftl.trim(0, 15000)
        assert ftl.stats.checkpoints == checkpoints + 1
        assert ftl.read(0, 2) == bytes(2 * SS)
        assert ftl.read(14999, 2) == bytes(SS) + self.sector(15000)

    def test_a_commit_no_ring_could_take_is_refused_up_front(self):
        ftl = self.stack()
        before = TestLbaSpace.state(ftl), ftl.stats.checkpoints
        with pytest.raises(FTLError, match="35328 mapped sectors.*"
                                           "ring holds 96"):
            ftl.trim(0, 35328)
        assert (TestLbaSpace.state(ftl), ftl.stats.checkpoints) == before
        assert ftl.read(0, 1) == b"z" * SS

    def test_a_small_trim_still_commits_in_place(self):
        ftl = self.stack()
        checkpoints = ftl.stats.checkpoints
        ftl.trim(0, 100)
        assert ftl.stats.checkpoints == checkpoints
        assert ftl.read(0, 100) == bytes(100 * SS)
        assert ftl.read(100, 1) == self.sector(100)


class TestCrashRecovery:
    def test_flushed_data_survives_crash(self):
        device, media, ftl, config = make_stack()
        ftl.write(0, b"A" * SS)
        ftl.write(50, b"B" * SS * 2)
        ftl.flush()
        ftl.crash()
        recovered, report = OXBlock.recover(media, config)
        assert recovered.read(0, 1) == b"A" * SS
        assert recovered.read(50, 2) == b"B" * SS * 2
        assert report.duration > 0

    def test_operations_after_crash_rejected(self):
        __, __m, ftl, __c = make_stack()
        ftl.crash()
        with pytest.raises(FTLError):
            ftl.write(0, b"x" * SS)
        with pytest.raises(FTLError):
            ftl.read(0)

    def test_unflushed_transaction_dropped_whole(self):
        """Atomicity: a transaction whose data died in the cache must
        disappear entirely, leaving the previous value."""
        device, media, ftl, config = make_stack()
        ftl.write(10, b"old" + b"\x00" * (SS - 3))
        ftl.flush()
        # Overwrite without flushing: data sits in buffer/cache.
        ftl.write(10, b"new" + b"\x00" * (SS - 3))
        ftl.crash()
        recovered, report = OXBlock.recover(media, config)
        value = recovered.read(10, 1)
        assert value[:3] in (b"old", b"new")
        # Whichever version survived, it must be a complete one.
        if value[:3] == b"new":
            assert report.txns_dropped == 0

    def test_multi_sector_atomicity(self):
        """All-or-nothing for a multi-sector transaction after a crash."""
        device, media, ftl, config = make_stack()
        base = b"0" * SS * 4
        ftl.write(0, base)
        ftl.flush()
        ftl.write(0, b"1" * SS * 4)    # not flushed
        ftl.crash()
        recovered, __ = OXBlock.recover(media, config)
        value = recovered.read(0, 4)
        assert value in (b"0" * SS * 4, b"1" * SS * 4)

    def test_recovery_idempotent(self):
        device, media, ftl, config = make_stack()
        for i in range(8):
            ftl.write(i * 10, bytes([i]) * SS)
        ftl.flush()
        ftl.crash()
        first, __ = OXBlock.recover(media, config)
        content = [first.read(i * 10, 1) for i in range(8)]
        first.crash()
        second, __r = OXBlock.recover(media, config)
        assert [second.read(i * 10, 1) for i in range(8)] == content

    def test_recovery_without_any_writes(self):
        device, media, ftl, config = make_stack()
        ftl.crash()
        recovered, report = OXBlock.recover(media, config)
        assert recovered.read(0, 1) == b"\x00" * SS
        assert report.txns_applied == 0

    def test_background_flush_makes_data_durable_eventually(self):
        device, media, ftl, config = make_stack()
        # A full write unit leaves the FTL buffer immediately; the device
        # flusher then persists it without an explicit flush.
        ws = device.geometry.ws_min
        ftl.write(3, b"Z" * SS * ws)
        device.sim.run()          # flusher drains without explicit flush
        ftl.crash()
        recovered, __ = OXBlock.recover(media, config)
        assert recovered.read(3, ws) == b"Z" * SS * ws

    def test_close_then_recover(self):
        device, media, ftl, config = make_stack()
        ftl.write(1, b"C" * SS)
        ftl.close()
        recovered, report = OXBlock.recover(media, config)
        assert recovered.read(1, 1) == b"C" * SS
        # Clean shutdown checkpointed: nothing to replay.
        assert report.records_decoded == 0


class TestCheckpointing:
    def test_checkpoint_bounds_wal_replay(self):
        device, media, ftl, config = make_stack()
        for i in range(6):
            ftl.write(i, bytes([i + 1]) * SS)
        ftl.flush()
        device.sim.run_until(device.sim.spawn(ftl._checkpoint_locked_proc()))
        for i in range(6, 9):
            ftl.write(i, bytes([i + 1]) * SS)
        ftl.flush()
        ftl.crash()
        recovered, report = OXBlock.recover(media, config)
        # Only the three post-checkpoint transactions replay.
        assert report.txns_applied == 3
        for i in range(9):
            assert recovered.read(i, 1) == bytes([i + 1]) * SS

    def test_checkpoint_daemon_runs_on_interval(self):
        config = BlockConfig(wal_chunk_count=4, ckpt_chunks_per_slot=2,
                             checkpoint_interval=0.5)
        device, media, ftl, __ = make_stack(config=config)
        ftl.write(0, b"x" * SS)
        device.sim.run(until=device.sim.now + 2.0)
        assert ftl.stats.checkpoints >= 3   # format + >=2 periodic

    def test_wal_pressure_forces_checkpoint(self):
        config = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=2,
                             wal_pressure_threshold=0.3)
        device, media, ftl, __ = make_stack(config=config)
        for i in range(40):
            ftl.write(i, b"p" * SS)
        assert ftl.stats.forced_checkpoints >= 1


class TestGarbageCollection:
    def test_gc_reclaims_overwritten_space(self):
        config = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1,
                             gc_low_watermark=6, gc_high_watermark=10)
        device, media, ftl, __ = make_stack(groups=2, pus=2, chunks=8,
                                            pages=6, config=config)
        # Hammer a small LBA range so almost everything written becomes
        # invalid, then keep writing until GC must have run.
        for round_ in range(150):
            for lba in range(8):
                ftl.write(lba, bytes([round_ % 251]) * SS)
        device.sim.run()
        assert ftl.gc.stats.chunks_recycled > 0
        for lba in range(8):
            assert ftl.read(lba, 1) == bytes([149 % 251]) * SS

    def test_gc_preserves_live_data(self):
        config = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1,
                             gc_low_watermark=6, gc_high_watermark=10)
        device, media, ftl, __ = make_stack(groups=2, pus=2, chunks=8,
                                            pages=6, config=config)
        ftl.write(1000, b"KEEP" + b"\x00" * (SS - 4))
        for round_ in range(150):
            for lba in range(8):
                ftl.write(lba, bytes([(round_ + 1) % 251]) * SS)
        device.sim.run()
        assert ftl.gc.stats.chunks_recycled > 0
        assert ftl.read(1000, 1)[:4] == b"KEEP"

    def test_gc_survives_crash_after_relocation(self):
        config = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1,
                             gc_low_watermark=6, gc_high_watermark=10)
        device, media, ftl, __ = make_stack(groups=2, pus=2, chunks=8,
                                            pages=6, config=config)
        ftl.write(1000, b"KEEP" + b"\x00" * (SS - 4))
        for round_ in range(150):
            for lba in range(8):
                ftl.write(lba, bytes([(round_ + 1) % 251]) * SS)
        device.sim.run()
        assert ftl.gc.stats.chunks_recycled > 0
        ftl.flush()
        ftl.crash()
        recovered, __r = OXBlock.recover(media, config)
        assert recovered.read(1000, 1)[:4] == b"KEEP"
        for lba in range(8):
            assert recovered.read(lba, 1) == bytes([150 % 251]) * SS
