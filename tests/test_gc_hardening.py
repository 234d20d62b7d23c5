"""GC hardening regressions from the fault-injection PR: pad-sector OOB,
out-of-space degradation, the per-group GC headroom reservation, and the
write-path unwind when the WAL ring fills."""

import pytest

from repro.errors import FTLError, OutOfSpaceError
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD, Ppa
from repro.ox import BlockConfig, MediaManager, OXBlock
from repro.ox.ftl.metadata import FtlChunkState
from repro.ox.ftl.serial import NO_PPA

SS = 4096


def make_stack(groups=2, pus=2, chunks=8, pages=6, config=None):
    geometry = DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    config = config or BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1)
    return device, media, OXBlock.format(media, config), config


def run(media, gen):
    return media.sim.run_until(media.sim.spawn(gen))


class TestRelocationPads:
    def test_pad_sectors_carry_no_ppa_oob(self):
        """GC pads relocations to whole write units with dead copies;
        their destination OOB must be NO_PPA or a later GC scan of the
        destination chunk would treat the filler as live user data."""
        config = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1,
                             gc_enabled=False)
        device, media, ftl, __ = make_stack(config=config)
        span = media.geometry.sectors_per_chunk   # one chunk's worth
        for lba in range(span):
            ftl.write(lba, bytes([lba % 251]) * SS)
        ftl.flush()
        for lba in range(1, span):   # leave lba 0's copy live
            ftl.write(lba, bytes([(lba + 1) % 251]) * SS)
        ftl.flush()

        victim_key = media.geometry.delinearize(
            ftl.page_map.lookup(0)).chunk_key()
        victim = ftl.chunk_table.get(victim_key)
        assert victim.state is FtlChunkState.FULL
        live_before = victim.valid_count
        assert 0 < live_before < media.geometry.ws_min

        assert run(media, ftl.gc._recycle_proc([victim]))

        new_ppa = media.geometry.delinearize(ftl.page_map.lookup(0))
        assert new_ppa.chunk_key() != victim_key
        dst_key = new_ppa.chunk_key()
        written = media.chunk_info(Ppa(*dst_key, 0)).write_pointer
        assert written == media.geometry.ws_min   # padded to one unit
        completion = run(media, media.read_proc(
            [Ppa(*dst_key, s) for s in range(written)]))
        pads = [oob for oob in completion.oob if oob == NO_PPA]
        owned = [oob for oob in completion.oob if oob != NO_PPA]
        assert len(pads) == written - live_before
        assert 0 in owned

    def test_gc_scan_of_padded_destination_sees_pads_as_unowned(self):
        config = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1,
                             gc_enabled=False)
        device, media, ftl, __ = make_stack(config=config)
        span = media.geometry.sectors_per_chunk
        for lba in range(span):
            ftl.write(lba, bytes([lba % 251]) * SS)
        ftl.flush()
        for lba in range(1, span):
            ftl.write(lba, bytes([(lba + 1) % 251]) * SS)
        ftl.flush()
        victim = ftl.chunk_table.get(
            media.geometry.delinearize(ftl.page_map.lookup(0)).chunk_key())
        assert run(media, ftl.gc._recycle_proc([victim]))

        dst_key = media.geometry.delinearize(
            ftl.page_map.lookup(0)).chunk_key()
        written = media.chunk_info(Ppa(*dst_key, 0)).write_pointer
        live, unsafe = ftl.gc._find_live_sectors(dst_key, written)
        assert unsafe == 0
        assert [lba for __, lba in live] == [0]
        assert all(lba != NO_PPA for __, lba in live)


class TestOutOfSpace:
    def fill_until_full(self, ftl):
        lba = 0
        with pytest.raises(OutOfSpaceError):
            while lba < 10_000:
                ftl.write(lba, bytes([lba % 251]) * SS)
                lba += 1
        return lba

    def test_filling_the_device_raises_instead_of_wedging(self):
        device, media, ftl, __ = make_stack()
        written = self.fill_until_full(ftl)
        assert written > media.geometry.sectors_per_chunk

    def test_ftl_survives_out_of_space(self):
        """Running out of space is an error return, not a crash: reads
        still serve acked data and trims free enough space to write
        again."""
        device, media, ftl, __ = make_stack()
        written = self.fill_until_full(ftl)
        for lba in (0, written // 2, written - 1):
            assert ftl.read(lba, 1) == bytes([lba % 251]) * SS
        span = media.geometry.sectors_per_chunk * 4
        for lba in range(span):
            ftl.trim(lba)
        for lba in range(media.geometry.ws_min):
            ftl.write(lba, b"\x7f" * SS)
        assert ftl.read(0, 1) == b"\x7f" * SS

    def test_out_of_space_write_is_atomic(self):
        """The write that hits OutOfSpace must not leave any of its own
        sectors mapped, and must not disturb its neighbours."""
        device, media, ftl, __ = make_stack()
        written = self.fill_until_full(ftl)
        big = bytes(range(256)) * (SS // 256) * 8
        with pytest.raises(OutOfSpaceError):
            ftl.write(written, big)
        assert ftl.read(written, 8) == b"\x00" * (8 * SS)
        assert ftl.read(written - 1, 1) == bytes([(written - 1) % 251]) * SS


class TestGcHeadroom:
    def test_user_exhaustion_leaves_headroom_per_group(self):
        device, media, ftl, config = make_stack()
        provisioner = ftl.provisioner
        with pytest.raises(OutOfSpaceError):
            while True:
                provisioner.allocate_unit("user")
        for group in range(media.geometry.num_groups):
            assert (provisioner.units_available("gc", group=group)
                    >= provisioner.gc_headroom == 1)
            provisioner.allocate_unit("gc", group=group)

    def test_room_in_open_gc_chunks_counts_toward_the_headroom(self):
        """Relocation lands in a group's open gc chunks as well as in a
        free chunk: once they hold a chunk's worth of room, the user
        stream may open the group's last free chunk, and GC still has
        that room."""
        device, media, ftl, config = make_stack()
        provisioner, geometry = ftl.provisioner, media.geometry
        for __ in range(geometry.pus_per_group):
            provisioner.allocate_unit("gc", group=0)     # a unit per PU
        per_chunk, unit = geometry.sectors_per_chunk, geometry.ws_min
        assert geometry.pus_per_group * (per_chunk - unit) >= per_chunk
        with pytest.raises(OutOfSpaceError):
            while True:
                provisioner.allocate_unit("user")
        assert provisioner.pool.group_free(0) == 0
        assert provisioner.pool.group_free(1) == provisioner.gc_headroom == 1
        assert provisioner.units_available("gc", group=0) * unit >= per_chunk

    def test_gc_stream_ignores_headroom(self):
        device, media, ftl, config = make_stack()
        provisioner = ftl.provisioner
        with pytest.raises(OutOfSpaceError):
            while True:
                provisioner.allocate_unit("gc", group=0)
        # The GC stream may consume the reserve down to nothing.
        assert provisioner.units_available("gc", group=0) == 0


class TestWritePathUnwind:
    def test_wal_exhaustion_unwinds_the_transaction(self):
        """With pressure checkpoints disabled, the ring eventually fills;
        the failing write must surface FTLError and leave the previous
        mapping intact — no dangling half-transaction."""
        config = BlockConfig(wal_chunk_count=1, ckpt_chunks_per_slot=1,
                             gc_enabled=False, wal_pressure_threshold=2.0)
        device, media, ftl, __ = make_stack(config=config)
        last_good = None
        with pytest.raises(FTLError, match="ring exhausted"):
            for i in range(10_000):
                ftl.write(0, bytes([i % 251]) * SS)
                last_good = i
        assert last_good is not None
        assert ftl.read(0, 1) == bytes([last_good % 251]) * SS
