"""Focused tests for the WAL and checkpoint machinery: epochs, torn
tails, truncation, slot alternation."""

import pytest

from repro.errors import FTLError
from repro.faults import FaultInjector, FaultPlan
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD, Ppa
from repro.ox.ftl.checkpoint import CheckpointManager
from repro.ox.ftl.journal import Journal
from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable
from repro.ox.ftl.provisioning import MetadataLayout
from repro.ox.ftl import serial
from repro.ox.ftl.serial import NO_PPA
from repro.ox.ftl.recovery import RecoveryReport
from repro.ox.ftl.wal import WalAppender
from repro.ox.media import MediaManager


def make_media(chunks=16, pages=6, pus=2):
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    device = OpenChannelSSD(geometry=geometry)
    return device, MediaManager(device)


def run(media, gen):
    return media.sim.run_until(media.sim.spawn(gen))


def layout_for(media):
    return MetadataLayout.build(media.geometry, wal_chunk_count=4,
                                ckpt_chunks_per_slot=1)


def commit(txn_id):
    return serial.encode(serial.REC_COMMIT, (txn_id,))


def read_log(media, layout, epoch):
    """The records a restart finds in the ring at *epoch*."""
    return run(media, WalAppender(media, layout.wal_chunks,
                                  epoch).read_proc())[0]


class TestWal:
    def logged_and_reloaded(self, unfinished=()):
        """Txn 1 (and *unfinished* rows under txn 2, never committed)
        through one journal; what a second one loads and folds."""
        device, media = make_media()
        journal = Journal(media, 4, 1)
        journal.log_txn(serial.REC_MAP_UPDATE, 1, [(10, 100, NO_PPA)])
        if unfinished:
            journal.wal.append(
                serial.encode(serial.REC_MAP_UPDATE, (2,), unfinished))
        run(media, journal.wal.flush_proc())
        restarted, report = Journal(media, 4, 1), RecoveryReport()
        tables, records = run(media, restarted.load_proc(report))
        assert tables == {} and report.records_decoded == len(records)
        assert report.wal_sectors_read == media.geometry.ws_min
        return restarted, list(restarted.fold(records))

    def test_append_flush_read_roundtrip(self):
        journal, txns = self.logged_and_reloaded()
        assert txns == [(serial.REC_COMMIT, 1, [(10, 100, NO_PPA)])]
        assert journal.next_txn_id == 2

    def test_uncommitted_transaction_ignored(self):
        journal, txns = self.logged_and_reloaded([(20, 200, NO_PPA)])
        assert [txn_id for __, txn_id, __ in txns] == [1]
        assert journal.next_txn_id == 2

    def test_stale_epoch_rejected(self):
        device, media = make_media()
        layout = layout_for(media)
        appender = WalAppender(media, layout.wal_chunks, epoch=3)
        appender.append(commit(1))
        run(media, appender.flush_proc())
        assert read_log(media, layout, epoch=4) == []

    def test_flush_pads_to_write_unit(self):
        device, media = make_media()
        layout = layout_for(media)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        appender.append(commit(1))
        written = run(media, appender.flush_proc())
        assert written == media.geometry.ws_min

    def test_empty_flush_is_noop(self):
        device, media = make_media()
        layout = layout_for(media)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        assert run(media, appender.flush_proc()) == 0

    def test_ring_exhaustion_raises(self):
        device, media = make_media(chunks=6)
        layout = MetadataLayout.build(media.geometry, wal_chunk_count=1,
                                      ckpt_chunks_per_slot=1)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        with pytest.raises(FTLError, match="ring exhausted"):
            for i in range(1000):
                appender.append(commit(i))
                run(media, appender.flush_proc())

    def test_truncate_resets_ring_and_epoch(self):
        device, media = make_media()
        layout = layout_for(media)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        appender.append(commit(1))
        run(media, appender.flush_proc())
        run(media, appender.truncate_proc(new_epoch=1))
        assert appender.epoch == 1
        assert appender.used_sectors == 0
        # Old records invisible at the new epoch.
        assert read_log(media, layout, epoch=1) == []
        # Appends work again.
        appender.append(commit(2))
        run(media, appender.flush_proc())
        assert len(read_log(media, layout, epoch=1)) == 1

    def test_torn_tail_is_dropped_cleanly(self):
        """A crash mid-flush leaves a partial batch below the flushed
        pointer; the reader stops at the break in the sequence chain."""
        device, media = make_media()
        layout = layout_for(media)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        appender.append(commit(1))
        run(media, appender.flush_proc())
        appender.append(commit(2))
        run(media, appender.flush_proc())
        device.crash_volatile()   # FUA writes survive; nothing torn here
        assert len(read_log(media, layout, epoch=0)) == 2

    def test_fill_fraction(self):
        device, media = make_media()
        layout = layout_for(media)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        assert appender.fill_fraction() == 0.0
        appender.append(commit(1))
        run(media, appender.flush_proc())
        assert 0 < appender.fill_fraction() < 1


class TestCheckpoint:
    def build_state(self, media, layout, entries):
        table = ChunkTable(media.geometry, iter(layout.data_chunk_keys()))
        page_map = PageMap(table.total_sectors)
        for lba, ppa in entries:
            page_map.update(lba, ppa)
        return page_map, table

    @staticmethod
    def write_proc(manager, seq, page_map, table, next_txn_id):
        """An OX-Block-style checkpoint: page map + chunk table."""
        records = serial.split(serial.REC_CKPT_MAP, (),
                               page_map.snapshot_packed(),
                               manager.sector_size)
        records += serial.split(serial.REC_CKPT_CHUNK, (), table.snapshot(),
                                manager.sector_size)
        return manager.write_payload_proc(seq, next_txn_id, records)

    def test_write_read_roundtrip(self):
        device, media = make_media()
        layout = layout_for(media)
        manager = CheckpointManager(media, layout.ckpt_slots)
        page_map, table = self.build_state(media, layout,
                                           [(i, i * 7) for i in range(500)])
        run(media, self.write_proc(manager, 1, page_map, table, 42))
        seq, next_txn_id, tables = run(media, manager.read_latest_proc())
        assert (seq, next_txn_id) == (1, 42)
        assert dict(tables[serial.REC_CKPT_MAP]) \
            == {i: i * 7 for i in range(500)}
        assert tables[serial.REC_CKPT_CHUNK] == table.snapshot()
        assert sorted(tables) == [serial.REC_CKPT_MAP, serial.REC_CKPT_CHUNK]

    def test_slots_alternate_and_newest_wins(self):
        device, media = make_media()
        layout = layout_for(media)
        manager = CheckpointManager(media, layout.ckpt_slots)
        page_map, table = self.build_state(media, layout, [(1, 10)])
        run(media, self.write_proc(manager, 1, page_map, table, 2))
        page_map.update(1, 20)
        run(media, self.write_proc(manager, 2, page_map, table, 3))
        seq, __, tables = run(media, manager.read_latest_proc())
        assert seq == 2
        assert tables[serial.REC_CKPT_MAP] == [(1, 20)]
        # The older slot is intact: corrupting the newest falls back.
        slot_b = layout.ckpt_slots[0 if 2 % 2 == 0 else 1]
        run(media, media.reset_proc(Ppa(*slot_b[0], 0)))
        seq, __, tables = run(media, manager.read_latest_proc())
        assert seq == 1
        assert tables[serial.REC_CKPT_MAP] == [(1, 10)]

    def test_incomplete_checkpoint_ignored(self):
        """A crash mid-checkpoint leaves a footerless slot; recovery must
        fall back to the previous complete one."""
        device, media = make_media()
        layout = layout_for(media)
        manager = CheckpointManager(media, layout.ckpt_slots)
        page_map, table = self.build_state(media, layout, [(1, 10)])
        run(media, self.write_proc(manager, 1, page_map, table, 2))

        # Hand-write a partial "checkpoint 2": header only, no footer.
        slot = layout.ckpt_slots[0]
        run(media, media.reset_proc(Ppa(*slot[0], 0)))
        writer = serial.FrameWriter(media.geometry.sector_size)
        writer.append(serial.encode(serial.REC_CKPT_HEADER, (2, 0, 0, 9)))
        ppas = [Ppa(*slot[0], i) for i in range(media.geometry.ws_min)]
        assert run(media, media.write_proc(ppas, writer.take(),
                                           fua=True)).ok

        assert run(media, manager.read_latest_proc())[0] == 1

    def test_fresh_device_has_no_checkpoint(self):
        device, media = make_media()
        layout = layout_for(media)
        manager = CheckpointManager(media, layout.ckpt_slots)
        assert run(media, manager.read_latest_proc()) is None

    def wide_slots(self, media):
        """Three-chunk slots and records that fill two and a half."""
        layout = MetadataLayout.build(media.geometry, wal_chunk_count=4,
                                      ckpt_chunks_per_slot=3)
        geometry = media.geometry
        self.per_frame = serial.rows_per_record(serial.REC_CKPT_MAP,
                                                geometry.sector_size)
        rows = [(i, i * 3) for i in range(
            self.per_frame * (5 * geometry.sectors_per_chunk // 2 - 10))]
        records = serial.split(serial.REC_CKPT_MAP, (), rows,
                               geometry.sector_size)
        return layout, CheckpointManager(media, layout.ckpt_slots), \
            rows, records

    def test_slot_chunks_are_erased_and_written_side_by_side(self):
        """A slot is striped over PUs: rewriting it takes as long as its
        busiest PU's erase and programs, not the sum over its chunks."""
        device, media = make_media(pus=4)
        layout, manager, rows, records = self.wide_slots(media)
        slot = layout.ckpt_slots[1]
        assert len({key[:2] for key in slot}) == 3
        spans = []
        for seq in (1, 3):           # seq 3 finds the slot dirty
            started = media.sim.now
            run(media, manager.write_payload_proc(seq, 7, records))
            spans.append(media.sim.now - started)
        per_chunk = media.geometry.sectors_per_chunk
        assert [media.chunk_info(Ppa(*key, 0)).write_pointer
                for key in slot] == [per_chunk, per_chunk, per_chunk // 2]
        timing = device.chips[(0, 0)].timing
        chunk_program = spans[0]     # the full chunks set the pace
        assert spans[1] == pytest.approx(chunk_program + timing.erase_time())
        seq, __, tables = run(media, manager.read_latest_proc())
        assert seq == 3 and tables[serial.REC_CKPT_MAP] == rows

    def test_torn_parallel_checkpoint_is_passed_over(self):
        """Chunks written side by side can land out of order: a power cut
        with the header's and the footer's chunk on media and the one
        between them not must not read as a checkpoint with rows
        missing — recovery starts from the other slot."""
        device, media = make_media()
        layout, manager, rows, records = self.wide_slots(media)
        run(media, manager.write_payload_proc(1, 7, records[:40]))
        injector = FaultInjector(FaultPlan())
        injector.attach(device)
        slot = layout.ckpt_slots[0]
        write_proc = media.write_proc

        def late_middle_write_proc(ppas, data, **kwargs):
            if ppas.key == slot[1]:
                yield media.sim.timeout(1.0)
            return (yield from write_proc(ppas, data, **kwargs))

        media.write_proc = late_middle_write_proc
        checkpoint = media.sim.spawn(
            manager.write_payload_proc(2, 9, records))
        media.sim.run(until=media.sim.now + 0.5)
        assert not checkpoint.processed
        injector.power_cut()
        per_chunk = media.geometry.sectors_per_chunk
        assert [media.chunk_info(Ppa(*key, 0)).write_pointer
                for key in slot] == [per_chunk, 0, per_chunk // 2]
        injector.power_cycle()
        fresh = CheckpointManager(MediaManager(device), layout.ckpt_slots)
        seq, next_txn_id, tables = run(media, fresh.read_latest_proc())
        assert (seq, next_txn_id) == (1, 7)
        assert tables[serial.REC_CKPT_MAP] == rows[:40 * self.per_frame]

    def test_oversized_checkpoint_rejected(self):
        # A one-chunk slot holds ~254 map entries per sector: a full map
        # of more than 254 data chunks cannot fit it.
        device, media = make_media(chunks=80, pages=6)
        layout = MetadataLayout.build(media.geometry, wal_chunk_count=1,
                                      ckpt_chunks_per_slot=1)
        manager = CheckpointManager(media, layout.ckpt_slots)
        data_sectors = (len(layout.data_chunk_keys())
                        * media.geometry.sectors_per_chunk)
        page_map, table = self.build_state(
            media, layout, [(i, i) for i in range(data_sectors)])
        with pytest.raises(FTLError, match="enlarge"):
            run(media, self.write_proc(manager, 1, page_map, table, 2))
