"""WAL edge cases the crash checker flushed out: ring exhaustion must be
retryable, the reader must stop at every flavour of torn tail, and
truncation must not burn erase cycles on chunks it never wrote."""

import pytest

from repro.errors import FTLError
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD, Ppa
from repro.ox.ftl import serial
from repro.ox.ftl.provisioning import MetadataLayout
from repro.ox.ftl.journal import Journal
from repro.ox.ftl.serial import NO_PPA
from repro.ox.ftl.wal import WalAppender
from repro.ox.media import MediaManager


def make_media(chunks=16, pages=6):
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    device = OpenChannelSSD(geometry=geometry)
    return device, MediaManager(device)


def run(media, gen):
    return media.sim.run_until(media.sim.spawn(gen))


def layout_for(media, wal_chunk_count=4):
    return MetadataLayout.build(media.geometry,
                                wal_chunk_count=wal_chunk_count,
                                ckpt_chunks_per_slot=1)


def commit(txn_id):
    return serial.encode(serial.REC_COMMIT, (txn_id,))


def append_update(appender, txn_id, entries):
    for record in serial.split(serial.REC_MAP_UPDATE, (txn_id,), entries,
                               appender.sector_size):
        appender.append(record)


def read_txns(media, layout, epoch):
    """The committed transactions a restart finds in the ring at *epoch*,
    as ``{txn_id: rows}`` in commit order."""
    records, __ = run(media, WalAppender(media, layout.wal_chunks,
                                         epoch).read_proc())
    return {txn: rows for __, txn, rows in Journal(media, len(
        layout.wal_chunks), 1).fold(records)}


def frame_buffer(media, records):
    """Encode *records* into sector frames, as the one buffer a write
    takes: the padding to a whole unit is the buffer's missing tail."""
    writer = serial.FrameWriter(media.geometry.sector_size)
    for record in records:
        writer.append(record)
    return writer.take()


def write_unit(media, key, start_sector, data, oob):
    ppas = [Ppa(*key, start_sector + i) for i in range(len(oob))]
    run(media, media.write_proc(ppas, data, oob=oob, fua=True))


class TestRingExhaustion:
    def fill_to_capacity(self, media, appender):
        """Flush units until exactly one write unit of ring remains."""
        ws_min = media.geometry.ws_min
        while appender.capacity_sectors - appender.used_sectors > ws_min:
            appender.append(commit(0))
            run(media, appender.flush_proc())

    def test_failed_flush_leaves_records_buffered(self):
        device, media = make_media(chunks=6)
        layout = layout_for(media, wal_chunk_count=1)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        self.fill_to_capacity(media, appender)
        # More than one unit's worth of frames: the pre-flight check
        # must fail before anything is written.
        txn = 1
        while appender._writer.frame_count() <= media.geometry.ws_min:
            append_update(appender, txn,
                          [(i, i + 1, NO_PPA) for i in range(200)])
            txn += 1
        used_before = appender.used_sectors
        buffered_before = appender._writer.frame_count()
        with pytest.raises(FTLError, match="ring exhausted"):
            run(media, appender.flush_proc())
        assert appender.used_sectors == used_before
        assert appender._writer.frame_count() == buffered_before

    def test_buffered_records_survive_truncate_and_retry(self):
        device, media = make_media(chunks=6)
        layout = layout_for(media, wal_chunk_count=1)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        self.fill_to_capacity(media, appender)
        append_update(appender, 77, [(5, 500, NO_PPA)])
        txn = 100
        while appender._writer.frame_count() <= media.geometry.ws_min:
            append_update(appender, txn,
                          [(i, i + 1, NO_PPA) for i in range(200)])
            txn += 1
        appender.append(commit(77))
        with pytest.raises(FTLError, match="ring exhausted"):
            run(media, appender.flush_proc())
        # The caller checkpoints (out of scope here) and truncates; the
        # buffered batch then flushes unchanged into the fresh epoch.
        run(media, appender.truncate_proc(new_epoch=1))
        run(media, appender.flush_proc())
        assert appender._writer.frame_count() == 0
        assert read_txns(media, layout, epoch=1)[77] == [(5, 500, NO_PPA)]


class TestTornTail:
    """The reader must stop at the first sector that does not continue
    the epoch/seq chain — each test hand-writes a valid unit followed by
    a differently-broken one."""

    @staticmethod
    def txn_frames(media, txn_id):
        """One write unit holding a complete committed transaction."""
        update = serial.encode(serial.REC_MAP_UPDATE, (txn_id,),
                               [(txn_id, txn_id * 10, NO_PPA)])
        return frame_buffer(media, [update, commit(txn_id)])

    def setup_ring(self):
        device, media = make_media()
        layout = layout_for(media)
        key = layout.wal_chunks[0]
        ws_min = media.geometry.ws_min
        write_unit(media, key, 0, self.txn_frames(media, 1),
                   oob=[("wal", 0, i) for i in range(ws_min)])
        return device, media, layout, key, ws_min

    def read_txn_ids(self, media, layout):
        return list(read_txns(media, layout, epoch=0))

    def test_reader_stops_at_wrong_epoch(self):
        device, media, layout, key, ws_min = self.setup_ring()
        write_unit(media, key, ws_min, self.txn_frames(media, 2),
                   oob=[("wal", 1, ws_min + i) for i in range(ws_min)])
        assert self.read_txn_ids(media, layout) == [1]

    def test_reader_stops_at_sequence_gap(self):
        device, media, layout, key, ws_min = self.setup_ring()
        write_unit(media, key, ws_min, self.txn_frames(media, 2),
                   oob=[("wal", 0, ws_min + 5 + i) for i in range(ws_min)])
        assert self.read_txn_ids(media, layout) == [1]

    def test_reader_stops_at_undecodable_frame(self):
        device, media, layout, key, ws_min = self.setup_ring()
        garbage = b"\xa5" * media.geometry.sector_size * ws_min
        write_unit(media, key, ws_min, garbage,
                   oob=[("wal", 0, ws_min + i) for i in range(ws_min)])
        assert self.read_txn_ids(media, layout) == [1]

    def test_break_in_one_chunk_hides_later_chunks(self):
        """A torn tail in ring chunk N must also invalidate chunks > N,
        even if their sectors would individually chain."""
        device, media, layout, key, ws_min = self.setup_ring()
        write_unit(media, key, ws_min, self.txn_frames(media, 2),
                   oob=[("wal", 9, ws_min + i) for i in range(ws_min)])
        write_unit(media, layout.wal_chunks[1], 0, self.txn_frames(media, 3),
                   oob=[("wal", 0, 2 * ws_min + i) for i in range(ws_min)])
        assert self.read_txn_ids(media, layout) == [1]


class TestTruncate:
    def test_truncate_skips_never_written_chunks(self):
        device, media = make_media()
        layout = layout_for(media)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        appender.append(commit(1))
        run(media, appender.flush_proc())   # touches ring chunk 0 only
        run(media, appender.truncate_proc(new_epoch=1))
        wear = [device.chunk_info(Ppa(*key, 0)).wear_index
                for key in layout.wal_chunks]
        assert wear[0] == 1
        assert wear[1:] == [0] * (len(layout.wal_chunks) - 1)

    def test_truncate_is_idempotent_on_wear(self):
        device, media = make_media()
        layout = layout_for(media)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        run(media, appender.truncate_proc(new_epoch=1))
        run(media, appender.truncate_proc(new_epoch=2))
        assert all(device.chunk_info(Ppa(*key, 0)).wear_index == 0
                   for key in layout.wal_chunks)

    def test_truncate_erases_the_ring_side_by_side(self):
        """The ring is striped over group 0's PUs: a full truncate takes
        as long as the busiest PU's erases, not the sum of all of them."""
        device, media = make_media()
        layout = layout_for(media)            # 4 chunks over 2 PUs
        assert len({key[:2] for key in layout.wal_chunks}) == 2
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        while appender.used_sectors < appender.capacity_sectors:
            appender.append(commit(0))
            run(media, appender.flush_proc())
        erase = device.chips[(0, 0)].timing.erase_time()
        started = media.sim.now
        run(media, appender.truncate_proc(new_epoch=1))
        assert media.sim.now - started == pytest.approx(2 * erase)
        assert [device.chunk_info(Ppa(*key, 0)).wear_index
                for key in layout.wal_chunks] == [1, 1, 1, 1]
        assert (appender.epoch, appender.used_sectors) == (1, 0)

    def test_failed_reset_fails_the_truncate_once_siblings_are_done(self):
        from repro.errors import MediaError
        from repro.faults import FaultInjector, FaultPlan

        device, media = make_media()
        layout = layout_for(media)
        appender = WalAppender(media, layout.wal_chunks, epoch=0)
        while appender.used_sectors < appender.capacity_sectors:
            appender.append(commit(0))
            run(media, appender.flush_proc())
        used = appender.used_sectors
        bad = layout.wal_chunks[1]
        FaultInjector(FaultPlan(grown_bad=[[*bad, 1]])).attach(device)
        children = []
        spawn = media.sim.spawn
        media.sim.spawn = lambda generator, name="": (
            children.append(spawn(generator, name)), children[-1])[1]
        with pytest.raises(MediaError, match="WAL truncate"):
            run(media, appender.truncate_proc(new_epoch=1))
        # Not advanced: the log of epoch 0 is still the log.
        assert (appender.epoch, appender.used_sectors) == (0, used)
        # The failure surfaced only after every sibling erase finished.
        joined = [child for child in children
                  if child.name == "wal-truncate"]
        assert len(joined) == 4 and not any(c.is_alive for c in joined)
        assert [device.chunk_info(Ppa(*key, 0)).wear_index
                for key in layout.wal_chunks if key != bad] == [1, 1, 1]
        media.sim.run()      # nothing left behind to fail later
