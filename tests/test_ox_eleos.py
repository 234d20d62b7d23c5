"""Integration tests for OX-ELEOS: LSS buffer writes, variable-size page
mapping, segment lifecycle, crash recovery."""

import pytest

from repro.errors import FTLError, OutOfSpaceError
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import EleosConfig, MediaManager, OXEleos
from repro.units import KIB, MIB


def make_stack(groups=2, pus=2, chunks=16, pages=12, config=None):
    geometry = DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    config = config or EleosConfig(buffer_bytes=1 * MIB, wal_chunk_count=4,
                                   ckpt_chunks_per_slot=2)
    return device, media, OXEleos.format(media, config), config


class TestAppendAndRead:
    def test_variable_sized_pages_roundtrip(self):
        """Pages of arbitrary byte sizes — the core OX-ELEOS feature."""
        __, __m, ftl, __c = make_stack()
        pages = [(1, b"a" * 17), (2, b"b" * 5000), (3, b"c" * 4096),
                 (4, b"d"), (5, b"e" * 40000)]
        ftl.append_buffer(pages)
        for page_id, payload in pages:
            assert ftl.read_page(page_id) == payload

    def test_sub_sector_mapping_granularity(self):
        """Multiple small pages share one 4 KB sector: mapping granularity
        is smaller than the unit of read (§4.2)."""
        __, __m, ftl, __c = make_stack()
        pages = [(i, bytes([i]) * 100) for i in range(1, 11)]
        ftl.append_buffer(pages)
        entries = [ftl.vmap[i] for i in range(1, 11)]
        sectors = {e.first_sector for e in entries}
        assert len(sectors) < len(entries)   # several pages per sector
        assert any(e.offset > 0 for e in entries)
        for page_id, payload in pages:
            assert ftl.read_page(page_id) == payload

    def test_rewrite_page_returns_latest(self):
        __, __m, ftl, __c = make_stack()
        ftl.append_buffer([(7, b"old" * 10)])
        ftl.append_buffer([(7, b"new" * 20)])
        assert ftl.read_page(7) == b"new" * 20

    def test_unmapped_page_rejected(self):
        __, __m, ftl, __c = make_stack()
        with pytest.raises(FTLError):
            ftl.read_page(404)

    def test_empty_buffer_rejected(self):
        __, __m, ftl, __c = make_stack()
        with pytest.raises(FTLError):
            ftl.append_buffer([])

    def test_oversized_buffer_rejected(self):
        __, __m, ftl, __c = make_stack()
        with pytest.raises(FTLError):
            ftl.append_buffer([(1, b"x" * (2 * MIB))])

    def test_buffer_write_is_batched(self):
        """One LSS buffer triggers a bounded number of vector writes (one
        per chunk), not one per page."""
        device, __m, ftl, __c = make_stack()
        before = device.controller.stats.sectors_written
        pages = [(i, b"p" * 4096) for i in range(32)]   # 128 KB
        ftl.append_buffer(pages)
        written = device.controller.stats.sectors_written - before
        # Data sectors + WAL sectors; well below one unit per page.
        assert written < 32 * device.geometry.ws_min


class TestRejectedBuffers:
    """A buffer the WAL could not encode is refused before the lock (at
    d55e796 a bad page id surfaced as ``struct.error`` after the segment
    was allocated, written, registered and logged: two such calls leaked
    two chunks and two orphan ``SEGMENT_NEW`` records)."""

    @pytest.mark.parametrize("pages, match", [
        ([(-1, b"x" * 100)], "page id -1"),
        ([(2**64, b"x" * 100)], f"page id {2**64}"),
        ([(1, b"ok"), ("7", b"x")], "page id '7'"),
        ([(1, b"ok"), (2.0, b"x")], "page id 2.0"),
        ([(1, b"ok"), (2, b"")], "page 2"),
        ([(1, b"ok"), (2, "text")], "page 2"),
        ([(1, b"ok"), (2, None)], "page 2"),
    ])
    def test_rejected_before_anything_is_allocated(self, pages, match):
        __, __m, ftl, __c = make_stack()
        ftl.append_buffer([(9, b"keep" * 10)])

        def state():
            return (ftl.free_chunk_count(), dict(ftl.segments),
                    dict(ftl.vmap), ftl.wal._writer.frame_count(),
                    ftl.wal.used_sectors, ftl._next_segment_id,
                    ftl._next_txn_id, ftl._lock.in_use)

        before = state()
        for __ in range(2):
            with pytest.raises(FTLError, match=match):
                ftl.append_buffer(pages)
            assert state() == before
        # Nothing orphaned rides the next commit, and checkpoints work.
        ftl.append_buffer([(2**64 - 1, bytearray(b"edge")),
                           (0, memoryview(b"zero"))])
        ftl.checkpoint()
        assert ftl.read_page(2**64 - 1) == b"edge"
        assert ftl.read_page(0) == b"zero"
        assert ftl.read_page(9) == b"keep" * 10
        assert sorted(ftl.segments) == [1, 2]


class TestSegments:
    def test_segment_chunks_striped_across_pus(self):
        device, __m, ftl, __c = make_stack()
        almost_chunk = device.geometry.chunk_size - 4096
        seg = ftl.append_buffer([(1, b"x" * almost_chunk),
                                 (2, b"y" * almost_chunk)])
        chunks = ftl.segments[seg]
        assert len(chunks) >= 2
        assert len({(c[0], c[1]) for c in chunks}) == len(chunks)

    def test_free_segment_requires_no_live_pages(self):
        __, __m, ftl, __c = make_stack()
        seg = ftl.append_buffer([(1, b"live" * 100)])
        with pytest.raises(FTLError):
            ftl.free_segment(seg)

    def test_free_segment_reclaims_chunks(self):
        __, __m, ftl, __c = make_stack()
        seg1 = ftl.append_buffer([(1, b"v1" * 100)])
        free_before = ftl.free_chunk_count()
        ftl.append_buffer([(1, b"v2" * 100)])   # page 1 moves to seg2
        ftl.free_segment(seg1)
        assert seg1 not in ftl.segments
        assert ftl.free_chunk_count() > free_before - len(ftl.segments[2])
        assert ftl.read_page(1) == b"v2" * 100

    def test_unknown_segment_rejected(self):
        __, __m, ftl, __c = make_stack()
        with pytest.raises(FTLError):
            ftl.free_segment(99)

    def test_out_of_space_when_segments_pile_up(self):
        device, __m, ftl, __c = make_stack(chunks=8)
        chunk_bytes = device.geometry.chunk_size
        with pytest.raises(OutOfSpaceError):
            for i in range(100):
                ftl.append_buffer([(1000 + i, b"z" * (chunk_bytes - 64))])


class TestCrashRecovery:
    def test_committed_buffer_survives_crash_after_flush(self):
        device, media, ftl, config = make_stack()
        pages = [(i, bytes([i]) * (100 * i + 1)) for i in range(1, 6)]
        ftl.append_buffer(pages)
        media.flush()
        ftl.crash()
        recovered, report = OXEleos.recover(media, config)
        for page_id, payload in pages:
            assert recovered.read_page(page_id) == payload
        assert report.txns_applied == 1

    def test_unflushed_buffer_dropped_atomically(self):
        device, media, ftl, config = make_stack()
        ftl.append_buffer([(1, b"first" * 50)])
        media.flush()
        ftl.append_buffer([(1, b"second" * 50), (2, b"other" * 30)])
        ftl.crash()
        recovered, report = OXEleos.recover(media, config)
        value = recovered.read_page(1)
        if report.txns_dropped:
            # The whole second buffer vanished: page 2 unmapped too.
            assert value == b"first" * 50
            assert 2 not in recovered.vmap
        else:
            assert value == b"second" * 50
            assert recovered.read_page(2) == b"other" * 30

    def test_freed_segment_stays_freed_after_crash(self):
        device, media, ftl, config = make_stack()
        seg1 = ftl.append_buffer([(1, b"v1" * 100)])
        ftl.append_buffer([(1, b"v2" * 100)])
        ftl.free_segment(seg1)
        ftl.checkpoint()
        ftl.crash()
        recovered, __ = OXEleos.recover(media, config)
        assert seg1 not in recovered.segments
        assert recovered.read_page(1) == b"v2" * 100

    def test_checkpoint_bounds_replay(self):
        device, media, ftl, config = make_stack()
        ftl.append_buffer([(1, b"a" * 100)])
        ftl.checkpoint()
        ftl.append_buffer([(2, b"b" * 100)])
        media.flush()
        ftl.crash()
        recovered, report = OXEleos.recover(media, config)
        assert report.txns_applied == 1   # only the post-checkpoint buffer
        assert recovered.read_page(1) == b"a" * 100
        assert recovered.read_page(2) == b"b" * 100

    def test_operations_after_crash_rejected(self):
        __, __m, ftl, __c = make_stack()
        ftl.crash()
        with pytest.raises(FTLError):
            ftl.append_buffer([(1, b"x")])
