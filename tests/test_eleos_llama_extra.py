"""Additional coverage for OX-ELEOS internals and the LLAMA engine:
checkpoints that bound the recovery scan, multi-segment flushes, segment
attribution."""

import pytest

from repro.errors import FTLError
from repro.llama import LlamaConfig, LlamaEngine
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import EleosConfig, MediaManager, OXEleos
from repro.units import KIB, MIB


def make_stack(buffer_kib=256, chunks=24):
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=12))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    config = EleosConfig(buffer_bytes=buffer_kib * KIB,
                         ckpt_chunks_per_slot=1)
    return device, media, OXEleos.format(media, config), config


class TestEleosInternals:
    def test_frees_checkpoint_to_bound_the_scan(self):
        """Appends take no checkpoint; the first free after they
        opened a chunk per PU takes one."""
        device, media, ftl, __ = make_stack(buffer_kib=512)
        checkpoints = ftl.stats.checkpoints
        size = device.geometry.chunk_size - 4096     # a chunk each
        segments = [ftl.append_buffer([(i, bytes([i]) * size)])
                    for i in range(4)]
        ftl.append_buffer([(i, bytes([i])) for i in range(4)])
        assert ftl.stats.checkpoints == checkpoints
        ftl.free_segment(segments[0])
        assert ftl.stats.checkpoints == checkpoints + 1
        ftl.free_segment(segments[1])       # no chunk opened since
        assert ftl.stats.checkpoints == checkpoints + 1

    def test_segment_of_tracks_latest_location(self):
        device, media, ftl, __ = make_stack()
        seg1 = ftl.append_buffer([(1, b"one" * 10)])
        assert ftl.segment_of(1) == seg1
        seg2 = ftl.append_buffer([(1, b"two" * 10)])
        assert ftl.segment_of(1) == seg2
        assert ftl.segment_of(404) is None

    def test_stats_accumulate(self):
        device, media, ftl, __ = make_stack()
        ftl.append_buffer([(1, b"a" * 100), (2, b"b" * 200)])
        ftl.read_page(1)
        assert ftl.stats.buffers_appended == 1
        assert ftl.stats.pages_appended == 2
        assert ftl.stats.bytes_appended == 300
        assert ftl.stats.pages_read == 1

    def test_page_exactly_chunk_sized(self):
        device, media, ftl, __ = make_stack(buffer_kib=1024)
        chunk_bytes = device.report_geometry().chunk_size
        ftl.append_buffer([(9, b"C" * chunk_bytes)])
        assert len(ftl.read_page(9)) == chunk_bytes

    def test_recovery_after_scan_bound_checkpoints(self):
        device, media, ftl, config = make_stack(buffer_kib=512)
        size = device.geometry.chunk_size - 4096
        for i in range(20):
            old = ftl.append_buffer([(i, bytes([i + 1]) * size)])
            ftl.append_buffer([(i, bytes([i + 1]) * 300)])
            ftl.free_segment(old)
        media.flush()
        ftl.crash()
        recovered, report = OXEleos.recover(media, config)
        assert report.checkpoint_seq >= 1
        for i in range(20):
            assert recovered.read_page(i) == bytes([i + 1]) * 300


class TestLlamaMultiSegmentFlush:
    def test_flush_splits_across_lss_buffers(self):
        """More dirty data than one LSS buffer: the flush emits several
        segments, each within the buffer bound."""
        device, media, ftl, __ = make_stack(buffer_kib=64)
        engine = LlamaEngine(ftl)
        for pid in range(40):
            engine.replace(pid, bytes([pid]) * 4000)   # ~160 KB total
        engine.flush()
        assert ftl.stats.buffers_appended >= 3
        for pid in range(40):
            assert engine.read(pid) == bytes([pid]) * 4000

    def test_oversized_page_rejected_at_flush(self):
        device, media, ftl, __ = make_stack(buffer_kib=16)
        engine = LlamaEngine(ftl)
        engine.replace(1, b"x" * (64 * KIB))
        with pytest.raises(Exception):
            engine.flush()

    def test_cleaning_after_multi_segment_flush(self):
        # Note: a live-ratio threshold of 1.0 would make *every* segment
        # eligible forever — the cleaner would relocate pages in an
        # endless loop and literally wear out the WAL region (a failure
        # mode the simulator reproduces).  0.9 cleans only segments that
        # actually lost pages.
        device, media, ftl, __ = make_stack(buffer_kib=64, chunks=48)
        engine = LlamaEngine(ftl, LlamaConfig(clean_live_ratio=0.9))
        for pid in range(40):
            engine.replace(pid, bytes([pid]) * 4000)
        engine.flush()
        for pid in range(40):
            engine.replace(pid, bytes([pid + 100]) * 4000)
        engine.flush()
        # All early segments are now fully dead; clean them all.
        freed = 0
        while engine.clean_once() is not None:
            freed += 1
        assert freed >= 3
        for pid in range(40):
            assert engine.read(pid) == bytes([pid + 100]) * 4000
