"""Tests for LLAMA-lite (pages, engine, cleaner) and the DFC copy model."""

import pytest

from repro.errors import ReproError
from repro.host import DfcPlatform, HostWriteExperiment
from repro.host.platform import DfcSpec
from repro.llama import DeltaPage, LlamaConfig, LlamaEngine
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import EleosConfig, MediaManager, OXEleos
from repro.units import KIB, MIB


def make_engine(groups=2, pus=2, chunks=16, pages=12,
                llama_config=None):
    geometry = DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    ftl = OXEleos.format(media, EleosConfig(buffer_bytes=1 * MIB,
                                            ckpt_chunks_per_slot=2))
    return device, ftl, LlamaEngine(ftl, llama_config or LlamaConfig())


class TestDeltaPage:
    def test_materialize_concatenates_deltas(self):
        page = DeltaPage(pid=1, base=b"base")
        page.apply_delta(b"+d1")
        page.apply_delta(b"+d2")
        assert page.materialize() == b"base+d1+d2"

    def test_consolidate_folds_chain(self):
        page = DeltaPage(pid=1, base=b"base")
        page.apply_delta(b"+d")
        page.consolidate()
        assert page.base == b"base+d"
        assert page.chain_length == 0

    def test_serialize_roundtrip(self):
        page = DeltaPage(pid=9, base=b"the-base")
        page.apply_delta(b"delta-one")
        page.apply_delta(b"")
        blob = page.serialize()
        restored = DeltaPage.deserialize(9, blob)
        assert restored.base == b"the-base"
        assert restored.deltas == [b"delta-one", b""]
        assert restored.materialize() == page.materialize()

    def test_corrupt_blob_rejected(self):
        with pytest.raises(ReproError):
            DeltaPage.deserialize(1, b"\xff\xff\xff\xff")

    @pytest.mark.parametrize("tail", [b"\x01", b"\x01\x02", b"\x01\x02\x03"])
    def test_a_tail_shorter_than_a_delta_length_names_the_page(self, tail):
        """It used to surface as a bare ``struct.error``."""
        page = DeltaPage(7, b"base", [b"one", b"two"])
        with pytest.raises(ReproError, match="page 7: .* trailing bytes"):
            DeltaPage.deserialize(7, page.serialize() + tail)


class TestLlamaEngine:
    def test_update_flush_read(self):
        __, __f, engine = make_engine()
        engine.replace(1, b"content-one")
        engine.update(1, b"+delta")
        engine.flush()
        assert engine.read(1) == b"content-one+delta"

    def test_read_miss_fetches_from_ftl(self):
        __, ftl, engine = make_engine()
        engine.replace(2, b"persisted")
        engine.flush()
        engine._cache.clear()     # force a miss
        assert engine.read(2) == b"persisted"
        assert engine.stats.cache_misses == 1

    def test_consolidation_threshold(self):
        __, __f, engine = make_engine(
            llama_config=LlamaConfig(consolidate_after=3))
        for i in range(3):
            engine.update(5, bytes([65 + i]))
        assert engine.stats.consolidations == 1
        assert engine.read(5) == b"ABC"

    def test_flush_only_dirty_pages(self):
        __, ftl, engine = make_engine()
        engine.replace(1, b"one")
        engine.flush()
        pages_before = engine.stats.pages_flushed
        engine.replace(2, b"two")
        engine.flush()
        assert engine.stats.pages_flushed == pages_before + 1

    def test_flush_returns_none_when_clean(self):
        __, __f, engine = make_engine()
        assert engine.flush() is None

    def test_cleaner_relocates_live_pages_and_frees_segment(self):
        __, ftl, engine = make_engine(
            llama_config=LlamaConfig(clean_live_ratio=0.9))
        for pid in range(10):
            engine.replace(pid, bytes([pid]) * 200)
        seg1 = engine.flush()
        for pid in range(8):         # rewrite most pages -> seg1 mostly dead
            engine.replace(pid, bytes([pid + 100]) * 200)
        engine.flush()
        assert engine.segment_live_ratio(seg1) == pytest.approx(0.2)
        cleaned = engine.clean_once()
        assert cleaned == seg1
        assert seg1 not in ftl.segments
        # Live pages 8 and 9 relocated and still readable.
        assert engine.read(8) == bytes([8]) * 200
        assert engine.read(9) == bytes([9]) * 200
        assert engine.stats.pages_relocated == 2

    def test_cleaner_skips_hot_segments(self):
        __, __f, engine = make_engine(
            llama_config=LlamaConfig(clean_live_ratio=0.5))
        for pid in range(4):
            engine.replace(pid, b"live" * 50)
        engine.flush()
        assert engine.clean_once() is None

    def test_cache_eviction_respects_capacity(self):
        __, __f, engine = make_engine(
            llama_config=LlamaConfig(cache_capacity=4))
        for pid in range(10):
            engine.replace(pid, bytes([pid]) * 64)
        engine.flush()
        assert len(engine._cache) <= 4
        # Evicted pages still readable through the FTL.
        assert engine.read(0) == b"\x00" * 64


class TestCopyModel:
    def make_experiment(self, **spec_overrides):
        geometry = DeviceGeometry(
            num_groups=4, pus_per_group=4,
            flash=FlashGeometry(blocks_per_plane=32, pages_per_block=24))
        device = OpenChannelSSD(geometry=geometry)
        media = MediaManager(device)
        ftl = OXEleos.format(media, EleosConfig(
            buffer_bytes=2 * MIB, ckpt_chunks_per_slot=2))
        spec = DfcSpec(**spec_overrides) if spec_overrides else DfcSpec()
        platform = DfcPlatform(device.sim, spec)
        # Whole LSS buffers, as the paper's host threads write them.
        return HostWriteExperiment(ftl, platform, page_bytes=32 * KIB)

    def test_copy_time_scales_with_bytes(self):
        experiment = self.make_experiment()
        platform = experiment.platform
        assert platform.copy_time(2 * platform.spec.memcpy_bandwidth) \
            == pytest.approx(2.0)

    def test_utilization_grows_then_saturates(self):
        experiment = self.make_experiment()
        utilizations = {}
        for threads in (1, 2, 8):
            result = experiment.run(threads, buffers_per_thread=4)
            utilizations[threads] = result.cpu_utilization
        assert utilizations[1] < utilizations[2] <= 1.0
        assert utilizations[8] <= 1.0
        # Saturation: going 2 -> 8 threads gains far less than 1 -> 2.
        gain_12 = utilizations[2] - utilizations[1]
        gain_28 = utilizations[8] - utilizations[2]
        assert gain_28 < gain_12

    def test_single_thread_cannot_exceed_half_capacity(self):
        """One host thread performs its two copies sequentially, so it can
        busy at most one of the two copy cores at a time."""
        experiment = self.make_experiment()
        result = experiment.run(1, buffers_per_thread=4)
        assert result.cpu_utilization <= 0.55

    def test_throughput_reported(self):
        experiment = self.make_experiment()
        result = experiment.run(2, buffers_per_thread=2)
        assert result.buffers_written == 4
        assert result.throughput_bytes_per_sec > 0
