"""Oracles for incremental reclaim accounting.

OX-ELEOS keeps per-segment liveness in step with its page map and the
OX-Block collector decides liveness by linear-address arithmetic.  The
O(table) definitions those replaced live on here as brute-force
references: a vmap scan for "pages in segment", a per-page recount for
the live ratio, and the ``delinearize``-per-sector victim scan.
"""

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule)

from repro.errors import FTLError
from repro.llama import LlamaConfig, LlamaEngine
from repro.llama.pages import DeltaPage
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD, Ppa
from repro.ox import BlockConfig, EleosConfig, MediaManager, OXBlock, OXEleos
from repro.ox.ftl.serial import NO_PPA
from repro.units import KIB

SS = 4096


# -- references (the definitions the counters replaced) ------------------------

def segment_of_by_scan(ftl, page_id):
    entry = ftl.vmap.get(page_id)
    if entry is None:
        return None
    key = ftl.geometry.delinearize(entry.first_sector).chunk_key()
    for segment_id, chunks in ftl.segments.items():
        if key in chunks:
            return segment_id
    return None


def pages_in_segment_by_scan(ftl, segment_id):
    chunks = set(ftl.segments[segment_id])
    return {page_id for page_id, entry in ftl.vmap.items()
            if ftl.geometry.delinearize(entry.first_sector).chunk_key()
            in chunks}


def live_ratio_by_recount(ftl, segment_id, written_pids):
    """LLAMA's former bookkeeping: of the pages the segment was written
    with, the share whose current location is still that segment."""
    if not written_pids:
        return 0.0
    live = sum(1 for pid in written_pids
               if segment_of_by_scan(ftl, pid) == segment_id)
    return live / len(written_pids)


def find_live_sectors_by_delinearize(gc, key, oob):
    live, unsafe = [], 0
    for sector, lba in enumerate(oob):
        if not isinstance(lba, int) or lba == NO_PPA:
            continue
        current = gc.page_map.lookup(lba)
        if current is None:
            continue
        ppa = gc.geometry.delinearize(current)
        if ppa.chunk_key() == key and ppa.sector == sector:
            live.append((sector, lba))
            continue
        if ppa.sector >= gc.media.chunk_info(ppa).flushed_pointer:
            unsafe += 1
    return live, unsafe


# -- OX-ELEOS / LLAMA ----------------------------------------------------------------

# Chunks are 96 KB here, so a buffer can make a five-chunk segment; all
# 24 pages at their largest still fit one buffer, so the cleaner's
# relocation batch always does.
ELEOS_CONFIG = EleosConfig(buffer_bytes=512 * KIB, wal_chunk_count=8,
                           ckpt_chunks_per_slot=2)


def make_eleos():
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=48, pages_per_block=3))
    media = MediaManager(OpenChannelSSD(geometry=geometry))
    return media, OXEleos.format(media, ELEOS_CONFIG)


def test_cleaner_sees_segments_written_before_a_crash():
    """A new engine over a recovered FTL must still clean the segments the
    crashed one wrote, or their space leaks forever."""
    media, ftl = make_eleos()
    engine = LlamaEngine(ftl)
    for pid in range(10):
        engine.replace(pid, bytes([pid]) * 200)
    seg1 = engine.flush()
    media.flush()
    ftl.crash()

    ftl, __ = OXEleos.recover(media, ELEOS_CONFIG)
    engine = LlamaEngine(ftl)
    for pid in range(10):
        engine.replace(pid, bytes([pid + 100]) * 200)
    seg2 = engine.flush()
    assert engine.clean_once() == seg1
    assert set(ftl.segments) == {seg2}
    for pid in range(10):
        assert engine.read(pid) == bytes([pid + 100]) * 200


PIDS = st.integers(0, 23)
SIZES = st.sampled_from([1, 37, 4092, 4093, 9000, 20000])


class EleosLiveness(RuleBasedStateMachine):
    """Every way the page map can change, in any order; after each step
    the incremental liveness must equal the recount from ``vmap``."""

    def __init__(self):
        super().__init__()
        self.media, self.ftl = make_eleos()
        self.data_chunks = self.ftl.free_chunk_count()
        self.written = {}   # segment -> pids it was written with
        self._new_engine()

    def _new_engine(self):
        self.engine = LlamaEngine(
            self.ftl, LlamaConfig(clean_live_ratio=0.6, cache_capacity=8))

    def _relieve_wal(self):
        # free_segment logs a record but, unlike append_buffer, never
        # checkpoints on WAL pressure: a host freeing segments back to
        # back has to do it, or the ring fills.
        if self.ftl.wal.fill_fraction() > 0.5:
            self.ftl.checkpoint()

    def _note_new_segments(self):
        for segment_id in self.ftl.segments:
            if segment_id not in self.written:
                self.written[segment_id] = pages_in_segment_by_scan(
                    self.ftl, segment_id)

    @rule(pages=st.lists(st.tuples(PIDS, SIZES), min_size=1, max_size=24))
    def append_buffer(self, pages):
        # Behind the engine's back, but in its page format, so the engine
        # can still read what it finds.
        self.ftl.append_buffer([
            (pid, DeltaPage(pid, bytes([pid + 1]) * size).serialize())
            for pid, size in pages])
        self._note_new_segments()

    @rule(pid=PIDS, size=st.integers(1, 300))
    def update(self, pid, size):
        self.engine.update(pid, b"d" * size)

    @rule()
    def flush(self):
        # One flush may emit several segments; each is noted right after
        # the call, before any later write can move its pages.
        self.engine.flush()
        self._note_new_segments()

    @rule()
    def clean_once(self):
        self._relieve_wal()
        self.engine.clean_once()
        self._note_new_segments()

    @precondition(lambda self: self.ftl.segments)
    @rule(choice=st.integers(0, 1 << 16))
    def free_segment(self, choice):
        self._relieve_wal()
        segment_id = sorted(self.ftl.segments)[choice % len(self.ftl.segments)]
        if pages_in_segment_by_scan(self.ftl, segment_id):
            with pytest.raises(FTLError, match="still holds live pages"):
                self.ftl.free_segment(segment_id)
        else:
            self.ftl.free_segment(segment_id)

    @rule()
    def checkpoint(self):
        self.ftl.checkpoint()

    @rule()
    def crash_and_recover(self):
        self.ftl.crash()
        self.ftl, __ = OXEleos.recover(self.media, ELEOS_CONFIG)
        self._new_engine()
        # A recovered segment is known by what it holds at recovery.
        self.written = {}
        self._note_new_segments()

    @invariant()
    def liveness_matches_the_recount(self):
        ftl = self.ftl
        total = 0
        for segment_id in ftl.segments:
            live = ftl.segment_live_pages(segment_id)
            assert live == sorted(pages_in_segment_by_scan(ftl, segment_id))
            assert ftl.segment_live_ratio(segment_id) == \
                live_ratio_by_recount(ftl, segment_id,
                                      self.written[segment_id])
            total += len(live)
        assert total == len(ftl.vmap)
        for page_id in ftl.vmap:
            assert ftl.segment_of(page_id) == segment_of_by_scan(ftl, page_id)

    @invariant()
    def chunk_index_matches_the_segments(self):
        ftl = self.ftl
        assert ftl._chunk_segment == {
            ftl._chunk_linear(key): segment_id
            for segment_id, chunks in ftl.segments.items()
            for key in chunks}
        assert set(ftl._live) == set(ftl._written) == set(ftl.segments)
        owned = sum(len(chunks) for chunks in ftl.segments.values())
        assert ftl.free_chunk_count() + owned == self.data_chunks


TestEleosLiveness = EleosLiveness.TestCase
TestEleosLiveness.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None)


# -- OX-Block GC victim scan -----------------------------------------------------------

def run(media, gen):
    return media.sim.run_until(media.sim.spawn(gen))


@pytest.mark.parametrize("seed", range(6))
def test_gc_victim_scan_matches_the_delinearize_reference(seed):
    """Dead, live, trimmed, relocation-pad and unflushed-superseder sectors
    in one device: the linear-address scan must classify every written
    chunk exactly as the per-sector ``delinearize`` scan did."""
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6))
    media = MediaManager(OpenChannelSSD(geometry=geometry))
    ftl = OXBlock.format(media, BlockConfig(
        wal_chunk_count=2, ckpt_chunks_per_slot=1, gc_enabled=False))
    rng = random.Random(seed)
    unit = geometry.ws_min
    span = 3 * geometry.sectors_per_chunk

    for lba in range(0, span, unit):
        ftl.write(lba, bytes([lba % 251]) * (SS * unit))
    ftl.flush()
    for __ in range(40):                      # durable overwrites and trims
        lba = rng.randrange(span)
        if rng.random() < 0.25:
            ftl.trim(lba, rng.randint(1, 4))
        else:
            ftl.write(lba, bytes([rng.randrange(251)]) * SS)
    ftl.flush()
    # One relocation, so some chunk carries NO_PPA pads in its OOB.
    victim = next(info for info in ftl.gc.victims(0)
                  if info.valid_count % unit)
    assert run(media, ftl.gc._relocate_and_reset_proc(victim))
    for __ in range(12):                      # superseders left volatile
        ftl.write(rng.randrange(span), bytes([7]) * SS)

    seen = {"live": 0, "unsafe": 0, "pad": 0, "trimmed": 0}
    for descriptor in media.scan_chunks():
        key = descriptor.ppa.chunk_key()
        written = descriptor.write_pointer
        if key not in ftl.chunk_table or not written:
            continue
        oob = run(media, media.read_proc(
            [Ppa(*key, s) for s in range(written)])).oob
        expected = find_live_sectors_by_delinearize(ftl.gc, key, oob)
        assert run(media, ftl.gc._find_live_sectors_proc(key, written)) \
            == expected
        seen["live"] += len(expected[0])
        seen["unsafe"] += expected[1]
        seen["pad"] += sum(1 for lba in oob if lba == NO_PPA)
        seen["trimmed"] += sum(
            1 for lba in oob if isinstance(lba, int) and lba != NO_PPA
            and ftl.page_map.lookup(lba) is None)
    assert all(seen.values()), seen
