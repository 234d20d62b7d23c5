"""Integration tests for OX-ELEOS: LSS buffer writes, variable-size page
mapping, segment lifecycle, crash recovery."""

import random

import pytest

from repro.errors import FTLError, OutOfSpaceError, ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.checker import FTL_OPS, recover_after_cut
from repro.llama import LlamaConfig, LlamaEngine
from repro.nand import FlashGeometry
from repro.obs import Obs
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ocssd.address import Ppa
from repro.ox import EleosConfig, MediaManager, OXEleos
from repro.units import KIB, MIB
from tests.cuts import break_block, cut_after, cut_during, cut_in


def make_stack(groups=2, pus=2, chunks=16, pages=12, config=None):
    geometry = DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    config = config or EleosConfig(buffer_bytes=1 * MIB,
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
        # Data sectors only; well below one unit per page.
        assert written < 32 * device.geometry.ws_min


class TestRejectedBuffers:
    """A buffer a checkpoint could not encode is refused before the lock (at
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
        # Recovery maps a buffer's pages in placement order, not in the
        # order given: a page named twice would have no defined winner.
        ([(1, b"a" * 100), (1, b"b" * 100)], "page 1 is named twice"),
    ])
    def test_rejected_before_anything_is_allocated(self, pages, match):
        __, __m, ftl, __c = make_stack()
        ftl.append_buffer([(9, b"keep" * 10)])

        def state():
            return (ftl.free_chunk_count(), dict(ftl.segments),
                    dict(ftl.vmap), ftl.journal.next_txn_id,
                    ftl._unmapped, ftl._lock.in_use)

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
        chunks = ftl.segment_chunks(seg)
        assert len(chunks) >= 2
        assert len({(c[0], c[1]) for c in chunks}) == len(chunks)

    def test_free_segment_requires_no_live_pages(self):
        __, __m, ftl, __c = make_stack()
        seg = ftl.append_buffer([(1, b"live" * 100)])
        with pytest.raises(FTLError):
            ftl.free_segment(seg)

    def test_free_segment_reclaims_chunks(self):
        """A segment that filled its chunk gives the chunk back; the open
        chunk page 1 moved into stays with the append that took it."""
        device, __m, ftl, __c = make_stack()
        almost_chunk = device.geometry.chunk_size - 4096
        seg1 = ftl.append_buffer([(1, b"v" * almost_chunk)])
        free_before = ftl.free_chunk_count()
        ftl.append_buffer([(1, b"v2" * 100)])   # page 1 moves to seg2
        assert ftl.free_chunk_count() == free_before - 1
        ftl.free_segment(seg1)
        assert seg1 not in ftl.segments
        assert ftl.free_chunk_count() == free_before
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
        assert (report.txns_applied, report.unit_txns_applied) == (0, 1)

    def test_unflushed_buffer_dropped_atomically(self):
        device, media, ftl, config = make_stack()
        ftl.append_buffer([(1, b"first" * 50)])
        media.flush()
        ftl.append_buffer([(1, b"second" * 50), (2, b"other" * 30)])
        ftl.crash()
        recovered, report = OXEleos.recover(media, config)
        value = recovered.read_page(1)
        if report.unit_txns_torn:
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
        assert report.unit_txns_applied == 1  # only the post-checkpoint one
        assert recovered.read_page(1) == b"a" * 100
        assert recovered.read_page(2) == b"b" * 100

    def test_operations_after_crash_rejected(self):
        __, __m, ftl, __c = make_stack()
        ftl.crash()
        with pytest.raises(FTLError):
            ftl.append_buffer([(1, b"x")])


# -- an append commits in its stamps: there is no ring to size or fill -------

def test_there_is_no_ring_and_its_chunks_hold_data():
    """OX-ELEOS reserves only its two checkpoint slots; a
    ``wal_chunk_count`` left in a config reserves nothing."""
    __, __m, ftl, __c = make_stack(config=EleosConfig(
        buffer_bytes=1 * MIB, wal_chunk_count=4, ckpt_chunks_per_slot=2))
    assert ftl.journal.wal is None
    assert ftl.layout.metadata_chunk_keys() == {
        key for slot in ftl.layout.ckpt_slots for key in slot}
    assert len(ftl.layout.data_chunk_keys()) == 4 * 16 - 4


def test_a_commit_larger_than_the_rest_of_the_ring_costs_no_segment():
    """At 2d14897 an append whose WAL commit overran the rest of the ring
    left its chunk and an empty segment owned.  A commit is the append's
    own stamps now: 5 000 rows, more than a one-chunk ring held, cost
    one segment and no checkpoint, and survive a crash."""
    config = EleosConfig(buffer_bytes=1 * MIB, ckpt_chunks_per_slot=2)
    __, media, ftl, __c = make_stack(chunks=16, pages=6, config=config)
    ftl.append_buffer([(1, b"x" * 100)])
    free, checkpoints = ftl.free_chunk_count(), ftl.stats.checkpoints
    ftl.append_buffer([(10 + i, b"y") for i in range(5000)])
    assert ftl.stats.checkpoints == checkpoints
    assert (ftl.free_chunk_count(), len(ftl.segments)) == (free - 1, 2)
    ftl.append_buffer([(2, b"small")])
    ftl.crash()
    recovered, report = OXEleos.recover(media, config)
    assert report.unit_txns_applied == 3
    assert recovered.read_page(1) == b"x" * 100
    assert recovered.read_page(2) == b"small"
    assert recovered.read_page(10 + 4999) == b"y"


def test_a_commit_no_ring_could_take_lands_in_its_stamps():
    """9 000 pages used to be refused ("enlarge wal_chunk_count"): their
    rows did not fit an empty ring.  The stamps carry them."""
    config = EleosConfig(buffer_bytes=1 * MIB, ckpt_chunks_per_slot=2)
    __, media, ftl, __c = make_stack(chunks=16, pages=6, config=config)
    ftl.append_buffer([(10 + i, b"y") for i in range(9000)])
    ftl.crash()
    recovered, __r = OXEleos.recover(media, config)
    assert recovered.live_page_ids() == [10 + i for i in range(9000)]
    assert recovered.read_page(10 + 8999) == b"y"


@pytest.mark.parametrize("pages", [1, 168, 169, 170, 338, 339, 3000, 7000])
def test_no_append_outgrows_the_size_it_was_admitted_with(pages):
    """An append writes the units it planned and nothing else: no
    checkpoint, with frees between the appends too."""
    config = EleosConfig(buffer_bytes=1 * MIB, ckpt_chunks_per_slot=2)
    device, __m, ftl, __c = make_stack(chunks=16, pages=6, config=config)
    stats = device.controller.stats
    for round_ in range(3):
        segment = ftl.append_buffer([(0, b"old")])
        ftl.append_buffer([(0, b"new")])
        ftl.free_segment(segment)
        written, checkpoints = stats.sectors_written, ftl.stats.checkpoints
        segment = ftl.append_buffer([(100 + i, b"p") for i in range(pages)])
        assert stats.sectors_written - written \
            == len(ftl.segments[segment]) * ftl.geometry.ws_min
        assert ftl.stats.checkpoints == checkpoints
        assert ftl.read_page(100 + pages - 1) == b"p"


# -- a free costs its flush and logs nothing; erases behind it -------------

def test_free_segment_flushes_no_wal_and_erases_side_by_side():
    """The free lasts its device flush (nothing to drain here); its two
    erases run behind it, side by side, one erase time in all."""
    device, __m, ftl, __c = make_stack()
    almost_chunk = device.geometry.chunk_size - 4096
    seg = ftl.append_buffer([(1, b"x" * almost_chunk),
                             (2, b"y" * almost_chunk)])
    assert len({key[:2] for key in ftl.segment_chunks(seg)}) == 2
    ftl.append_buffer([(1, b"x2"), (2, b"y2")])
    device.flush()
    written, started = device.controller.stats.sectors_written, \
        device.sim.now
    ftl.free_segment(seg)
    assert device.sim.now == started
    assert device.controller.stats.sectors_written == written  # no log
    erases = list(ftl.pool.erasing.values())
    assert len(erases) == 2
    device.sim.run_until(device.sim.all_of(erases))
    erase = device.chips[(0, 0)].timing.erase_time()
    assert device.sim.now - started == pytest.approx(erase, rel=0.05)


def test_one_chunk_segments_rotate_over_every_pu_group_first():
    """At ea140c7 every allocation restarted at PU (0,0): one-chunk
    segments piled onto group 0, beside the WAL ring and checkpoints.
    One-unit segments take one PU after another the same way."""
    __, __m, ftl, __c = make_stack(groups=4, pus=4)
    pus = [ftl.segment_chunks(ftl.append_buffer([(pid, b"p" * 100)]))[0][:2]
           for pid in range(16)]
    assert len(set(pus)) == 16
    groups = [group for group, __ in pus]
    assert all(len(set(groups[i:i + 4])) == 4 for i in range(13))


def test_free_returns_after_its_flush_and_before_its_erases():
    """The free waits for its device flush, not for the erase of the
    chunks it gives back."""
    device, media, ftl, __c = make_stack()
    sim = device.sim
    size = device.geometry.chunk_size - 4096
    old = ftl.append_buffer([(1, b"a" * size)])
    ftl.append_buffer([(1, b"b" * size)])
    flushed = []
    flush_proc = media.flush_proc

    def timed_flush(*args):
        yield from flush_proc(*args)
        flushed.append(sim.now)
    media.flush_proc = timed_flush
    chunks, started = ftl.segment_chunks(old), sim.now
    free = ftl.free_chunk_count()
    ftl.free_segment(old)
    assert flushed == [sim.now] and sim.now >= started
    assert sorted(ftl.pool.erasing) == chunks
    assert ftl.free_chunk_count() == free + len(chunks)
    sim.run_until(sim.all_of(list(ftl.pool.erasing.values())))
    for key in chunks:
        assert media.chunk_info(Ppa(*key, 0)).write_pointer == 0
        assert key in ftl.pool.free[key[:2]]
    assert ftl.free_chunk_count() == free + len(chunks)
    assert ftl.read_page(1) == b"b" * size


def test_an_append_on_a_pool_of_erasing_chunks_waits_for_one():
    """Erasing chunks count as free: the append that finds none erased
    waits for an erase instead of running out of space."""
    device, __m, ftl, __c = make_stack(chunks=8)
    while ftl.free_unit_count():
        ftl.append_buffer([(0, b"v" * 100)])
    assert not ftl.open_chunks()        # every chunk written to its end
    empty = [seg for seg in ftl.segments if not ftl.segment_live_pages(seg)]
    for seg in empty:
        ftl.free_segment(seg)
    erasing = dict(ftl.pool.erasing)
    # Every data chunk but the one holding page 0's last copy.
    assert ftl.free_chunk_count() == len(erasing) \
        == len(ftl.layout.data_chunk_keys()) - 1
    segment = ftl.append_buffer([(1, b"after the wait")])
    key, = ftl.segment_chunks(segment)
    assert erasing[key].processed
    assert ftl.read_page(1) == b"after the wait"
    assert list(space_problems(ftl)) == []


@pytest.mark.parametrize("how", ["kill", "power cut"])
def test_a_crash_with_an_erase_in_flight_conserves_space(how):
    device, media, ftl, config = make_stack()
    injector = (FaultInjector(FaultPlan()).attach(device)
                if how == "power cut" else None)
    size = device.geometry.chunk_size - 4096
    old = ftl.append_buffer([(1, b"1" * size),
                             (2, b"two" * 100)])   # one run, a whole chunk
    ftl.append_buffer([(1, b"ONE" * 100), (2, b"TWO" * 100)])
    ftl.append_buffer([(3, b"three" * 100)])
    ftl.free_segment(old)
    assert ftl.pool.erasing
    shadow = {pid: ftl.read_page(pid) for pid in (1, 2, 3)}
    if injector is not None:
        injector.power_cut()
    recovered, __r = recover_after_cut(injector, ftl)
    assert old not in recovered.segments and not recovered.pool.erasing
    assert list(space_problems(recovered)) == []
    assert {pid: recovered.read_page(pid) for pid in shadow} == shadow
    recovered.append_buffer([(4, b"four")])
    assert recovered.read_page(4) == b"four"
    assert list(space_problems(recovered)) == []


def test_an_erase_that_raises_is_absorbed_and_counted():
    """A deferred erase belongs to the FTL: its ReproError never reaches
    the simulator as a failed process; the chunk leaves the pool until
    recovery erases it again."""
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=16, pages_per_block=12))
    device = OpenChannelSSD(geometry=geometry)
    obs = Obs().attach(device)
    media = MediaManager(device)
    config = EleosConfig(buffer_bytes=1 * MIB, ckpt_chunks_per_slot=2)
    ftl = OXEleos.format(media, config)
    old = ftl.append_buffer([(1, b"v1" * (geometry.chunk_size // 2 - 64))])
    ftl.append_buffer([(1, b"v2")])
    free = ftl.free_chunk_count()

    def raising(ppa, parent=None):
        raise ReproError(f"no reset for {ppa}")
        yield
    media.reset_proc = raising
    ftl.free_segment(old)
    device.sim.run()
    assert obs.metrics.counter("ftl.errors.erase-absorbed").value == 1
    assert ftl.stats.chunks_retired == 1 and ftl.free_chunk_count() == free
    del media.reset_proc
    recovered, __r = recover_after_cut(None, ftl)
    assert recovered.free_chunk_count() == free + 1
    assert recovered.read_page(1) == b"v2"


def test_failed_erase_is_counted_and_reported():
    """A grown bad block under a freed segment: the chunk leaves the pool
    with a count and an obs error, during a free and during recovery."""
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=16, pages_per_block=12))
    device = OpenChannelSSD(geometry=geometry)
    obs = Obs().attach(device)
    media = MediaManager(device)
    config = EleosConfig(buffer_bytes=1 * MIB, ckpt_chunks_per_slot=2)
    ftl = OXEleos.format(media, config)
    # Pages that fill their chunks: a freed segment's chunk is closed.
    size = geometry.chunk_size - 4096
    seg1 = ftl.append_buffer([(1, b"1" * size)])
    seg2 = ftl.append_buffer([(1, b"2" * size)])
    seg3 = ftl.append_buffer([(1, b"v3")])
    (bad1,), (bad2,) = ftl.segment_chunks(seg1), ftl.segment_chunks(seg2)
    FaultInjector(FaultPlan(grown_bad=[[*bad1, 1], [*bad2, 1]])).attach(device)
    free = ftl.free_chunk_count()
    ftl.free_segment(seg1)
    assert ftl.stats.chunks_retired == 1
    assert ftl.free_chunk_count() == free
    assert obs.metrics.counter("ftl.errors.reset-failed").value == 1
    # seg2 is empty at the crash: recovery drops it and erases its chunk.
    ftl.crash()
    recovered, __r = OXEleos.recover(MediaManager(device), config)
    assert recovered.stats.chunks_retired == 1
    assert obs.metrics.counter("ftl.errors.reset-failed").value == 2
    assert seg2 not in recovered.segments
    assert bad1 not in recovered.pool.free[bad1[:2]]
    assert bad2 not in recovered.pool.free[bad2[:2]]
    assert recovered.read_page(1) == b"v3" and seg3 in recovered.segments


# -- runs: whole write units, FUA, striped over shared open chunks -----------

UNIT = 96 * KIB     # make_stack's write unit: 24 sectors; a chunk holds 4


def test_a_buffer_is_cut_into_one_run_per_pu_of_whole_units():
    """Two units of pages become two one-unit runs on two PUs, each at
    its PU's open chunk; no page crosses a run."""
    __, __m, ftl, __c = make_stack()
    pages = [(pid, bytes([pid]) * (30 * KIB)) for pid in range(5)]  # 150 KiB
    seg = ftl.append_buffer(pages)
    assert len(ftl.segments[seg]) == 2
    chunks = ftl.segment_chunks(seg)
    assert len({key[:2] for key in chunks}) == 2
    assert sorted(ftl.open_chunks().values()) == chunks
    ws_min = ftl.geometry.ws_min
    for page_id, payload in pages:
        entry = ftl.vmap[page_id]
        last = entry.first_sector + (entry.offset + entry.length - 1) // 4096
        assert entry.first_sector // ws_min == last // ws_min
        assert ftl.read_page(page_id) == payload


def test_after_an_append_returns_nothing_of_it_waits_in_the_cache():
    """The runs are FUA beside the commit: at the ack no program of the
    append is queued behind it, so none runs under the next read."""
    device, __m, ftl, __c = make_stack()
    controller = device.controller
    size = device.geometry.chunk_size - 4096    # four units on one PU
    for round_ in range(3):
        ftl.append_buffer([(0, bytes([round_]) * size),
                           (1, bytes([round_]) * (40 * KIB))])
        assert controller.cache.used_sectors == 0
        assert controller._admitted == controller._programmed


def test_appends_share_a_pus_open_chunk():
    """A one-unit append takes the next PU's open chunk at its write
    pointer: the fifth lands beside the first."""
    __, media, ftl, __c = make_stack()
    segs = [ftl.append_buffer([(pid, b"p" * 100)]) for pid in range(5)]
    assert ftl.segment_chunks(segs[0]) == ftl.segment_chunks(segs[4])
    key, = ftl.segment_chunks(segs[0])
    assert ftl.pool.held[key] == 2
    assert media.chunk_info(Ppa(*key, 0)).write_pointer \
        == 2 * ftl.geometry.ws_min


def test_a_shared_chunk_is_erased_only_after_both_segments_are_freed():
    device, media, ftl, __c = make_stack()
    first = ftl.append_buffer([(1, b"a" * (2 * UNIT - 4096))])
    for pid in (2, 3, 4):       # the other three PUs
        ftl.append_buffer([(pid, b"x" * 100)])
    second = ftl.append_buffer([(5, b"b" * (2 * UNIT - 4096))])
    key, = ftl.segment_chunks(first)
    assert ftl.segment_chunks(second) == [key]
    assert key not in ftl.open_chunks().values()     # full: closed
    ftl.append_buffer([(1, b"moved"), (5, b"moved")])
    ftl.free_segment(first)
    assert key not in ftl.pool.erasing and ftl.pool.held[key] == 2
    assert media.chunk_info(Ppa(*key, 0)).write_pointer > 0
    ftl.free_segment(second)
    assert key in ftl.pool.erasing
    device.sim.run_until(device.sim.all_of(list(ftl.pool.erasing.values())))
    assert media.chunk_info(Ppa(*key, 0)).write_pointer == 0
    assert list(space_problems(ftl)) == []


def _delayed(proc, sim, delay, when=lambda *args, **kwargs: True):
    """*proc*, each call for which *when* holds starting *delay* late."""
    def wrapped(*args, **kwargs):
        if when(*args, **kwargs):
            yield sim.timeout(delay)
        return (yield from proc(*args, **kwargs))
    return wrapped


def test_a_cut_with_the_commit_durable_and_a_unit_not_drops_the_append():
    """The first run's stamps commit the append, but only with its second
    run's: the append is torn and dropped whole."""
    device, media, ftl, config = make_stack()
    ftl.append_buffer([(1, b"old one"), (2, b"old two")])
    injector = FaultInjector(FaultPlan()).attach(device)
    # The append's second run (page 2's, on the PU after the first
    # run's) starts a second late; the cut comes half a second in.
    second = ftl._pus[(ftl._cursor + 1) % len(ftl._pus)]
    media.write_proc = _delayed(
        media.write_proc, device.sim, 1.0,
        lambda ppas, data, oob=None, **kwargs: ppas.key[:2] == second)
    cut_in(injector, 0.5)
    with pytest.raises(ReproError):
        ftl.append_buffer([(1, b"n" * UNIT), (2, b"m" * 100)])
    recovered, report = recover_after_cut(injector, ftl)
    assert (report.unit_txns_applied, report.unit_txns_torn) == (1, 1)
    assert recovered.read_page(1) == b"old one"
    assert recovered.read_page(2) == b"old two"
    assert list(space_problems(recovered)) == []


def test_a_cut_with_every_run_durable_before_the_ack_maps_the_append():
    """The append waits for the dispatch lock while its runs land: cut
    then, it was never acked, but its stamps all landed and commit it."""
    device, media, ftl, config = make_stack()
    sim = device.sim
    ftl.append_buffer([(1, b"old one")])
    injector = FaultInjector(FaultPlan()).attach(device)

    def holder():
        grant = ftl._lock.request()
        yield grant
        yield sim.timeout(1.0)
    sim.spawn(holder())
    opened = dict(ftl.open_chunks())
    cut_in(injector, 0.5)
    try:
        ftl.append_buffer([(1, b"n" * UNIT), (2, b"m" * UNIT)])
    except ReproError:
        pass
    assert 2 not in ftl.vmap                # never acked
    new = [key for key in ftl.open_chunks().values()
           if key not in opened.values()]
    assert len(new) == 2 and all(
        media.chunk_info(Ppa(*key, 0)).write_pointer == ftl.geometry.ws_min
        for key in new)                     # both units on media
    recovered, report = recover_after_cut(injector, ftl)
    assert (report.unit_txns_applied, report.unit_txns_torn) == (2, 0)
    assert recovered.live_page_ids() == [1, 2]
    assert recovered.read_page(1) == b"n" * UNIT
    assert all(key in recovered.pool.held for key in new)
    assert list(space_problems(recovered)) == []


def test_recovery_keeps_a_shared_chunk_and_resets_an_unheld_written_one():
    device, media, ftl, config = make_stack()
    segs = [ftl.append_buffer([(pid, b"p%d" % pid * 50)]) for pid in range(5)]
    shared, = ftl.segment_chunks(segs[0])       # pages 0 and 4
    unheld, = ftl.segment_chunks(segs[2])       # page 2 alone
    ftl.append_buffer([(0, b"moved 0"), (2, b"moved 2")])
    ftl.free_segment(segs[0])
    ftl.free_segment(segs[2])
    assert {shared, unheld} <= set(ftl.open_chunks().values())
    assert not ftl.pool.erasing                     # both still open
    ftl.crash()
    recovered, __r = OXEleos.recover(media, config)
    assert not recovered.open_chunks()
    assert recovered.pool.held[shared] == 1        # page 4's unit
    assert media.chunk_info(Ppa(*shared, 0)).write_pointer \
        == 2 * ftl.geometry.ws_min
    assert media.chunk_info(Ppa(*unheld, 0)).write_pointer == 0
    assert unheld in recovered.pool.free[unheld[:2]]
    assert recovered.read_page(4) == b"p4" * 50
    assert recovered.read_page(0) == b"moved 0"
    assert list(space_problems(recovered)) == []


def test_a_failed_run_in_a_shared_chunk_loses_the_acked_pages_beside_it():
    """A run whose program fails retires its chunk: the append is not
    acked and a checkpoint takes it out of the log, and an acked page
    beside it in the chunk is lost, reported by recovery."""
    device, media, ftl, config = make_stack()
    segs = [ftl.append_buffer([(pid, b"p%d" % pid * 50)]) for pid in range(4)]
    dead, = ftl.segment_chunks(segs[0])
    break_block(device, dead)
    checkpoints = ftl.stats.checkpoints
    with pytest.raises(ReproError):
        ftl.append_buffer([(4, b"lands on the dead chunk")])
    assert ftl.stats.checkpoints == checkpoints + 1
    assert dead not in ftl.open_chunks().values() and 4 not in ftl.vmap
    ftl.append_buffer([(5, b"after")])
    ftl.crash()
    recovered, report = OXEleos.recover(media, config)
    assert report.lost_lbas == [0]
    assert recovered.live_page_ids() == [1, 2, 3, 5]
    assert recovered.read_page(5) == b"after"
    assert list(space_problems(recovered)) == []


# -- power cuts along a clean ------------------------------------------------

CLEAN_STEPS = ["relocated", "free buffered", "erasing", "erased", "flushed"]

#: The crash checker's invariant A for OX-ELEOS: every data chunk is in
#: exactly one state of the pool's census, no write unit is owned by two
#: segments, and no segment is empty.
space_problems = FTL_OPS["eleos"].structure


def test_a_unit_owned_twice_breaks_space_conservation():
    """Two segments may share a chunk, never a unit."""
    __, __m, ftl, __c = make_stack()
    ftl.append_buffer([(1, b"one")])
    ftl.append_buffer([(2, b"two")])
    first, second = sorted(ftl.segments)
    ftl.segments[second] = ftl.segments[first]
    assert list(space_problems(ftl)) == [
        f"units {ftl.segments[first]} are owned by more than one segment"]


def test_a_chunk_in_two_states_breaks_space_conservation():
    """Every data chunk is in exactly one state of the census: a held
    chunk handed back to the free pool, and a chunk lost from every
    state, are both violations."""
    device, __m, ftl, __c = make_stack()
    size = device.geometry.chunk_size - 4096
    held, = ftl.segment_chunks(ftl.append_buffer([(1, b"h" * size)]))
    assert list(space_problems(ftl)) == []
    ftl.pool.free[held[:2]].append(held)
    assert list(space_problems(ftl)) == [
        f"chunk {held} is free and in use", f"free chunk {held} holds data"]
    ftl.pool.free[held[:2]].remove(held)
    spare = ftl.pool.take((1, 1))
    assert list(space_problems(ftl)) == [f"chunk {spare} is in no state"]


@pytest.mark.parametrize("step", CLEAN_STEPS)
def test_power_cut_at_each_step_of_a_clean(step):
    device, media, ftl, config = make_stack()
    injector = FaultInjector(FaultPlan())
    injector.attach(device)
    engine = LlamaEngine(ftl, LlamaConfig(clean_live_ratio=0.6,
                                          cache_capacity=2))
    for pid in range(6):        # one run each, two to a chunk
        engine.replace(pid, bytes([pid]) * (150 * KIB))
    victim = engine.flush()
    assert len(ftl.segment_chunks(victim)) == 4
    for pid in range(3):        # half of it goes stale
        engine.replace(pid, bytes([pid + 100]) * 300)
    engine.flush()
    media.flush()
    shadow = {pid: ftl.read_page(pid) for pid in ftl.live_page_ids()}
    assert ftl.segment_live_ratio(victim) == 0.5
    ftl.checkpoint()    # the clean's free takes none: it returns first

    reads = ftl.stats.pages_read
    if step == "relocated":         # relocation append acked, no free yet
        ftl.append_buffer_proc = cut_after(injector, ftl.append_buffer_proc)
    elif step == "free buffered":   # the free's flush done, nothing erased
        media.flush_proc = cut_after(injector, media.flush_proc)
    elif step == "erasing":         # 1 ms into the 3.5 ms erases
        media.reset_proc = cut_during(injector, media.reset_proc, 1e-3)
    try:
        engine.clean_once()     # with the power off it is a no-op or raises
    except ReproError:
        pass
    if step in CLEAN_STEPS[2:]:     # the free returned before its erases
        # The victim's closed chunks, less those the relocation shares.
        assert not injector.tripped and len(ftl.pool.erasing) == 2
        media.sim.run_until(media.sim.all_of(list(ftl.pool.erasing.values())))
    assert injector.tripped == (step in CLEAN_STEPS[:3])
    if not injector.tripped:
        assert victim not in ftl.segments
        if step == "flushed":       # an append after the free
            ftl.append_buffer([(50, b"after the free")])
            shadow[50] = b"after the free"
        injector.power_cut()
    assert ftl.stats.pages_read - reads == 3        # fetched for relocation

    recovered, report = recover_after_cut(injector, ftl)
    # An acked append is durable (its runs are FUA): cut right after the
    # relocation, the victim holds nothing and recovery drops it.
    assert victim not in recovered.segments
    assert {pid: recovered.read_page(pid) for pid in shadow} == shadow
    assert recovered.live_page_ids() == sorted(shadow)
    assert list(space_problems(recovered)) == []
    recovered.append_buffer([(7, b"and on it goes")])
    assert recovered.read_page(7) == b"and on it goes"
    assert list(space_problems(recovered)) == []


@pytest.mark.parametrize("cut", ["before its slot", "inside its slot"])
def test_power_cut_in_the_checkpoint_a_cleans_free_takes(cut):
    """Appends opened a chunk per PU since format's checkpoint, so the
    clean's free takes one after its flush, before any erase.  A cut at
    its start or inside its slot program loads format's checkpoint, the
    stamps bring back every acked page, and the victim, which the acked
    relocation emptied, is dropped."""
    device, media, ftl, config = make_stack()
    injector = FaultInjector(FaultPlan())
    injector.attach(device)
    engine = LlamaEngine(ftl, LlamaConfig(clean_live_ratio=0.6,
                                          cache_capacity=2))
    for pid in range(6):
        engine.replace(pid, bytes([pid]) * (150 * KIB))
    victim = engine.flush()
    for pid in range(3):
        engine.replace(pid, bytes([pid + 100]) * 300)
    engine.flush()
    shadow = {pid: ftl.read_page(pid) for pid in ftl.live_page_ids()}
    assert ftl._opened >= len(ftl._pus)
    if cut == "before its slot":
        checkpoint_proc = ftl._do_checkpoint_proc

        def cut_first(*args, **kwargs):
            injector.power_cut()
            return (yield from checkpoint_proc(*args, **kwargs))
        ftl._do_checkpoint_proc = cut_first
    else:
        slots = ftl.journal.checkpointer
        slots.write_payload_proc = cut_during(
            injector, slots.write_payload_proc, 1e-6)
    try:
        engine.clean_once()     # with the power off it raises, or not
    except ReproError:
        pass
    assert injector.tripped
    assert victim not in ftl.segments and not ftl.pool.erasing

    recovered, report = recover_after_cut(injector, ftl)
    assert report.checkpoint_seq == 1
    assert report.unit_txns_applied == 3    # two flushes, the relocation
    assert victim not in recovered.segments
    assert {pid: recovered.read_page(pid) for pid in shadow} == shadow
    assert recovered.live_page_ids() == sorted(shadow)
    assert list(space_problems(recovered)) == []


def test_randomized_append_free_crash_loop_recovers_every_page():
    """200 seeds of appends, frees and power cuts that land before, inside
    and after the joined erases — no free is ever logged — and a recovery
    after each: every acknowledged page reads back, every chunk is
    accounted for."""
    erase = 3.5e-3
    landed = {"erasing": 0, "erased": 0}
    for seed in range(200):
        rng = random.Random(seed)
        device, media, ftl, config = make_stack(chunks=12, pages=6)
        shadow = {}

        def append(ftl):
            batch = {rng.randrange(24): bytes([rng.randrange(256)])
                     * rng.randint(1, 6000) for __ in range(rng.randint(1, 6))}
            ftl.append_buffer(sorted(batch.items()))
            shadow.update(batch)
            return batch

        for cut in range(2):
            for __ in range(rng.randint(2, 6)):
                append(ftl)
                for seg in list(ftl.segments):
                    if not ftl.segment_live_pages(seg) and rng.random() < 0.6:
                        ftl.free_segment(seg)
            # The same pages twice: the first copy's segment is empty now.
            ftl.append_buffer(sorted(append(ftl).items()))
            empty = [seg for seg in ftl.segments
                     if not ftl.segment_live_pages(seg)]
            assert empty
            device.flush()      # an ack is durable once the cache drained
            injector = FaultInjector(FaultPlan(seed=seed)).attach(device)
            started = device.sim.now
            cut_in(injector, rng.uniform(0, 2 * erase))
            maybe = {100 + cut: b"in flight" * rng.randint(1, 300)}
            try:
                for seg in empty:
                    ftl.free_segment(seg)
                ftl.append_buffer(sorted(maybe.items()))
                # Nothing left in the cache makes the frees wait: run on
                # to the cut, inside or after the erases.
                device.sim.run_until(device.sim.timeout(2 * erase))
                injector.power_cut()
            except ReproError:
                pass
            assert injector.tripped
            landed["erasing" if injector.cut_time - started < erase
                   else "erased"] += 1
            ftl, __r = recover_after_cut(injector, ftl)
            for pid, payload in maybe.items():      # whole or not at all
                if pid in ftl.vmap:
                    assert ftl.read_page(pid) == payload
                    shadow[pid] = payload
            assert {pid: ftl.read_page(pid) for pid in shadow} == shadow, seed
            assert ftl.live_page_ids() == sorted(shadow), seed
            assert list(space_problems(ftl)) == []
    assert min(landed.values()) > 100, landed


def test_writers_whose_runs_overlap_keep_every_acked_page_across_a_cut():
    """Runs are issued before the dispatch lock, so one writer's units
    program while another's append commits.  Cut anywhere, every acked
    page reads its acked version or one written after it, and space is
    conserved."""
    for seed in range(40):
        rng = random.Random(seed)
        device, media, ftl, config = make_stack(chunks=24)
        sim = device.sim
        injector = FaultInjector(
            FaultPlan(seed=seed, torn_unit_prob=0.5)).attach(device)
        written = {}        # pid -> every version handed to an append
        acked = {}          # pid -> index of its newest acked version

        def writer(first_pid):
            for __ in range(rng.randint(3, 8)):
                batch = {first_pid + rng.randrange(6): bytes(
                    [rng.randrange(256)]) * rng.randint(1, 300 * KIB)
                    for __ in range(rng.randint(1, 4))}
                for pid, payload in batch.items():
                    written.setdefault(pid, []).append(payload)
                try:
                    yield from ftl.append_buffer_proc(sorted(batch.items()))
                except ReproError:
                    return
                if injector.tripped:
                    return
                acked.update((pid, len(written[pid]) - 1) for pid in batch)
                yield sim.timeout(rng.uniform(0, 0.01))

        writers = [sim.spawn(writer(100 * w)) for w in range(3)]
        cut_in(injector, rng.uniform(0.001, 0.08))
        sim.run_until(sim.all_of(writers))
        injector.power_cut()
        recovered, __r = recover_after_cut(injector, ftl)
        for pid, index in acked.items():
            assert recovered.read_page(pid) in written[pid][index:], seed
        assert list(space_problems(recovered)) == [], seed
