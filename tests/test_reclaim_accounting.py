"""Oracles for incremental reclaim accounting.

OX-ELEOS keeps per-segment liveness in step with its page map and the
OX-Block collector decides liveness by linear-address arithmetic.  The
O(table) definitions those replaced live on here as brute-force
references: a vmap scan for "pages in segment", a per-page recount for
the live ratio, and the ``delinearize``-per-sector victim scan.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule)

from repro.errors import FTLError, OutOfSpaceError
from repro.llama import LlamaConfig, LlamaEngine
from repro.llama.pages import DeltaPage
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD, Ppa
from repro.ox import BlockConfig, EleosConfig, MediaManager, OXBlock, OXEleos
from repro.ox.ftl.serial import NO_PPA, REC_MAP_UPDATE
from repro.ox.ftl.writebuffer import PAD_LBA
from repro.ox.media import census_problems
from repro.units import KIB

SS = 4096


# -- references (the definitions the counters replaced) ------------------------

def segment_of_by_scan(ftl, page_id):
    entry = ftl.vmap.get(page_id)
    if entry is None:
        return None
    unit = entry.first_sector // ftl.geometry.ws_min
    for segment_id, units in ftl.segments.items():
        if unit in units:
            return segment_id
    return None


def pages_in_segment_by_scan(ftl, segment_id):
    units = set(ftl.segments[segment_id])
    return {page_id for page_id, entry in ftl.vmap.items()
            if entry.first_sector // ftl.geometry.ws_min in units}


def live_ratio_by_recount(ftl, segment_id, written_pids):
    """LLAMA's former bookkeeping: of the pages the segment was written
    with, the share whose current location is still that segment."""
    if not written_pids:
        return 0.0
    live = sum(1 for pid in written_pids
               if segment_of_by_scan(ftl, pid) == segment_id)
    return live / len(written_pids)


def stamp_lba(entry):
    """The lba of an OOB entry: a plain value, or a stamp's first field."""
    return entry[0] if type(entry) is tuple else entry


def find_live_sectors_by_delinearize(gc, key, oob):
    live, unsafe = [], 0
    for sector, entry in enumerate(oob):
        lba = stamp_lba(entry)
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


def owners_by_oob(oob):
    """The reverse map an OOB list implies: its lba, -1 for a pad."""
    return [lba if lba not in (NO_PPA, PAD_LBA) else -1
            for lba in map(stamp_lba, oob)]


# -- OX-ELEOS / LLAMA ----------------------------------------------------------------

# Chunks are 96 KB here, so a buffer can make a five-chunk segment; all
# 24 pages at their largest still fit one buffer, so the cleaner's
# relocation batch always does.
ELEOS_CONFIG = EleosConfig(buffer_bytes=512 * KIB, ckpt_chunks_per_slot=2)


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
        self.written = {}   # segment -> pids it was written with
        self._new_engine()

    def _new_engine(self):
        self.engine = LlamaEngine(
            self.ftl, LlamaConfig(clean_live_ratio=0.6, cache_capacity=8))

    def _note_new_segments(self):
        for segment_id in self.ftl.segments:
            if segment_id not in self.written:
                self.written[segment_id] = pages_in_segment_by_scan(
                    self.ftl, segment_id)

    @rule(pages=st.lists(st.tuples(PIDS, SIZES), min_size=1, max_size=24))
    def append_buffer(self, pages):
        # Behind the engine's back, but in its page format, so the engine
        # can still read what it finds.  A page id named twice is refused.
        buffer = [(pid, DeltaPage(pid, bytes([pid + 1]) * size).serialize())
                  for pid, size in pages]
        if len({pid for pid, __ in pages}) < len(pages):
            with pytest.raises(FTLError, match="named twice"):
                self.ftl.append_buffer(buffer)
            return
        self.ftl.append_buffer(buffer)
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
        self.engine.clean_once()
        self._note_new_segments()

    @precondition(lambda self: self.ftl.segments)
    @rule(choice=st.integers(0, 1 << 16))
    def free_segment(self, choice):
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
    def unit_index_matches_the_segments(self):
        ftl = self.ftl
        assert ftl._unit_segment == {
            unit: segment_id
            for segment_id, units in ftl.segments.items() for unit in units}
        assert set(ftl._live) == set(ftl._written) == set(ftl.segments)
        held = {}
        for units in ftl.segments.values():
            for unit in units:
                key = ftl.geometry.delinearize(
                    unit * ftl.geometry.ws_min).chunk_key()
                held[key] = held.get(key, 0) + 1
        assert ftl.pool.held == held
        assert not list(census_problems(ftl.media, ftl.pool.keys,
                                        ftl.census()))


TestEleosLiveness = EleosLiveness.TestCase
TestEleosLiveness.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None)


# -- OX-Block GC victim scan -----------------------------------------------------------

def run(media, gen):
    return media.sim.run_until(media.sim.spawn(gen))


def small_block():
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6))
    media = MediaManager(OpenChannelSSD(geometry=geometry))
    return media, OXBlock.format(media, BlockConfig(
        wal_chunk_count=2, ckpt_chunks_per_slot=1, gc_enabled=False))


def oob_of(media, key, first, count):
    completion = run(media, media.read_proc(
        [Ppa(*key, s) for s in range(first, first + count)], meta_only=True))
    assert completion.ok
    return completion.oob


@pytest.mark.parametrize("seed", range(6))
def test_gc_victim_scan_matches_the_delinearize_reference(seed):
    """Dead, live, trimmed, relocation-pad and unflushed-superseder sectors
    in one device: the linear-address scan must classify every written
    chunk exactly as the per-sector ``delinearize`` scan did."""
    media, ftl = small_block()
    geometry = media.geometry
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
    assert run(media, ftl.gc._recycle_proc([victim]))
    ftl.flush()                               # carries it: the reset
    for __ in range(12):                      # superseders left volatile
        ftl.write(rng.randrange(span), bytes([7]) * SS)

    seen = {"live": 0, "unsafe": 0, "pad": 0, "trimmed": 0}
    for descriptor in media.scan_chunks():
        key = descriptor.ppa.chunk_key()
        written = descriptor.write_pointer
        if key not in ftl.chunk_table or not written:
            continue
        oob = oob_of(media, key, 0, written)
        expected = find_live_sectors_by_delinearize(ftl.gc, key, oob)
        assert ftl.gc._find_live_sectors(key, written) == expected
        base = ftl.chunk_table.get(key).linear * geometry.sectors_per_chunk
        assert list(ftl.page_map.owners(base, written)) == owners_by_oob(oob)
        seen["live"] += len(expected[0])
        seen["unsafe"] += expected[1]
        lbas = [stamp_lba(entry) for entry in oob]
        seen["pad"] += sum(1 for lba in lbas if lba == NO_PPA)
        seen["trimmed"] += sum(
            1 for lba in lbas if isinstance(lba, int) and lba != NO_PPA
            and ftl.page_map.lookup(lba) is None)
    assert all(seen.values()), seen


def test_gc_copy_overwritten_during_the_copy_is_owned_as_its_oob_names():
    """A copy whose lba a write superseded while the copy ran is never
    mapped, yet its OOB names that lba: so must the reverse map."""
    media, ftl = small_block()
    geometry, sim = media.geometry, media.sim
    span = 2 * geometry.sectors_per_chunk
    for lba in range(0, span, geometry.ws_min):
        ftl.write(lba, bytes([1]) * SS * geometry.ws_min)
    for lba in range(0, span, 3):
        ftl.write(lba, bytes([2]) * SS)
    ftl.flush()
    victim = next(info for info in ftl.gc.victims(0) if info.valid_count)
    live, __ = ftl.gc._find_live_sectors(
        victim.key, media.chunk_info(Ppa(*victim.key, 0)).write_pointer)
    raced = [lba for __, lba in live[::2]]
    copy_proc = media.copy_proc
    copies = []

    def racing_copy_proc(src, dst, **kwargs):
        copies.extend(dst)
        completion = yield from copy_proc(src, dst, **kwargs)
        for lba in raced:
            yield sim.spawn(ftl.write_proc(lba, bytes([3]) * SS))
        return completion

    media.copy_proc = racing_copy_proc
    assert run(media, ftl.gc._recycle_proc([victim]))
    per_chunk = geometry.sectors_per_chunk
    owned = {}
    for dst in copies:
        base = ftl.chunk_table.get(dst.key).linear * per_chunk + dst.first
        owners = list(ftl.page_map.owners(base, dst.count))
        assert owners == owners_by_oob(
            oob_of(media, dst.key, dst.first, dst.count))
        owned.update((lba, base + at) for at, lba in enumerate(owners))
    assert raced and all(ftl.page_map.lookup(lba) != owned[lba]
                         for lba in raced)


def test_reset_chunk_reused_with_a_pad_carries_no_stale_owner():
    """A chunk GC reset and the write path took again: its pads have no
    owner, whatever lbas its previous life held there."""
    media, ftl = small_block()
    geometry = media.geometry
    per_chunk = geometry.sectors_per_chunk
    for lba in range(0, per_chunk, geometry.ws_min):
        ftl.write(lba, bytes([1]) * SS * geometry.ws_min)
    ftl.flush()
    key = geometry.delinearize(ftl.page_map.lookup(0)).chunk_key()
    for lba in range(0, per_chunk, geometry.ws_min):    # all of it dead
        ftl.write(lba, bytes([2]) * SS * geometry.ws_min)
    ftl.flush()
    assert run(media, ftl.gc._recycle_proc([ftl.chunk_table.get(key)]))
    ftl.flush()                                 # carries it: the reset
    assert ftl.gc.stats.chunks_recycled == 1
    lba = per_chunk
    while not media.chunk_info(Ppa(*key, 0)).write_pointer:
        ftl.write(lba, bytes([3]) * SS)         # one sector, then pads
        ftl.flush()
        lba += 1
    written = media.chunk_info(Ppa(*key, 0)).write_pointer
    oob = oob_of(media, key, 0, written)
    assert PAD_LBA in oob
    base = ftl.chunk_table.get(key).linear * per_chunk
    assert list(ftl.page_map.owners(base, written)) == owners_by_oob(oob)


@pytest.mark.parametrize("seed", range(3))
def test_victim_scan_after_recovery_is_the_oob_scan_or_safer(seed):
    """Crash, recover, then overwrites left volatile: the reverse map the
    recovered map rebuilt finds every victim's live set exactly as its
    OOB does, and never counts more unsafe sectors."""
    media, ftl = small_block()
    geometry = media.geometry
    rng = random.Random(seed)
    span = 3 * geometry.sectors_per_chunk
    for lba in range(0, span, geometry.ws_min):
        ftl.write(lba, bytes([lba % 251]) * SS * geometry.ws_min)
    ftl.flush()
    for __ in range(40):
        ftl.write(rng.randrange(span), bytes([5]) * SS)
    ftl.crash()
    ftl, __ = OXBlock.recover(MediaManager(media.device), ftl.config)
    media = ftl.media
    for __ in range(40):                        # superseders left volatile
        ftl.write(rng.randrange(span), bytes([7]) * SS)
    unsafe = {"oob": 0, "reverse map": 0}
    for descriptor in media.scan_chunks():
        key = descriptor.ppa.chunk_key()
        written = descriptor.write_pointer
        if key not in ftl.chunk_table or not written:
            continue
        live, by_oob = find_live_sectors_by_delinearize(
            ftl.gc, key, oob_of(media, key, 0, written))
        got_live, got = ftl.gc._find_live_sectors(key, written)
        assert got_live == live and got <= by_oob
        unsafe["oob"] += by_oob
        unsafe["reverse map"] += got
    assert unsafe["oob"] and unsafe["reverse map"], unsafe


# -- OX-Block GC relocation commit ---------------------------------------------------

def relocate_round_of_one_proc(gc, key, live):
    """The collector's relocation, for a round of this one victim."""
    aborted = yield from gc._relocate_round_proc([(key, live)])
    return key not in aborted


def relocate_per_sector_proc(gc, key, live, parent=None):
    """The collector's relocation of one victim as it was before
    addresses travelled as runs and victims as rounds: one ``Ppa`` per
    source and destination sector, one ``add_valid`` and one
    ``invalidate`` per moved sector, one transaction per victim.  Kept
    as the definition the round must equal; only its barrier follows the
    collector's (device flush, then the commit buffered, after the
    re-validation)."""
    ws_min = gc.geometry.ws_min
    per_chunk = gc.geometry.sectors_per_chunk
    table = gc.chunk_table
    base = table.get(key).linear * per_chunk
    sectors = [sector for sector, __ in live]
    lbas = [lba for __, lba in live]
    pad = (-len(live)) % ws_min
    sectors += sectors[-1:] * pad
    lbas += [NO_PPA] * pad
    src = [Ppa(*key, sector) for sector in sectors]
    dst = []
    units = []
    try:
        for __ in range(0, len(src), ws_min):
            unit_key, first = gc.provisioner.allocate_unit(
                "gc", group=key[0])
            units.append((unit_key,
                          table.get(unit_key).linear * per_chunk + first))
            dst.extend(Ppa(*unit_key, first + i) for i in range(ws_min))
    except OutOfSpaceError:
        if dst:
            completion = yield from gc.media.write_proc(
                dst, b"", oob=[NO_PPA] * len(dst),
                parent=parent)
            gc.media.require_ok(completion, "GC relocation abort pad")
        gc.stats.skips_no_space += 1
        return False
    completion = yield from gc.media.copy_proc(src, dst, dst_oob=lbas,
                                               parent=parent)
    gc.media.require_ok(completion, "GC relocation copy")

    txn = gc.journal.take_txn_id()
    entries = []
    lookup = gc.page_map.lookup
    for index, (sector, lba) in enumerate(zip(sectors, lbas)):
        if lba == NO_PPA:
            continue
        old_linear = base + sector
        if lookup(lba) != old_linear:
            continue
        unit_key, unit_base = units[index // ws_min]
        new_linear = unit_base + index % ws_min
        gc.page_map.update(lba, new_linear)
        table.add_valid(unit_key)
        table.invalidate(key)
        entries.append((lba, new_linear, old_linear))
    gc.stats.sectors_relocated += len(entries)
    yield from gc.media.flush_proc()
    if entries:
        gc.journal.log_txn(REC_MAP_UPDATE, txn, entries)
    return True


def relocated_twin(seed, relocate_proc, units_left=None):
    """One aged OX-Block, then the three fullest victims of group 0
    (scattered live runs, two units each) relocated through
    *relocate_proc* while host overwrites of a third of their live LBAs
    land between the copy and the commit; with *units_left*, GC space
    runs dry after that many units.  Returns everything the relocation
    touches."""
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6))
    media = MediaManager(OpenChannelSSD(geometry=geometry))
    ftl = OXBlock.format(media, BlockConfig(
        wal_chunk_count=2, ckpt_chunks_per_slot=1, gc_enabled=False))
    gc, sim = ftl.gc, media.sim
    rng = random.Random(seed)
    unit = geometry.ws_min
    span = 4 * geometry.sectors_per_chunk
    for lba in range(0, span, unit):
        ftl.write(lba, bytes([lba % 251]) * (SS * unit))
    for __ in range(60):                  # scattered overwrites and trims
        lba = rng.randrange(span)
        if rng.random() < 0.2:
            ftl.trim(lba, rng.randint(1, 3))
        else:
            ftl.write(lba, bytes([rng.randrange(251)]) * SS)
    ftl.flush()

    logged = []
    log_txn = ftl.journal.log_txn
    ftl.journal.log_txn = lambda rtype, txn, entries: (
        logged.append((txn, list(entries))), log_txn(rtype, txn, entries))
    copy_proc = media.copy_proc
    raced = []

    def racing_copy_proc(*args, **kwargs):
        # Overwrites that land between GC's copy and its re-validation
        # make the copies of those LBAs garbage.
        completion = yield from copy_proc(*args, **kwargs)
        pending, raced[:] = list(raced), []
        for lba in pending:
            yield sim.spawn(ftl.write_proc(lba, bytes([9]) * SS))
        return completion

    media.copy_proc = racing_copy_proc
    if units_left is not None:
        allocate_unit = gc.provisioner.allocate_unit
        budget = [units_left]

        def starved_allocate_unit(stream, group=None):
            if stream == "gc":
                budget[0] -= 1
                if budget[0] < 0:
                    raise OutOfSpaceError("no GC space left")
            return allocate_unit(stream, group=group)

        gc.provisioner.allocate_unit = starved_allocate_unit
    outcomes = []
    for victim in sorted(gc.victims(0),
                         key=lambda info: -info.valid_count)[:3]:
        key = victim.key
        live, __ = gc._find_live_sectors(
            key, media.chunk_info(Ppa(*key, 0)).write_pointer)
        if not live:
            continue
        raced[:] = [lba for __, lba in live[::3]]
        outcomes.append((key, len(live),
                         run(media, relocate_proc(gc, key, live))))
    table = ftl.chunk_table
    return {
        "outcomes": outcomes,
        "map": list(ftl.page_map.items()),
        "chunks": [(info.key, info.state, info.valid_count, info.write_next)
                   for info in table.values()],
        "wal": logged,
        "wal_sectors": ftl.journal.wal.sectors_written,
        "relocated": gc.stats.sectors_relocated,
        "skips": gc.stats.skips_no_space,
        "victims": [[info.key for info in gc.victims(group)]
                    for group in range(geometry.num_groups)],
        "sim": (sim.now, sim.events_processed),
        "device": [(chunk.state, chunk.write_pointer, chunk.flushed_pointer,
                    chunk.read_oob(0, chunk.write_pointer)
                    if chunk.write_pointer else [])
                   for chunk in media.device.chunks.values()],
    }


@pytest.mark.parametrize("seed", range(3))
def test_gc_relocation_commit_matches_the_per_sector_reference(seed):
    """Source runs, one destination run per unit and the per-unit commit
    (``add_valid(key, n)``) leave the map, every chunk's
    ``valid_count``, the WAL entries, the device and the sim clock
    exactly where one ``Ppa``, one ``add_valid`` and one ``invalidate``
    per sector did — so the collector orders the next victims the
    same."""
    by_run = relocated_twin(seed, relocate_round_of_one_proc)
    by_sector = relocated_twin(seed, relocate_per_sector_proc)
    assert by_run == by_sector
    assert any(outcome for *__, outcome in by_run["outcomes"])
    # The race mattered: fewer sectors committed than were copied.
    assert 0 < by_run["relocated"] < sum(
        live for __, live, outcome in by_run["outcomes"] if outcome)


def test_gc_relocation_abort_pads_the_same_units():
    """GC space running dry mid-relocation: the units already taken are
    padded out as dead sectors by one write of destination runs, as the
    per-sector vector was, and the victim is skipped."""
    by_run = relocated_twin(0, relocate_round_of_one_proc, units_left=1)
    by_sector = relocated_twin(0, relocate_per_sector_proc, units_left=1)
    assert by_run == by_sector
    assert [outcome for *__, outcome in by_run["outcomes"]].count(False) \
        and by_run["skips"]


# -- OX-Block GC round vs. the per-sector reference, victim by victim -----------------

def aged_block(history):
    """An OX-Block (2 groups x 4 PUs, GC off) filled over two chunks per
    PU of group 0 and then put through *history* — ``(lba, sectors)``
    overwrites, ``sectors == 0`` a trim — with the payloads it must now
    return."""
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=4,
        flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6))
    media = MediaManager(OpenChannelSSD(geometry=geometry))
    ftl = OXBlock.format(media, BlockConfig(
        wal_chunk_count=8, ckpt_chunks_per_slot=1, gc_enabled=False))
    unit = geometry.ws_min
    span = 16 * geometry.sectors_per_chunk
    expected = {}
    for lba in range(0, span, unit):
        ftl.write(lba, bytes([lba % 251]) * (SS * unit))
        expected.update((lba + i, bytes([lba % 251]) * SS)
                        for i in range(unit))
    for version, (lba, sectors) in enumerate(history, 1):
        sectors = min(sectors, span - lba)
        if not sectors:
            ftl.trim(lba)
            expected.pop(lba, None)
            continue
        fill = bytes([(lba + version) % 251]) * SS
        ftl.write(lba, fill * sectors)
        expected.update((lba + i, fill) for i in range(sectors))
    ftl.flush()
    return media, ftl, expected


def round_state(media, ftl, expected):
    table, provisioner = ftl.chunk_table, ftl.provisioner
    assert {lba: ftl.read(lba, 1) for lba in expected} == expected
    assert sorted(lba for lba, __ in ftl.page_map.items()) \
        == sorted(expected)
    return {
        "map": list(ftl.page_map.items()),
        "valid": [(info.key, info.state, info.valid_count)
                  for info in table.values()],
        "free": sorted(key for queue in provisioner.pool.free.values()
                       for key in queue),
        "recycled": ftl.gc.stats.chunks_recycled,
        "relocated": ftl.gc.stats.sectors_relocated,
    }


@settings(max_examples=25, deadline=None)
@given(width=st.integers(1, 4),
       history=st.lists(st.tuples(st.integers(0, 16 * 48 - 1),
                                  st.integers(0, 30)),
                        min_size=5, max_size=60))
def test_gc_round_matches_sequential_per_sector_runs(width, history):
    """One round of *width* victims — one commit, one flush, everything
    else side by side — leaves the map, every chunk's valid count, the
    free pool and every readable payload exactly where the per-sector
    reference, run over the same victims one after another, leaves them.
    (The WAL bytes differ: one transaction, not *width*.)"""
    media, ftl, expected = aged_block(history)
    chosen = []
    recycle = ftl.gc._recycle_proc
    ftl.gc._recycle_proc = lambda victims: (
        chosen.extend(victim.key for victim in victims), recycle(victims))[1]
    done = run(media, ftl.gc._round_proc(0, width))
    ftl.flush()                 # carries the round's commit: the resets
    assert done == len(chosen) <= width
    assert len({key[:2] for key in chosen}) == len(chosen)   # one per PU
    assert all(key[0] == 0 for key in chosen)
    by_round = round_state(media, ftl, expected)

    media, ftl, expected = aged_block(history)
    gc = ftl.gc
    for key in chosen:
        live, unsafe = gc._find_live_sectors(
            key, media.chunk_info(Ppa(*key, 0)).write_pointer)
        assert not unsafe
        if live:
            assert run(media, relocate_per_sector_proc(gc, key, live))
        assert ftl.chunk_table.get(key).valid_count == 0
        assert run(media, ftl.provisioner.pool.reclaim_proc([key])) == {}
        ftl.provisioner.release_chunk(key)
        gc.stats.chunks_recycled += 1
    assert round_state(media, ftl, expected) == by_round
