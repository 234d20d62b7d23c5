"""The GC round (§4.3): as wide as the marked group, one commit.

Invariants after every round, locality of its device traffic, and power
cuts / ``kill -9`` at each step of its ordering: copies -> commit
buffered -> the WAL flush that carries it -> the device flush that makes
the copies durable -> resets.  The round-vs-reference equivalence lives
in ``tests/test_reclaim_accounting.py``.
"""

import random
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.checker import FTL_OPS, recover_after_cut
from repro.nand import FlashGeometry
from repro.ocssd import (
    ChunkReset, ChunkState, DeviceGeometry, OpenChannelSSD, Ppa, VectorCopy,
    VectorRead, VectorWrite)
from repro.ox import BlockConfig, MediaManager, OXBlock
from repro.ox.ftl.metadata import FtlChunkState
from repro.ox.media import census_problems
from tests.cuts import cut_after, cut_during

SS = 4096
CONFIG = dict(wal_chunk_count=8, ckpt_chunks_per_slot=1)


def run(media, gen):
    return media.sim.run_until(media.sim.spawn(gen))


def aged(seed=0, overwrites=150, fill=0.4, **config):
    """2 groups x 4 PUs, *fill* of the data region written, then random
    overwrites and trims; returns what every LBA must now read."""
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=4,
        flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6))
    media = MediaManager(OpenChannelSSD(geometry=geometry))
    ftl = OXBlock.format(media, BlockConfig(**{**CONFIG, **config}))
    rng = random.Random(seed)
    unit = geometry.ws_min
    span = int(ftl.capacity_sectors * fill) // unit * unit
    expected = {}

    def write(lba, sectors, fill):
        ftl.write(lba, bytes([fill]) * (SS * sectors))
        expected.update((lba + i, bytes([fill]) * SS)
                        for i in range(sectors))

    for lba in range(0, span, unit):
        write(lba, unit, lba % 251)
    for version in range(overwrites):
        lba = rng.randrange(span - 8)
        if rng.random() < 0.15:
            ftl.trim(lba)
            expected.pop(lba, None)
        else:
            write(lba, rng.randint(1, 8), version % 251)
    ftl.flush()
    return media, ftl, expected, write


def watch_rounds(ftl, after=lambda victims: None):
    """Record every round's ``(marked group, victim keys)``; *after* runs
    when a round is over."""
    rounds = []
    recycle = ftl.gc._recycle_proc

    def recycle_proc(victims):
        rounds.append((victims[0].key[0], [v.key for v in victims]))
        done = yield from recycle(victims)
        after(victims)
        return done

    ftl.gc._recycle_proc = recycle_proc
    return rounds


def assert_reads(ftl, expected):
    for lba, payload in expected.items():
        assert ftl.read(lba, 1) == payload, lba


# -- invariants ------------------------------------------------------------------

def test_invariants_hold_after_every_round():
    """Daemon-driven rounds under an overwrite storm: every victim in the
    marked group, no two on one PU, valid counts and the map agree, no
    physical sector mapped twice, GC space never overdrawn."""
    media, ftl, expected, write = aged(
        overwrites=0, gc_low_watermark=14,
        gc_high_watermark=20)
    gc, table = ftl.gc, ftl.chunk_table

    def invariants(victims):
        group = victims[0].key[0]
        assert gc.marked_group == group
        assert all(victim.key[0] == group for victim in victims)
        assert len({victim.key[1] for victim in victims}) == len(victims)
        mapped = list(ftl.page_map.items())
        assert sum(info.valid_count for info in table.values()) \
            == len(mapped)
        assert len({linear for __, linear in mapped}) == len(mapped)
        assert ftl.provisioner.units_available("gc", group) >= 0

    rounds = watch_rounds(ftl, invariants)
    rng = random.Random(7)
    span = max(expected) - 8
    for version in range(400):
        write(rng.randrange(span), rng.randint(1, 8), version % 251)
    ftl.flush()
    assert len(rounds) > 10
    assert max(len(keys) for __, keys in rounds) == 4     # the group's width
    assert gc.stats.chunks_recycled == sum(len(keys) for __, keys in rounds)
    assert_reads(ftl, expected)


def test_round_never_overshoots_the_high_watermark():
    media, ftl, expected, write = aged(gc_enabled=False)
    rounds = watch_rounds(ftl)
    free = ftl.provisioner.free_chunks()
    assert run(media, ftl.gc.collect_until_locked_proc(free + 2)) >= 2
    assert [len(keys) for __, keys in rounds][0] == 2
    assert all(len(keys) <= 2 for __, keys in rounds)
    assert run(media, ftl.gc.collect_group_locked_proc(1, max_victims=3)) == 3


def test_a_failed_victim_erase_retires_that_victim_alone():
    """The carry erases its victims through the pool: a victim whose
    erase fails is offline on the device, BAD in the table and out of the
    pool before the next round, and the others are free and blank."""
    media, ftl, expected, __ = aged(gc_enabled=False)
    assert run(media, ftl.gc._round_proc(1, 4)) == 4
    victims = list(ftl.gc.pending)
    bad = victims[0]
    FaultInjector(FaultPlan(grown_bad=[[*bad, 1]])).attach(media.device)
    ftl.flush()                 # carries the round: the erases
    stats = ftl.gc.stats
    assert (stats.resets, stats.reset_failures, stats.chunks_recycled) \
        == (4, 1, 3)
    assert ftl.stats.chunks_retired == 1 and ftl.lost_lbas == []
    assert media.chunk_info(Ppa(*bad, 0)).state is ChunkState.OFFLINE
    assert ftl.chunk_table.get(bad).state is FtlChunkState.BAD
    free = [key for queue in ftl.provisioner.pool.free.values()
            for key in queue]
    assert bad not in free and set(victims[1:]) <= set(free)
    assert ftl.gc.victims(1) and bad not in [
        info.key for info in ftl.gc.victims(1)]
    assert list(FTL_OPS["oxblock"].structure(ftl)) == []
    assert_reads(ftl, expected)


def test_a_round_whose_copy_fails_moves_no_mapping():
    """A source read fails the round's vector copy: the round raises
    before its commit, so the map and the valid counts are as they were,
    no victim is pending, and every LBA reads back once the media reads
    again."""
    media, ftl, expected, __ = aged(gc_enabled=False)
    mapped = sorted(ftl.page_map.items())
    valid = {key: info.valid_count for key, info in ftl.chunk_table.items()}
    candidates = [info.key for info in ftl.gc.victims(1)]
    injector = FaultInjector(FaultPlan(read_fail_prob=1.0)).attach(
        media.device)
    with pytest.raises(ReproError, match="GC relocation copy"):
        run(media, ftl.gc._round_proc(1, 4))
    injector.detach()
    assert sorted(ftl.page_map.items()) == mapped
    assert {key: info.valid_count
            for key, info in ftl.chunk_table.items()} == valid
    assert not ftl.gc.pending
    # The victims stay candidates (a GC chunk the dead copies filled
    # joins them).
    assert set(candidates) <= {info.key for info in ftl.gc.victims(1)}
    assert_reads(ftl, expected)


def test_the_checker_sees_a_retirement_the_device_never_made():
    """A BAD chunk-table row whose chunk the device holds usable: the
    census counts it in use, the checker's structure check names it."""
    media, ftl, __, __ = aged(gc_enabled=False)
    provisioner = ftl.provisioner
    key = provisioner.pool.take((1, 0))
    provisioner.retire_chunk(key)
    assert list(census_problems(media, provisioner.pool.keys,
                                provisioner.census())) == []
    assert list(FTL_OPS["oxblock"].structure(ftl)) == [
        f"bad chunk {key} is not offline on the device"]


# -- locality --------------------------------------------------------------------

def test_round_traffic_stays_in_the_marked_group():
    """While rounds are in flight, and while the WAL flush that carries
    their commit resets their victims, every device command addresses
    the marked group — or the FTL's own metadata chunks in group 0 (the
    WAL commit, a pressure checkpoint).  No round reads: the reverse map
    names each victim sector's owner, the copy moves what is live."""
    media, ftl, expected, __ = aged(gc_enabled=False)
    device = media.device
    metadata = ftl.layout.metadata_chunk_keys()
    seen = []
    submit = device.submit

    def spy(command, parent=None):
        if isinstance(command, ChunkReset):
            keys = {command.ppa.chunk_key()}
        elif isinstance(command, VectorCopy):
            keys = {run_.key for run_ in [*command.src, *command.dst]}
        else:
            assert isinstance(command, (VectorRead, VectorWrite))
            ppas = command.ppas
            keys = {run_.key for run_ in
                    (ppas if isinstance(ppas, list) else [ppas])}
        seen.append((type(command).__name__, keys))
        return submit(command, parent)

    device.submit = spy
    ftl.gc.marked_group = 1
    rounds = watch_rounds(ftl)

    def rounds_then_carry():
        recycled = yield from ftl.gc.collect_group_locked_proc(1)
        yield from ftl.gc.carry_proc()
        return recycled

    assert run(media, rounds_then_carry()) > 4
    assert max(len(keys) for __, keys in rounds) == 4
    kinds = {kind for kind, __ in seen}
    assert {"VectorCopy", "ChunkReset", "VectorWrite"} <= kinds
    assert "VectorRead" not in kinds
    for kind, keys in seen:
        assert all(key[0] == 1 or key in metadata for key in keys), \
            (kind, keys)
    assert any(key in metadata for __, keys in seen for key in keys)
    assert_reads(ftl, expected)


# -- power cuts at each step of the ordering ---------------------------------------

def cut_round(step):
    """One four-wide round over group 1, then the carry — the WAL flush
    that carries its commit, the device flush that makes its copies
    durable, the resets (what the next write's flush does) — with power
    cut at *step*; returns the recovered FTL, what the scenario knew
    before the cut, and the moved LBAs whose copies the cut lost."""
    media, ftl, expected, __ = aged(gc_enabled=False)
    injector = FaultInjector(FaultPlan())
    injector.attach(media.device)
    gc, wal = ftl.gc, ftl.journal.wal
    rounds = watch_rounds(ftl)

    def round_then_carry():
        yield from gc._round_proc(1, 4)
        if step == "buffered":      # the commit waits for a carrier
            assert gc.pending and wal.sectors_needed(0)
            injector.power_cut()
        yield from ftl.gc.carry_proc()

    if step == "copied":        # copies issued, no commit yet
        media.copy_proc = cut_after(injector, media.copy_proc)
    elif step == "commit first":    # commit durable, copies in the cache
        wal.flush_proc = cut_after(injector, wal.flush_proc)
    elif step == "committed":   # commit and copies durable, nothing reset
        media.flush_proc = cut_after(injector, media.flush_proc)
    elif step == "resetting":   # 1 ms into the 3.5 ms erases
        media.reset_proc = cut_during(injector, media.reset_proc, 1e-3)
    old_map = dict(ftl.page_map.items())
    try:
        run(media, round_then_carry())
    except ReproError:
        pass
    assert injector.tripped and len(rounds[0][1]) == 4
    victims = rounds[0][1]
    moved = {lba for lba, linear in old_map.items()
             if media.geometry.delinearize(linear).chunk_key() in victims}
    assert moved
    new_map = dict(ftl.page_map.items())
    # The plan tears nothing: the cut set every write pointer back to the
    # flushed pointer it found.
    lost = set()
    for lba in moved:
        copy = media.geometry.delinearize(new_map[lba])
        if copy.sector >= media.chunk_info(copy).write_pointer:
            lost.add(lba)
    assert FTL_OPS["oxblock"].cached(ftl) == (step == "commit first")
    recovered, report = recover_after_cut(injector, ftl)
    return (recovered, expected, victims, moved, old_map, new_map, report,
            lost)


def assert_victims_intact(ftl, victims):
    for key in victims:
        assert ftl.media.chunk_info(Ppa(*key, 0)).write_pointer \
            == ftl.geometry.sectors_per_chunk


def test_cut_between_copy_and_commit_keeps_every_old_mapping():
    """The copy is done, its commit not even buffered yet."""
    ftl, expected, victims, moved, old_map, __, report, __ = \
        cut_round("copied")
    assert dict(ftl.page_map.items()) == old_map
    assert not report.txns_dropped
    assert_victims_intact(ftl, victims)      # nothing was reset
    assert_reads(ftl, expected)


def test_cut_with_the_commit_buffered_maps_back_into_the_victims():
    """The round is over — copies issued, victims out of the candidate
    pool — but no WAL flush has carried its commit: every relocated LBA
    maps back into its victim, which is intact."""
    ftl, expected, victims, moved, old_map, new_map, report, __ = \
        cut_round("buffered")
    recovered = dict(ftl.page_map.items())
    assert recovered == old_map != new_map and not report.txns_dropped
    assert all(ftl.geometry.delinearize(recovered[lba]).chunk_key()
               in victims for lba in moved)
    assert_victims_intact(ftl, victims)
    assert_reads(ftl, expected)


def test_cut_with_the_commit_durable_and_copies_cached_drops_the_txn():
    """The carrying WAL flush put the commit on media before the copies
    it names: recovery drops it whole — never a mixture of old and new
    mappings — and every relocated LBA maps back into its victim, intact
    because no reset was issued."""
    ftl, expected, victims, moved, old_map, new_map, report, __ = \
        cut_round("commit first")
    assert report.txns_dropped >= 1
    recovered = dict(ftl.page_map.items())
    assert recovered == old_map != new_map
    assert all(ftl.geometry.delinearize(recovered[lba]).chunk_key()
               in victims for lba in moved)
    assert_victims_intact(ftl, victims)
    assert_reads(ftl, expected)


def test_the_carrying_wal_flush_lands_before_the_copies():
    """The window the carry opens is real: at the cut after its WAL
    flush, copies the commit names still sit above their chunks' flushed
    pointers (and the checker's hook counts the cut); after its device
    flush, none does."""
    assert cut_round("commit first")[-1]
    assert not cut_round("committed")[-1]


def test_cut_between_commit_and_resets_keeps_every_new_mapping():
    """The commit carried and the copies flushed, nothing reset."""
    ftl, expected, victims, moved, old_map, new_map, report, __ = \
        cut_round("committed")
    recovered = dict(ftl.page_map.items())
    assert recovered == new_map and not report.txns_dropped
    assert all(recovered[lba] != old_map[lba] for lba in moved)
    assert_victims_intact(ftl, victims)
    assert_reads(ftl, expected)


def test_cut_mid_reset_recovers_every_payload():
    ftl, expected, victims, moved, old_map, new_map, __, __ = \
        cut_round("resetting")
    assert dict(ftl.page_map.items()) == new_map
    assert_reads(ftl, expected)
    # The victims the cut caught mid-erase are usable again.
    assert run(ftl.media, ftl.gc.collect_group_locked_proc(1)) > 0
    assert_reads(ftl, expected)


def test_crash_with_a_round_in_flight_leaves_no_child_behind():
    """``kill -9`` while the daemon's round has its copy in the device:
    the round's children die with the daemon, and nothing of the old
    instance issues a command to the recovered device."""
    media, ftl, expected, __ = aged()     # aged with the daemon asleep
    config = ftl.config
    ftl.config = replace(config, gc_low_watermark=64, gc_high_watermark=64)
    sim = media.sim
    children = []
    spawn = sim.spawn
    sim.spawn = lambda generator, name="": (
        children.append(spawn(generator, name)), children[-1])[1]
    rounds = watch_rounds(ftl)
    ftl._poke_gc()
    while not (len(rounds) == 1
               and any(child.name == "copy-read" and child.is_alive
                       for child in children)):
        sim.step()
    sim.step()
    assert len(rounds[0][1]) == 4
    ftl.crash()
    sim.spawn = spawn
    sim.run()
    assert all(not child.is_alive for child in children
               if child.name.startswith("gc-"))
    assert len(rounds) == 1 and ftl.gc.stats.resets == 0

    stale = []
    for name in ("read_proc", "write_proc", "copy_proc", "reset_proc",
                 "flush_proc"):
        setattr(media, name, lambda *args, _n=name, **kw: stale.append(_n))
    recovered, __ = OXBlock.recover(MediaManager(media.device), config)
    recovered.flush()
    sim.run()
    assert stale == []
    assert_reads(recovered, expected)


def test_crash_with_carried_resets_in_flight_leaves_the_write_quiet():
    """``kill -9`` while a write resets the victims its WAL flush carried:
    the reset in the device completes ``POWER_FAIL``, the ones not yet
    issued never are, none frees a chunk, the write raises instead of
    acking or checkpointing, and nothing of the old instance issues a
    command to the recovered device."""
    media, ftl, expected, write = aged(gc_enabled=False)
    run(media, ftl.gc._round_proc(1, 4))
    assert len(ftl.gc.pending) == 4
    sim = media.sim
    children = []
    spawn = sim.spawn
    sim.spawn = lambda generator, name="": (
        children.append(spawn(generator, name)), children[-1])[1]
    lba = max(expected)
    failures = []

    def writing():
        try:
            yield from ftl.write_proc(lba, bytes([9]) * SS)
        except ReproError as failure:
            failures.append(failure)

    spawn(writing())
    while not any(child.name == "oxblock-erase" and child.is_alive
                  for child in children):
        sim.step()
    sim.step()
    before = (ftl.stats.checkpoints, ftl.stats.writes)
    ftl.crash()
    sim.spawn = spawn
    sim.run()
    assert all(not child.is_alive for child in children)
    assert len(failures) == 1
    assert ftl.gc.stats.resets == ftl.gc.stats.chunks_recycled == 0
    assert (ftl.stats.checkpoints, ftl.stats.writes) == before

    stale = []
    for name in ("read_proc", "write_proc", "copy_proc", "reset_proc",
                 "flush_proc"):
        setattr(media, name, lambda *args, _n=name, **kw: stale.append(_n))
    recovered, __ = OXBlock.recover(MediaManager(media.device), ftl.config)
    recovered.flush()
    sim.run()
    assert stale == []
    # The write was never acked: either payload may come back.
    assert recovered.read(lba, 1) in (expected.pop(lba), bytes([9]) * SS)
    assert_reads(recovered, expected)
