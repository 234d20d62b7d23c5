"""An OX-ELEOS append commits in its runs' OOB stamps, ``(rows, id,
sectors, horizon)``, and recovery reads them back from there with the
scan it shares with OX-Block (DESIGN §5 item 10).  Each test here pins
one clause of that recovery rule — atomicity, the overlap horizon, the
checkpoint's scan floor, reused and stale units, the id counter and the
scan's reach — on a device of four PUs, where one-unit appends take one
PU after another."""

import pytest

from repro.errors import FTLError, ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.checker import FTL_OPS, recover_after_cut
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import EleosConfig, MediaManager, OXEleos
from repro.units import KIB, MIB
from tests.cuts import break_block

CONFIG = EleosConfig(buffer_bytes=1 * MIB, ckpt_chunks_per_slot=2)
UNIT = 96 * KIB     # a write unit of 24 sectors; a chunk holds 4

space_problems = FTL_OPS["eleos"].structure


def make_ftl():
    device = OpenChannelSSD(geometry=DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=16, pages_per_block=12)))
    ftl = OXEleos.format(MediaManager(device), CONFIG)
    assert device.geometry.sectors_per_chunk * 4096 == 4 * UNIT
    return device, ftl


def delay_runs(ftl, delay, segment_id, pu):
    """Issue the runs of append *segment_id* on *pu* *delay* seconds late."""
    media, sim = ftl.media, ftl.sim
    write_proc = media.write_proc

    def delayed(ppas, data, oob=None, **kwargs):
        if oob and oob[0][1] == segment_id and ppas.key[:2] == pu:
            yield sim.timeout(delay)
        return (yield from write_proc(ppas, data, oob=oob, **kwargs))
    media.write_proc = delayed


def cut_at_checkpoint(injector, ftl):
    """Cut power the moment *ftl* starts its next checkpoint."""
    checkpoint_proc = ftl._do_checkpoint_proc

    def cut_first(*args, **kwargs):
        injector.power_cut()
        return (yield from checkpoint_proc(*args, **kwargs))
    ftl._do_checkpoint_proc = cut_first


def fail_next_run_in(device, ftl, segment_id):
    """Retire the chunk of *segment_id*'s one run by failing the next run
    that lands in it; returns the pages appended on the way."""
    dead, = ftl.segment_chunks(segment_id)
    break_block(device, dead)
    appended = []
    for pid in range(50, 60):
        try:
            ftl.append_buffer([(pid, b"beside %d" % pid)])
        except ReproError:
            return appended
        appended.append(pid)
    raise AssertionError("no run landed in the chunk")


def test_a_torn_append_is_dropped_whole():
    """Two runs on two PUs; the second is issued a second late and the cut
    comes first.  Recovery finds half the append's sectors: nothing of it
    maps (mutant: an append complete once any run is found)."""
    device, ftl = make_ftl()
    ftl.append_buffer([(1, b"old one"), (2, b"old two")])
    injector = FaultInjector(FaultPlan()).attach(device)
    second = ftl._pus[(ftl._cursor + 1) % len(ftl._pus)]
    delay_runs(ftl, 1.0, ftl.journal.next_txn_id, second)
    sim = device.sim
    sim.spawn(ftl.append_buffer_proc([(1, b"n" * UNIT), (2, b"m" * 100)]))
    sim.run_until(sim.timeout(0.5))
    injector.power_cut()
    recovered, report = recover_after_cut(injector, ftl)
    assert (report.unit_txns_applied, report.unit_txns_torn) == (1, 1)
    assert recovered.read_page(1) == b"old one"
    assert recovered.read_page(2) == b"old two"
    assert list(space_problems(recovered)) == []


def test_a_newer_appends_stamps_do_not_prove_an_older_one():
    """Three writers issue their runs before the dispatch lock.  The
    oldest append's second run is late; the two newer ones land whole and
    wait for the lock behind it.  Cut then: their stamps carry a horizon
    older than the oldest append, which stays out whole (mutant: OX-Block's
    "any newer record proves the ack"), while theirs apply."""
    device, ftl = make_ftl()
    sim = device.sim
    ftl.append_buffer([(1, b"old one"), (2, b"old two")])
    injector = FaultInjector(FaultPlan()).attach(device)
    oldest = ftl.journal.next_txn_id
    second = ftl._pus[(ftl._cursor + 1) % len(ftl._pus)]
    delay_runs(ftl, 1.0, oldest, second)
    for batch in ([(1, b"n" * UNIT), (2, b"m" * 100)],
                  [(3, b"three")], [(4, b"four")]):
        sim.spawn(ftl.append_buffer_proc(batch))
    sim.run_until(sim.timeout(0.5))
    assert not {3, 4} & set(ftl.vmap)           # all three wait
    injector.power_cut()
    recovered, report = recover_after_cut(injector, ftl)
    assert (report.unit_txns_applied, report.unit_txns_torn) == (3, 1)
    assert recovered.read_page(1) == b"old one"
    assert recovered.read_page(2) == b"old two"
    assert recovered.read_page(3) == b"three"
    assert recovered.read_page(4) == b"four"
    assert list(space_problems(recovered)) == []


def test_an_abort_whose_checkpoint_failed_is_never_proven():
    """An append's second run fails, and so does the program of the
    abort's checkpoint: the append raised, but its first run is on media
    and the last checkpoint's floor is below it.  Two later appends ack
    and a cut follows.  Their stamps' horizon stays below the aborted id,
    so the aborted append stays out whole (mutant: the horizon as the
    newest id acked)."""
    device, ftl = make_ftl()
    injector = FaultInjector(FaultPlan()).attach(device)
    ftl.append_buffer([(1, b"old one"), (2, b"old two")])
    aborted = ftl.journal.next_txn_id
    second = ftl._pus[(ftl._cursor + 1) % len(ftl._pus)]
    dead = ftl.open_chunks().get(second) or ftl.pool.free[second][0]
    break_block(device, dead)
    slots = ftl.journal.checkpointer
    write_payload_proc = slots.write_payload_proc

    def fails_once(*args, **kwargs):
        slots.write_payload_proc = write_payload_proc
        yield device.sim.timeout(1e-4)
        raise FTLError("checkpoint slot program failed")
    slots.write_payload_proc = fails_once
    with pytest.raises(ReproError):
        ftl.append_buffer([(1, b"n" * UNIT), (2, b"m" * 100)])
    assert slots.write_payload_proc is write_payload_proc
    ftl.append_buffer([(3, b"three")])
    ftl.append_buffer([(4, b"four")])
    injector.power_cut()
    recovered, report = recover_after_cut(injector, ftl)
    assert report.unit_txns_torn == 1 and aborted not in recovered.segments
    assert recovered.read_page(1) == b"old one"
    assert recovered.read_page(2) == b"old two"
    assert recovered.read_page(4) == b"four"


def test_an_append_in_flight_across_a_checkpoint_survives_its_ack():
    """The append takes its id while a checkpoint holds the lock: the
    snapshot lacks it, so the checkpoint's scan floor is its id, and a
    cut after its ack finds it (mutant: ``next_txn_id`` as the floor)."""
    device, ftl = make_ftl()
    sim = device.sim
    ftl.append_buffer([(1, b"old one")])
    checkpoints = ftl.stats.checkpoints
    sim.spawn(ftl._checkpoint_locked_proc())
    append = sim.spawn(ftl.append_buffer_proc([(1, b"new one"),
                                               (2, b"two")]))
    sim.run_until(append)
    assert ftl.stats.checkpoints == checkpoints + 1
    ftl.crash()
    recovered, report = OXEleos.recover(MediaManager(device), CONFIG)
    assert report.unit_txns_applied == 1
    assert recovered.read_page(1) == b"new one"
    assert recovered.read_page(2) == b"two"


def test_a_freed_segments_chunk_rewritten_after_the_checkpoint():
    """A segment freed after the checkpoint, its chunk erased and written
    again by newer appends, then the cut: the checkpoint still names the
    segment and maps its page there, but the page's move is newer, the
    segment is dropped, and space is conserved."""
    device, ftl = make_ftl()
    size = 4 * UNIT - 4096                      # a whole chunk
    old = ftl.append_buffer([(1, b"1" * size)])
    reused, = ftl.segment_chunks(old)
    ftl.checkpoint()
    ftl.append_buffer([(1, b"moved one")])
    ftl.free_segment(old)
    assert ftl.stats.checkpoints == 2 and reused in ftl.pool.erasing
    device.sim.run_until(ftl.pool.erasing[reused])
    queue = ftl.pool.free[reused[:2]]
    queue.remove(reused)
    queue.appendleft(reused)                    # the PU's next chunk
    pid = 10
    while reused not in ftl.open_chunks().values():
        ftl.append_buffer([(pid, bytes([pid]) * 100)])
        pid += 1
    ftl.crash()
    recovered, report = OXEleos.recover(MediaManager(device), CONFIG)
    assert old not in recovered.segments and report.lost_lbas == []
    assert recovered.read_page(1) == b"moved one"
    for page in range(10, pid):
        assert recovered.read_page(page) == bytes([page]) * 100
    assert list(space_problems(recovered)) == []


def test_a_checkpointed_mapping_into_a_reused_unit_is_lost_not_read():
    """Page 1 is checkpointed in S; an acked append moves it into a shared
    chunk, S is freed and its chunk written again.  A later run in the
    shared chunk fails and retires it, and the cut comes before the
    abort's checkpoint: the move's stamps are gone.  The checkpointed
    mapping points into a unit newer stamps own, so page 1 is reported
    lost and never read from there (mutant: no stale-unit rule)."""
    device, ftl = make_ftl()
    injector = FaultInjector(FaultPlan()).attach(device)
    # Page 1 in the chunk's first unit, below any later write pointer;
    # page 9 fills the rest.
    old = ftl.append_buffer([(1, b"1" * 100)])
    reused, = ftl.segment_chunks(old)
    for pid in (2, 3, 4):                       # the other three PUs
        ftl.append_buffer([(pid, b"x")])
    rest = ftl.append_buffer([(9, b"9" * (3 * UNIT - 4096))])
    assert ftl.segment_chunks(rest) == [reused]
    ftl.checkpoint()
    moved = ftl.append_buffer([(1, b"moved one"), (9, b"moved nine")])
    ftl.free_segment(old)
    ftl.free_segment(rest)
    assert ftl.stats.checkpoints == 2
    device.sim.run_until(ftl.pool.erasing[reused])
    queue = ftl.pool.free[reused[:2]]
    queue.remove(reused)
    queue.appendleft(reused)
    pid = 10
    while reused not in ftl.open_chunks().values():
        ftl.append_buffer([(pid, bytes([pid]) * 100)])
        pid += 1
    cut_at_checkpoint(injector, ftl)
    fail_next_run_in(device, ftl, moved)
    assert injector.tripped
    recovered, report = recover_after_cut(injector, ftl)
    assert {1, 9} <= set(report.lost_lbas)
    assert not {1, 9} & set(recovered.vmap)
    assert list(space_problems(recovered)) == []


@pytest.mark.xfail(strict=True, reason="the retirement window: a cut "
                   "between a run failure that retires a shared chunk and "
                   "the abort's checkpoint loses the stamps of the acked "
                   "appends in it (ROADMAP item 4)")
def test_a_cut_before_the_aborts_checkpoint_keeps_the_acked_page_beside():
    """Page 1 is checkpointed at v1; v2 is acked into a chunk that a later
    run's failure retires, and the cut lands before the abort's
    checkpoint.  v2's only record was its stamps: recovery serves v1."""
    device, ftl = make_ftl()
    injector = FaultInjector(FaultPlan()).attach(device)
    ftl.append_buffer([(1, b"v1")])
    ftl.checkpoint()
    acked = ftl.append_buffer([(1, b"v2")])
    cut_at_checkpoint(injector, ftl)
    beside = fail_next_run_in(device, ftl, acked)
    recovered, report = recover_after_cut(injector, ftl)
    assert all(recovered.read_page(pid) == b"beside %d" % pid
               for pid in beside)
    assert 1 in report.lost_lbas or recovered.read_page(1) == b"v2"


def test_the_next_id_moves_past_the_highest_stamp():
    """A torn append is dropped, but its stamps stay in a shared chunk:
    the next append after recovery takes a newer id, so a second crash
    cannot count the old stamps as its (mutant: the counter left at the
    checkpoint's floor)."""
    device, ftl = make_ftl()
    sim = device.sim
    ftl.append_buffer([(1, b"old one")])
    injector = FaultInjector(FaultPlan()).attach(device)
    torn = ftl.journal.next_txn_id
    second = ftl._pus[(ftl._cursor + 1) % len(ftl._pus)]
    delay_runs(ftl, 1.0, torn, second)
    sim.spawn(ftl.append_buffer_proc([(2, b"n" * UNIT), (3, b"m" * 100)]))
    sim.run_until(sim.timeout(0.5))
    injector.power_cut()
    recovered, report = recover_after_cut(injector, ftl)
    assert report.unit_txns_torn == 1
    assert recovered.journal.next_txn_id > torn
    assert recovered.append_buffer([(3, b"after")]) > torn
    again, report = recover_after_cut(None, recovered)
    assert again.live_page_ids() == [1, 3]
    assert again.read_page(3) == b"after"
    assert report.unit_txns_torn == 0


def test_recovery_reads_wide_only_the_chunks_with_new_stamps():
    """Every written chunk costs a one-sector probe of its newest stamp;
    only the chunks holding a stamp at or above the checkpoint's floor
    are read whole (mutant: every written chunk read whole)."""
    device, ftl = make_ftl()
    for pid in range(6):                        # six chunks, four PUs
        ftl.append_buffer([(pid, bytes([pid]) * (2 * UNIT))])
    ftl.checkpoint()
    ftl.append_buffer([(6, b"six")])
    ftl.append_buffer([(7, b"seven" * 10000)])
    new = {key for seg in (7, 8) for key in ftl.segment_chunks(seg)}
    written = {key for seg in ftl.segments
               for key in ftl.segment_chunks(seg)}
    assert new < written
    ftl.crash()
    media = MediaManager(device)
    reads = []
    read_proc = media.read_proc

    def counted(ppas, *args, meta_only=False, **kwargs):
        if meta_only:
            reads.append((ppas.key, ppas.count))
        return read_proc(ppas, *args, meta_only=meta_only, **kwargs)
    media.read_proc = counted
    recovered, report = OXEleos.recover(media, CONFIG)
    assert report.unit_txns_applied == 2
    wide = {key for key, count in reads if count > 1}
    assert wide == new
    assert sorted(key for key, count in reads if count == 1) \
        == sorted(written)
    assert recovered.read_page(7) == b"seven" * 10000
