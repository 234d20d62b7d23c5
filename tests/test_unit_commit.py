"""A whole-unit OX-Block write with nothing else buffered commits in its
own units' OOB stamps, ``(lba, txn, count)``, and recovery reads it
back from there (DESIGN §5 item 10).  Each test here pins one clause of
that recovery rule, or of the logging that keeps a unit commit lost, not
undone, once its chunk retires, on a one-PU device, where a chunk is two
write units and allocation fills one chunk after another."""

import pytest

from repro.errors import OutOfSpaceError, ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.checker import recover_after_cut
from repro.nand import FlashGeometry
from repro.ocssd import ChunkState, DeviceGeometry, OpenChannelSSD
from repro.ocssd.address import Ppa, PpaRun
from repro.ox import BlockConfig, MediaManager, OXBlock
from tests.cuts import break_block, cut_after

SS = 4096
CONFIG = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1,
                     gc_enabled=False)


def make_ftl():
    device = OpenChannelSSD(geometry=DeviceGeometry(
        num_groups=1, pus_per_group=1,
        flash=FlashGeometry(blocks_per_plane=16, pages_per_block=6)))
    ftl = OXBlock.format(MediaManager(device), CONFIG)
    assert device.geometry.sectors_per_chunk == 2 * device.geometry.ws_min
    return device, ftl


def payload(ftl, fill, units):
    return bytes([fill]) * (SS * ftl.geometry.ws_min * units)


def chunk_of(ftl, lba):
    return ftl.geometry.delinearize(ftl.page_map.lookup(lba)).chunk_key()


def run(ftl, gen):
    return ftl.sim.run_until(ftl.sim.spawn(gen))


def stamps(ftl, key, sectors):
    completion = run(ftl, ftl.media.read_proc(PpaRun(key, 0, sectors),
                                              meta_only=True))
    return completion.oob


def test_a_unit_commit_logs_nothing_and_stamps_its_sectors():
    device, ftl = make_ftl()
    ws = ftl.geometry.ws_min
    txn = ftl.write(0, payload(ftl, 1, 2))
    assert ftl.journal.wal.used_sectors == 0
    assert stamps(ftl, chunk_of(ftl, 0), 2 * ws) \
        == [(lba, txn, 2 * ws) for lba in range(2 * ws)]
    ftl.write(2 * ws, payload(ftl, 2, 1)[:SS])
    partial = ftl.write(2 * ws + 1, payload(ftl, 3, 1))
    assert ftl.journal.wal.used_sectors > 0      # a partial unit logs
    ftl.flush()
    oob = stamps(ftl, chunk_of(ftl, 2 * ws + 1), 2 * ws)
    assert oob[1] == (2 * ws + 1, partial, 0)


def test_the_second_unit_outlives_its_first_units_gc():
    """T's first unit ends one chunk, its second starts the next.  The
    first unit's lbas are overwritten and its chunk is reset; with no
    checkpoint since T, recovery finds half of T — and newer stamps, so
    T was acknowledged and its second unit still maps."""
    device, ftl = make_ftl()
    ws = ftl.geometry.ws_min
    ftl.write(100, payload(ftl, 1, 1))
    ftl.write(0, payload(ftl, 2, 2))                  # T
    first, second = chunk_of(ftl, 0), chunk_of(ftl, ws)
    assert first == chunk_of(ftl, 100) and second != first
    ftl.write(100, payload(ftl, 3, 1))
    ftl.write(0, payload(ftl, 4, 1))
    victim = ftl.chunk_table.get(first)
    assert victim.valid_count == 0
    assert run(ftl, ftl.gc._recycle_proc([victim])) == 1
    ftl.flush()                                       # carries the reset
    assert device.chunk_info(Ppa(*first, 0)).write_pointer == 0
    assert ftl.stats.checkpoints == 1                 # format's only
    ftl.crash()
    recovered, report = OXBlock.recover(MediaManager(device), CONFIG)
    assert recovered.read(ws, ws) == payload(ftl, 2, 1)
    assert recovered.read(0, ws) == payload(ftl, 4, 1)
    assert recovered.read(100, ws) == payload(ftl, 3, 1)
    assert (report.unit_txns_applied, report.unit_txns_torn) == (3, 0)


def test_a_unit_commit_in_a_chunk_retired_later_is_lost_not_undone():
    """T rewrites lba 0 into chunk A.  A later cached program into A fails
    and retires it, taking T's stamps along, and GC resets the chunk of
    lba 0's checkpointed copy.  The retirement was logged before that
    reset: recovery loses lba 0 instead of mapping it into the reset
    chunk."""
    device, ftl = make_ftl()
    ws = ftl.geometry.ws_min
    ftl.write(0, payload(ftl, 1, 1))
    ftl.write(100, payload(ftl, 2, 1))
    old = chunk_of(ftl, 0)
    run(ftl, ftl._checkpoint_locked_proc())
    ftl.write(0, payload(ftl, 3, 1))                  # T
    dead = chunk_of(ftl, 0)
    ftl.write(300, payload(ftl, 4, 1)[:SS])           # a partial unit in A
    break_block(device, dead)
    ftl.flush()                                       # its program fails
    assert device.chunk_info(Ppa(*dead, 0)).state is ChunkState.OFFLINE
    ftl.write(100, payload(ftl, 5, 1))
    victim = ftl.chunk_table.get(old)
    assert victim.valid_count == 0
    assert run(ftl, ftl.gc._recycle_proc([victim])) == 1
    ftl.flush()                                       # carries the reset
    assert device.chunk_info(Ppa(*old, 0)).write_pointer == 0
    ftl.crash()
    recovered, report = OXBlock.recover(MediaManager(device), CONFIG)
    assert {0, 300} <= set(report.lost_lbas)
    assert recovered.read(0, 1) == bytes(SS)
    assert recovered.read(100, ws) == payload(ftl, 5, 1)


def test_the_carry_logs_a_retirement_before_it_resets():
    """The same, with no host op between the retirement and the carry
    that resets the older copies: the carry logs the retirement first."""
    device, ftl = make_ftl()
    ws = ftl.geometry.ws_min
    ftl.write(0, payload(ftl, 1, 2))
    old = chunk_of(ftl, 0)
    run(ftl, ftl._checkpoint_locked_proc())
    ftl.write(0, payload(ftl, 2, 2))                  # both units in A
    dead = chunk_of(ftl, 0)
    device.chunks[dead].retire()
    device._notify(Ppa(*dead, 0), "write-failed", "injected")
    assert run(ftl, ftl.gc._recycle_proc([ftl.chunk_table.get(old)])) == 1
    ftl.flush()                                       # carries the reset
    assert device.chunk_info(Ppa(*old, 0)).write_pointer == 0
    ftl.crash()
    recovered, report = OXBlock.recover(MediaManager(device), CONFIG)
    assert set(range(2 * ws)) <= set(report.lost_lbas)
    assert recovered.read(0, 2 * ws) == bytes(2 * ws * SS)


def test_a_retirement_loses_only_the_live_sectors_of_its_chunk():
    """Chunk A holds lbas [0, ws) in its first unit and [h, h + ws) in
    its second; then [0, ws) moves to chunk B.  A retires: of its
    sectors, the reverse map names only [ws, h + ws) as still mapped
    there, once each and in lba order — what the map would say."""
    device, ftl = make_ftl()
    ws = ftl.geometry.ws_min
    h = ws // 2
    ftl.write(0, payload(ftl, 1, 1))
    ftl.write(h, payload(ftl, 2, 1))
    dead = chunk_of(ftl, 0)
    assert chunk_of(ftl, h + ws - 1) == dead
    ftl.write(0, payload(ftl, 3, 1))
    assert chunk_of(ftl, 0) != dead
    device.chunks[dead].retire()
    device._notify(Ppa(*dead, 0), "write-failed", "injected")
    ftl.flush()                                       # absorbs the note
    assert ftl.lost_lbas == list(range(ws, h + ws))
    assert ftl.read(0, ws) == payload(ftl, 3, 1)
    assert ftl.read(ws, h) == bytes(h * SS)
    ftl.crash()
    recovered, report = OXBlock.recover(MediaManager(device), CONFIG)
    assert report.lost_lbas == list(range(ws, h + ws))
    assert recovered.read(0, ws) == payload(ftl, 3, 1)


def torn_two_unit_write(device, ftl):
    """Write two units into one chunk, cutting power once the first is
    programmed: the second never is."""
    injector = FaultInjector(FaultPlan()).attach(device)
    ftl._write_unit_proc = cut_after(injector, ftl._write_unit_proc)
    try:
        ftl.write(0, payload(ftl, 5, 2))
    except ReproError:
        pass
    assert injector.tripped
    return recover_after_cut(injector, ftl)


def test_a_torn_two_unit_write_is_dropped_whole():
    device, ftl = make_ftl()
    ws = ftl.geometry.ws_min
    recovered, report = torn_two_unit_write(device, ftl)
    first = min(ftl.layout.data_chunk_keys())
    assert device.chunk_info(Ppa(*first, 0)).write_pointer == ws
    assert (report.unit_txns_applied, report.unit_txns_torn) == (0, 1)
    assert recovered.read(0, 2 * ws) == bytes(2 * ws * SS)


def test_a_dropped_unit_txn_never_reapplies_after_the_next_crash():
    """Recovery moves ``next_txn_id`` past the torn transaction's stamps:
    the next checkpoint covers them, so the writes after it (newer
    records, one beside the stale stamps) do not make them complete."""
    device, ftl = make_ftl()
    ws = ftl.geometry.ws_min
    recovered, __ = torn_two_unit_write(device, ftl)
    recovered.write(200, payload(ftl, 6, 1))
    recovered.write(300, payload(ftl, 7, 1))
    again, report = recover_after_cut(None, recovered)
    assert again.read(0, 2 * ws) == bytes(2 * ws * SS)
    assert again.read(200, ws) == payload(ftl, 6, 1)
    assert again.read(300, ws) == payload(ftl, 7, 1)
    assert (report.unit_txns_applied, report.unit_txns_torn) == (2, 0)


def test_an_aborted_unit_txn_writes_its_units_without_a_commit():
    device, ftl = make_ftl()
    ws = ftl.geometry.ws_min
    allocate = ftl.provisioner.allocate_run
    calls = []

    def run_dry_on_the_second_unit(stream, want):
        calls.append(want)
        if len(calls) == 2:
            raise OutOfSpaceError("accounting drift")
        return allocate(stream, want)

    ftl.provisioner.allocate_run = run_dry_on_the_second_unit
    txn = ftl.journal.next_txn_id
    with pytest.raises(OutOfSpaceError):
        ftl.write(0, payload(ftl, 8, 2))
    ftl.provisioner.allocate_run = allocate
    ftl.write(300, payload(ftl, 9, 1))                # a newer record
    ftl.flush()
    assert stamps(ftl, min(ftl.layout.data_chunk_keys()), ws) \
        == [(lba, txn, 0) for lba in range(ws)]
    recovered, report = recover_after_cut(None, ftl)
    assert recovered.read(0, ws) == bytes(ws * SS)
    assert recovered.read(300, ws) == payload(ftl, 9, 1)
    assert report.unit_txns_applied == 1
