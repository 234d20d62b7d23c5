"""The seam the journal owns, for both FTLs that keep one: a power cut
anywhere around "write the slot, then truncate the ring" must load as
exactly one epoch — the new checkpoint and an empty log, never the new
checkpoint with the old log replayed on top of it.  OX-ELEOS keeps no
ring (it commits in its runs' stamps): a cut right after its slot loads
the new checkpoint, a cut inside the slot write the one before, and its
recovery scan brings back every write the loaded one lacks."""

import pytest

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.checker import FTL_OPS
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import BlockConfig, EleosConfig, MediaManager, OXBlock, OXEleos
from repro.ox.ftl.journal import Journal
from repro.ox.ftl.recovery import RecoveryReport
from repro.units import KIB
from tests.cuts import checkpoint, cut_after, cut_during

SS = 4096
#: No forced checkpoint on the way: the test takes its own.
FTLS = {"oxblock": (OXBlock, BlockConfig(
            gc_enabled=False, wal_chunk_count=4, ckpt_chunks_per_slot=1,
            wal_pressure_threshold=0.9)),
        "eleos": (OXEleos, EleosConfig(buffer_bytes=64 * KIB,
                                       ckpt_chunks_per_slot=1))}


def payload(ident):
    return bytes([ident + 1]) * SS


@pytest.mark.parametrize("cut", ["slot written", "truncating",
                                 "first checkpoint"])
@pytest.mark.parametrize("name", FTLS)
def test_a_cut_around_the_checkpoint_loads_exactly_one_epoch(name, cut):
    (cls, config), ops = FTLS[name], FTL_OPS[name]
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=16, pages_per_block=6))
    device = OpenChannelSSD(geometry=geometry)
    sim = device.sim
    first = cut == "first checkpoint"
    # (c) The cut lands on the first program of format's checkpoint #1.
    injector = FaultInjector(FaultPlan(
        power_cut_at_time=1e-9 if first else None))
    injector.attach(device)
    shadow = {}
    if first:
        try:    # a write the cut catches in flight completes, or raises
            ftl = cls.format(MediaManager(device), config)
        except ReproError:
            ftl = None
        logged = 1
    else:
        ftl = cls.format(MediaManager(device), config)
        while name == "oxblock" and ftl.journal.wal.used_sectors \
                <= 2 * geometry.sectors_per_chunk or len(shadow) < 3:
            shadow[len(shadow)] = payload(len(shadow))
            ops.write(ftl, len(shadow) - 1, shadow[len(shadow) - 1])
        logged = ftl.journal.next_txn_id
        if name == "oxblock":
            wal = ftl.journal.wal
            ring_pus = [key[:2] for key in wal.chunks]
            assert ring_pus[0] == ring_pus[2]
            # Three dirty ring chunks, two of them behind the same PU.
            # (a) Nothing erased yet; (b) one erase per PU done, the third
            # under way: it completes, and changes nothing.
            erase = device.chips[(0, 0)].timing.erase_time()
            wal.truncate_proc = cut_during(
                injector, wal.truncate_proc,
                0.0 if cut == "slot written" else 1.5 * erase)
        else:   # (a) after the slot; (b) inside its program
            slots = ftl.journal.checkpointer
            slots.write_payload_proc = (
                cut_after(injector, slots.write_payload_proc)
                if cut == "slot written" else
                cut_during(injector, slots.write_payload_proc, 1e-6))
        try:
            checkpoint(ftl)     # with the power off it raises, or not
        except ReproError:
            pass
        if name == "oxblock":
            dirty = [device.chunks[key].write_pointer > 0
                     for key in wal.chunks[:3]]
            assert dirty == ([True] * 3 if cut == "slot written"
                             else [False, False, True])
    assert injector.tripped
    injector.power_cycle(ftl)

    # Format's checkpoint was #1, the one the cut followed #2.
    torn = name == "eleos" and cut == "truncating"
    loaded = 0 if first else 1 if torn else 2
    journal = Journal(MediaManager(device),
                      config.wal_chunk_count if name == "oxblock" else None,
                      config.ckpt_chunks_per_slot)
    if name == "oxblock":
        report = RecoveryReport()
        tables, records = sim.run_until(sim.spawn(journal.load_proc(report)))
        assert report.checkpoint_seq == journal.wal.epoch == loaded
        assert bool(tables) == (not first)
        # Whatever is left in the ring belongs to epoch 1: none of it loads.
        assert records == [] and list(journal.fold(records)) == []
        assert (report.wal_sectors_read, report.records_decoded) == (0, 0)
        assert journal.next_txn_id == logged
    else:   # the header carries the scan floor
        seq, floor, tables = sim.run_until(sim.spawn(
            journal.checkpointer.read_latest_proc())) or (0, 1, {})
        assert (seq, floor) == (loaded, logged if loaded == 2 else 1)
        assert bool(tables) == (loaded == 2)

    for generation in range(2):     # ... and through a second crash
        ftl, report = cls.recover(MediaManager(device), config)
        # One write, logged (OX-Block) or stamped (OX-ELEOS) below; the
        # scan past a torn slot also finds the three before it.
        assert report.txns_applied + report.unit_txns_applied \
            == (generation or 3 * torn)
        assert ftl.journal.next_txn_id >= logged
        assert {ident: ops.read(ftl, ident) for ident in shadow} == shadow
        ident = len(shadow)
        shadow[ident] = payload(ident)
        ops.write(ftl, ident, shadow[ident])
        logged = ftl.journal.next_txn_id
        ops.flush(ftl)
        ftl.crash()
