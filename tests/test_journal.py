"""The seam the journal owns, for both FTLs that keep one: a power cut
anywhere around "write the slot, then truncate the ring" must load as
exactly one epoch — the new checkpoint and an empty log, never the new
checkpoint with the old log replayed on top of it."""

import pytest

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import BlockConfig, EleosConfig, MediaManager, OXBlock, OXEleos
from repro.ox.ftl.journal import Journal
from repro.ox.ftl.recovery import RecoveryReport
from repro.units import KIB

SS = 4096
#: No forced checkpoint on the way: the test takes its own.
RING = dict(wal_chunk_count=4, ckpt_chunks_per_slot=1,
            wal_pressure_threshold=0.9)


class BlockHost:
    cls = OXBlock
    config = BlockConfig(gc_enabled=False, **RING)

    @staticmethod
    def put(ftl, ident, payload):
        ftl.write(ident, payload)

    @staticmethod
    def get(ftl, ident):
        return ftl.read(ident, 1)

    @staticmethod
    def sync(ftl):
        ftl.flush()

    @staticmethod
    def checkpoint(ftl):
        ftl.sim.run_until(ftl.sim.spawn(ftl._checkpoint_locked_proc()))


class EleosHost:
    cls = OXEleos
    config = EleosConfig(buffer_bytes=64 * KIB, **RING)

    @staticmethod
    def put(ftl, ident, payload):
        ftl.append_buffer([(ident, payload)])

    @staticmethod
    def get(ftl, ident):
        return ftl.read_page(ident)

    @staticmethod
    def sync(ftl):      # an append is durable once the cache has drained
        ftl.sim.run_until(ftl.sim.spawn(ftl.media.flush_proc()))

    @staticmethod
    def checkpoint(ftl):
        ftl.checkpoint()


def payload(ident):
    return bytes([ident + 1]) * SS


@pytest.mark.parametrize("cut", ["slot written", "truncating",
                                 "first checkpoint"])
@pytest.mark.parametrize("host", [BlockHost, EleosHost],
                         ids=["oxblock", "eleos"])
def test_a_cut_around_the_checkpoint_loads_exactly_one_epoch(host, cut):
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
            ftl = host.cls.format(MediaManager(device), host.config)
        except ReproError:
            ftl = None
        logged = 1
    else:
        ftl = host.cls.format(MediaManager(device), host.config)
        wal = ftl.journal.wal
        ring_pus = [key[:2] for key in wal.chunks]
        assert ring_pus[0] == ring_pus[2]
        # Three dirty ring chunks, two of them behind the same PU.
        while wal.used_sectors <= 2 * geometry.sectors_per_chunk:
            shadow[len(shadow)] = payload(len(shadow))
            host.put(ftl, len(shadow) - 1, shadow[len(shadow) - 1])
        logged = ftl.journal.next_txn_id
        truncate_proc = wal.truncate_proc
        erase = device.chips[(0, 0)].timing.erase_time()

        def cutting_truncate_proc(new_epoch, parent=None):
            def cutter():
                # (b) One erase per PU done, the third under way: it
                # completes, and changes nothing.
                yield sim.timeout(1.5 * erase)
                injector.power_cut()
            if cut == "slot written":       # (a) nothing erased yet
                injector.power_cut()
            else:
                sim.spawn(cutter())
            return truncate_proc(new_epoch, parent)

        wal.truncate_proc = cutting_truncate_proc
        try:
            host.checkpoint(ftl)    # with the power off it raises, or not
        except ReproError:
            pass
        dirty = [device.chunks[key].write_pointer > 0
                 for key in wal.chunks[:3]]
        assert dirty == ([True] * 3 if cut == "slot written"
                         else [False, False, True])
    assert injector.tripped
    injector.power_cycle(ftl)

    journal = Journal(MediaManager(device), host.config.wal_chunk_count,
                      host.config.ckpt_chunks_per_slot)
    report = RecoveryReport()
    tables, records = sim.run_until(sim.spawn(journal.load_proc(report)))
    # Format's checkpoint was #1, the one the cut followed #2.
    assert report.checkpoint_seq == journal.wal.epoch == (0 if first else 2)
    assert bool(tables) == (not first)
    # Whatever is left in the ring belongs to epoch 1: none of it loads.
    assert records == [] and list(journal.fold(records)) == []
    assert (report.wal_sectors_read, report.records_decoded) == (0, 0)
    assert journal.next_txn_id == logged

    config = host.config
    for generation in range(2):     # ... and through a second crash
        ftl, report = host.cls.recover(MediaManager(device), config)
        assert report.txns_applied == generation    # one put, logged below
        assert ftl.journal.next_txn_id >= logged
        assert {ident: host.get(ftl, ident) for ident in shadow} == shadow
        ident = len(shadow)
        shadow[ident] = payload(ident)
        host.put(ftl, ident, shadow[ident])
        logged = ftl.journal.next_txn_id
        host.sync(ftl)
        ftl.crash()
