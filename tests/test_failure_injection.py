"""Failure injection: grown bad blocks, program failures, wear-out.

Bad-media management is the device's job (§2.2), but the FTL must react
to the asynchronous error reports: retire chunks, drop lost mappings,
and keep serving everything else.  A media failure is a
:class:`FaultPlan`'s, except wear-out: an erase past the cell's
endurance fails on its own.
"""

import pathlib
import re

import pytest

from repro.errors import FTLError, MediaError
from repro.faults import FaultInjector, FaultPlan
from repro.nand import FlashGeometry
from repro.ocssd import (
    ChunkState,
    CommandStatus,
    DeviceGeometry,
    OpenChannelSSD,
    Ppa,
)
from repro.ox import BlockConfig, MediaManager, OXBlock
from repro.ox.ftl.metadata import FtlChunkState
from tests.cuts import break_block

SS = 4096


def geometry(groups=2, pus=2, chunks=12, pages=6):
    return DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))


class TestDeviceFailures:
    def test_every_erase_fails_with_prob_one(self):
        device = OpenChannelSSD(geometry=geometry())
        FaultInjector(FaultPlan(erase_fail_prob=1.0)).attach(device)
        completion = device.reset(Ppa(0, 0, 0, 0))
        assert completion.status is CommandStatus.RESET_FAILED
        assert device.chunk_info(Ppa(0, 0, 0, 0)).state is ChunkState.OFFLINE
        notes = device.pop_notifications()
        assert [note.kind for note in notes] == ["reset-failed"]

    def test_worn_out_chunk_fails_erase(self):
        device = OpenChannelSSD(geometry=geometry())
        chip = device.chips[(0, 0)]
        chip.erase_counts[0] = chip.geometry.cell.endurance
        completion = device.reset(Ppa(0, 0, 0, 0))
        assert completion.status is CommandStatus.RESET_FAILED

    def test_async_program_failure_notification(self):
        """Write-back: the command succeeds, the failure arrives later."""
        device = OpenChannelSSD(geometry=geometry())
        ws = device.report_geometry().ws_min
        ppas = [Ppa(0, 0, 1, s) for s in range(ws)]
        # The block is broken, but the chunk looks writable: admission
        # succeeds, the background program fails.
        break_block(device, (0, 0, 1))
        completion = device.write(ppas, b"x" * 16)
        assert completion.ok
        device.sim.run()
        notes = device.pop_notifications()
        assert any(note.kind == "write-failed" for note in notes)
        assert device.chunk_info(ppas[0]).state is ChunkState.OFFLINE

    def test_a_write_through_program_the_cut_kills_fails(self):
        """A cut on a FUA write's last (here: only) unit used to leave the
        program loop as a success: an FTL then took a WAL commit the cut
        had lost for durable."""
        device = OpenChannelSSD(geometry=geometry())
        FaultInjector(FaultPlan(power_cut_at_op=1)).attach(device)
        ws = device.report_geometry().ws_min
        target = Ppa(0, 0, 1, 0)
        completion = device.write([target.with_sector(s) for s in range(ws)],
                                  bytes(ws * SS), fua=True)
        assert not completion.ok
        assert device.chunk_info(target).write_pointer == 0

    def test_wear_follows_resets(self):
        device = OpenChannelSSD(geometry=geometry())
        ws = device.report_geometry().ws_min
        target = Ppa(1, 1, 3, 0)
        for cycle in range(1, 4):
            assert device.write([target.with_sector(s) for s in range(ws)],
                                b"w" * 8).ok
            device.flush()
            assert device.reset(target).ok
            assert device.chunk_info(target).wear_index == cycle


class TestFtlBadBlockHandling:
    def make_ftl(self, erase_fail_prob=0.0, gc_enabled=False):
        device = OpenChannelSSD(geometry=geometry(chunks=16))
        if erase_fail_prob:
            # Keep the metadata region (group 0, where WAL and checkpoint
            # slots live) reliable, as a real deployment would by placing
            # metadata on an SLC-mode region: failures hit data chunks.
            FaultInjector(FaultPlan(seed=99, erase_fail_prob=erase_fail_prob,
                                    protect_groups=[0])).attach(device)
        media = MediaManager(device)
        config = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1,
                             gc_enabled=gc_enabled)
        return device, media, OXBlock.format(media, config)

    def test_retired_chunk_leaves_provisioner(self):
        device, media, ftl = self.make_ftl()
        ws = device.report_geometry().ws_min
        ftl.write(0, b"a" * SS * ws)     # full unit -> lands on a chunk
        linear = ftl.page_map.lookup(0)
        key = ftl.geometry.delinearize(linear).chunk_key()
        # Simulate an async program failure of that chunk: the controller
        # takes it offline, then notifies.
        device.chunks[key].retire()
        device._notify(Ppa(*key, 0), "write-failed", "injected")
        ftl.write(1000, b"b" * SS * ws)  # absorbs notifications
        info = ftl.chunk_table.get(key)
        assert info.state is FtlChunkState.BAD
        assert ftl.stats.chunks_retired == 1
        assert ftl.stats.sectors_lost >= 1
        # Lost sectors read as zeroes, not I/O errors.
        assert ftl.read(0, 1) == b"\x00" * SS
        # Unaffected data is still there.
        assert ftl.read(1000, 1) == b"b" * SS

    def test_a_read_error_keeps_the_data(self):
        """An uncorrectable read fails that read and nothing else: the
        chunk stays on the device, in the table and in use, and every
        acked sector reads back once the media reads again."""
        device, media, ftl = self.make_ftl()
        for lba in range(8):
            ftl.write(lba, bytes([lba + 1]) * SS)
        ftl.flush()
        key = ftl.geometry.delinearize(ftl.page_map.lookup(0)).chunk_key()
        assert device.chunk_info(Ppa(*key, 0)).state is ChunkState.OPEN
        injector = FaultInjector(FaultPlan(read_fail_prob=1.0)).attach(device)
        with pytest.raises(FTLError, match="media read error or racing"):
            ftl.read(0, 1)
        injector.detach()
        assert injector.stats.reads_failed >= 1
        assert device.notifications == []   # a read error logs no note
        ftl.write(100, b"z" * SS)
        assert ftl.stats.chunks_retired == 0 and ftl.lost_lbas == []
        assert ftl.chunk_table.get(key).state is FtlChunkState.OPEN
        for lba in range(8):
            assert ftl.read(lba, 1) == bytes([lba + 1]) * SS
        assert ftl.read(100, 1) == b"z" * SS

    def test_survives_sustained_grown_failures(self):
        """With a small grown-failure probability the FTL keeps running:
        GC erases data chunks, the failed ones retire, the rest of the
        workload completes and reads back."""
        device, media, ftl = self.make_ftl(erase_fail_prob=0.05,
                                           gc_enabled=True)
        ws = device.report_geometry().ws_min
        units = ftl.capacity_sectors // ws // 2     # half the data region
        for round_ in range(6):
            for lba in range(0, units * ws, ws):
                ftl.write(lba, bytes([round_ + 1]) * SS * ws)
            ftl.flush()
        device.sim.run()
        ftl.write(0, bytes([99]) * SS * ws)
        assert device.faults.stats.erases_failed >= 1
        assert ftl.stats.chunks_retired >= 1 and ftl.lost_lbas == []
        assert ftl.read(0, ws) == bytes([99]) * SS * ws
        for lba in range(ws, units * ws, ws):
            assert ftl.read(lba, ws) == bytes([6]) * SS * ws, lba


def test_one_fault_model_grep_pin():
    """A media failure is a fault plan's: no second failure model or spec
    mirror under ``src/repro``, and the device draws no random number of
    its own.  The one RNG under ``repro.nand`` / ``repro.ocssd`` is
    ``SampledNandTiming``'s seeded latency jitter, which fails nothing."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    paths = list(src.rglob("*.py"))
    assert len(paths) > 80
    banned = re.compile(r"WearModel|FaultSpec|wear_seed|grown_fail_prob")
    hits = [f"{path.relative_to(src)}:{number}: {line.strip()}"
            for path in paths
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if banned.search(line)]
    assert not hits, "\n".join(hits)
    rng = re.compile(r"^\s*(import random|from random import)", re.M)
    seeded = sorted(str(path.relative_to(src))
                    for package in ("nand", "ocssd")
                    for path in (src / package).rglob("*.py")
                    if rng.search(path.read_text(encoding="utf-8")))
    assert seeded == ["nand/timing.py"]
