"""Tests for the flash chip model: media time, stats and wear-out.  The
program and read rules are the chunk's (tests/test_ocssd_chunk.py); every
other media failure is a fault plan's (tests/test_failure_injection.py)."""

import pytest

from repro.errors import MediaError
from repro.faults import FaultInjector, FaultPlan
from repro.nand import CellType, FlashChip, FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD


def small_chip(**overrides) -> FlashChip:
    defaults = dict(blocks_per_plane=4, pages_per_block=6)
    defaults.update(overrides)
    return FlashChip(geometry=FlashGeometry(**defaults))


class TestProgram:
    def test_program_time_counts_paired_pages(self):
        """One write unit = `paired_pages` sequential multi-plane programs."""
        chip = small_chip()
        elapsed = chip.program(0, chip.geometry.write_unit_sectors)
        paired = chip.geometry.cell.bits_per_cell
        assert elapsed == pytest.approx(chip.timing.program_latency * paired)


class TestErase:
    def test_erase_resets_block(self):
        chip = small_chip()
        chip.program(0, chip.geometry.sectors_per_chunk)
        chip.erase(0)
        assert chip.erase_counts == [1, 0, 0, 0]

    @pytest.mark.parametrize("cell", list(CellType), ids=lambda c: c.name)
    def test_erase_beyond_endurance_retires_block(self, cell):
        """The chip's one built-in failure: the erase that reaches the
        cell's endurance succeeds, the next one fails and still counts."""
        chip = small_chip(cell=cell, blocks_per_plane=2,
                          pages_per_block=12)
        chip.erase_counts[0] = cell.endurance - 1
        chip.erase(0)
        last = cell.endurance + 1
        with pytest.raises(MediaError, match=f"failed erase at cycle {last}$"):
            chip.erase(0)
        assert chip.erase_counts == [last, 0]
        assert chip.stats.erases == 2

    def test_grown_bad_block_is_deterministic_per_seed(self):
        """Random erase failures come from a fault plan's one seeded RNG:
        the same seed fails the same blocks."""
        def failures(seed):
            device = OpenChannelSSD(geometry=DeviceGeometry(
                num_groups=1, pus_per_group=1,
                flash=FlashGeometry(blocks_per_plane=32, pages_per_block=6)))
            FaultInjector(FaultPlan(seed=seed, erase_fail_prob=0.2)).attach(
                device)
            chip, failed = device.chips[(0, 0)], []
            for block in range(32):
                try:
                    chip.erase(block)
                except MediaError:
                    failed.append(block)
            return failed

        assert failures(7) == failures(7)
        assert failures(7) != failures(8)


class TestRead:
    def test_read_below_write_pointer_allowed(self):
        chip = small_chip()
        chip.program(0, chip.geometry.write_unit_sectors)
        elapsed = chip.read(0, 0, 1)
        assert elapsed == pytest.approx(chip.timing.read_latency)

    def test_read_time_counts_page_groups(self):
        """A read within one multi-plane page group costs one sense; a read
        spanning groups costs one sense per group."""
        chip = small_chip()
        chip.program(0, chip.geometry.sectors_per_chunk)
        group = chip.geometry.read_unit_sectors
        assert chip.read(0, 0, group) == pytest.approx(
            chip.timing.read_latency)
        assert chip.read(0, 0, group + 1) == pytest.approx(
            chip.timing.read_latency * 2)
        # Unaligned single sector still costs one sense.
        assert chip.read(0, group - 1, 1) == pytest.approx(
            chip.timing.read_latency)

    def test_stats_accumulate(self):
        chip = small_chip()
        chip.program(0, chip.geometry.write_unit_sectors)
        chip.read(0, 0, 1)
        chip.erase(0)
        assert chip.stats.programs == chip.geometry.cell.bits_per_cell
        assert chip.stats.reads == 1
        assert chip.stats.erases == 1
        assert chip.stats.program_time > 0
        assert chip.stats.read_time > 0
        assert chip.stats.erase_time > 0

    def test_bad_block_index_rejected(self):
        chip = small_chip()
        with pytest.raises(MediaError):
            chip.erase(99)
        with pytest.raises(MediaError, match="out of range"):
            chip.program(4, chip.geometry.write_unit_sectors)
        with pytest.raises(MediaError, match="out of range"):
            chip.read(-1, 0, 1)
