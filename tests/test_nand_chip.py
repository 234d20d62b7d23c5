"""Tests for the flash chip model: media time, stats and wear.  The
program and read rules are the chunk's (tests/test_ocssd_chunk.py)."""

import pytest

from repro.errors import MediaError
from repro.nand import CellType, FlashChip, FlashGeometry, WearModel


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

    def test_erase_beyond_endurance_retires_block(self):
        geometry = FlashGeometry(blocks_per_plane=2, pages_per_block=6)
        wear = WearModel(cell=CellType.TLC, endurance=3)
        chip = FlashChip(geometry=geometry, wear=wear)
        for __ in range(3):
            chip.erase(0)
        with pytest.raises(MediaError, match="cycle 4"):
            chip.erase(0)
        assert chip.erase_counts == [4, 0]      # a failed attempt counts

    def test_grown_bad_block_is_deterministic_per_seed(self):
        def failures(seed):
            wear = WearModel(cell=CellType.TLC, grown_fail_prob=0.2,
                             seed=seed)
            chip = FlashChip(geometry=FlashGeometry(blocks_per_plane=8,
                                                    pages_per_block=6),
                             wear=wear)
            failed = []
            for block in range(8):
                try:
                    chip.erase(block)
                except MediaError:
                    failed.append(block)
            return failed

        assert failures(7) == failures(7)


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


class TestWearModel:
    def test_read_error_prob_grows_with_wear(self):
        wear = WearModel(cell=CellType.TLC, endurance=100)
        assert wear.read_error_prob(0) == 0.0
        assert wear.read_error_prob(50) < wear.read_error_prob(100)
        assert wear.read_error_prob(100) == pytest.approx(1e-3)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            WearModel(grown_fail_prob=1.5)
