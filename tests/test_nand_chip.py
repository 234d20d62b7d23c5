"""Tests for the flash chip model: program/erase/read rules and wear."""

import pytest

from repro.errors import MediaError, WritePointerError
from repro.nand import (
    BlockState,
    CellType,
    FlashChip,
    FlashGeometry,
    WearModel,
)


def small_chip(**overrides) -> FlashChip:
    defaults = dict(blocks_per_plane=4, pages_per_block=6)
    defaults.update(overrides)
    return FlashChip(geometry=FlashGeometry(**defaults))


class TestProgram:
    def test_program_full_block(self):
        chip = small_chip()
        total = chip.sectors_per_block
        unit = chip.geometry.write_unit_sectors
        for __ in range(total // unit):
            chip.program(0, unit)
        assert chip.blocks[0].state is BlockState.FULL

    def test_program_must_be_write_unit_multiple(self):
        chip = small_chip()
        with pytest.raises(WritePointerError):
            chip.program(0, chip.geometry.write_unit_sectors - 1)

    def test_program_overflow_rejected(self):
        chip = small_chip()
        chip.program(0, chip.sectors_per_block)
        with pytest.raises(WritePointerError):
            chip.program(0, chip.geometry.write_unit_sectors)

    def test_program_time_counts_paired_pages(self):
        """One write unit = `paired_pages` sequential multi-plane programs."""
        chip = small_chip()
        elapsed = chip.program(0, chip.geometry.write_unit_sectors)
        paired = chip.geometry.cell.bits_per_cell
        assert elapsed == pytest.approx(chip.timing.program_latency * paired)

    def test_program_on_bad_block_rejected(self):
        chip = FlashChip(geometry=FlashGeometry(blocks_per_plane=4,
                                                pages_per_block=6),
                         factory_bad=[1])
        with pytest.raises(MediaError):
            chip.program(1, chip.geometry.write_unit_sectors)


class TestErase:
    def test_erase_resets_block(self):
        chip = small_chip()
        chip.program(0, chip.sectors_per_block)
        chip.erase(0)
        block = chip.blocks[0]
        assert block.state is BlockState.FREE
        assert block.sectors_programmed == 0
        assert block.erase_count == 1

    def test_erase_beyond_endurance_retires_block(self):
        geometry = FlashGeometry(blocks_per_plane=2, pages_per_block=6)
        wear = WearModel(cell=CellType.TLC, endurance=3)
        chip = FlashChip(geometry=geometry, wear=wear)
        for __ in range(3):
            chip.erase(0)
        with pytest.raises(MediaError):
            chip.erase(0)
        assert chip.blocks[0].state is BlockState.BAD
        assert chip.bad_blocks() == [0]

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

    def test_read_above_write_pointer_rejected(self):
        chip = small_chip()
        chip.program(0, chip.geometry.write_unit_sectors)
        with pytest.raises(WritePointerError):
            chip.read(0, 0, chip.geometry.write_unit_sectors + 1)

    def test_read_time_counts_page_groups(self):
        """A read within one multi-plane page group costs one sense; a read
        spanning groups costs one sense per group."""
        chip = small_chip()
        chip.program(0, chip.sectors_per_block)
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


class TestWearModel:
    def test_read_error_prob_grows_with_wear(self):
        wear = WearModel(cell=CellType.TLC, endurance=100)
        assert wear.read_error_prob(0) == 0.0
        assert wear.read_error_prob(50) < wear.read_error_prob(100)
        assert wear.read_error_prob(100) == pytest.approx(1e-3)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            WearModel(grown_fail_prob=1.5)
