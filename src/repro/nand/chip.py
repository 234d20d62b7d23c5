"""A flash chip: the physical home of one OCSSD parallel unit.

Operations on a chip are sequential (§2.1) — the *device controller* models
that with one resource per chip; this class models state, wear and media
time.  A :class:`FlashBlock` here is a *block set*: one erase block on every
plane of the chip.  Plane pairing (pages at the same address on different
planes are programmed/read together) and paired pages (SLC=1 … QLC=4) are
folded into the write-unit accounting, which is exactly the "chunk
management is under the responsibility of the Open-Channel SSD" contract of
§2.2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import MediaError, WritePointerError
from repro.nand.errors import WearModel
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming, timing_for
from repro.sidecar import FAULTS_SLOT, OBS_SLOT, init_sidecar_slots


class BlockState(enum.Enum):
    FREE = "free"            # erased, nothing programmed
    OPEN = "open"            # partially programmed
    FULL = "full"            # every page programmed
    BAD = "bad"              # retired (factory or grown bad block)


# Bound once: block-state checks run on every program/read/erase.
_B_FREE = BlockState.FREE
_B_OPEN = BlockState.OPEN
_B_FULL = BlockState.FULL
_B_BAD = BlockState.BAD


@dataclass
class FlashBlock:
    """State of one block set (one erase block per plane)."""

    index: int
    state: BlockState = BlockState.FREE
    sectors_programmed: int = 0
    erase_count: int = 0


@dataclass
class ChipStats:
    reads: int = 0
    programs: int = 0
    erases: int = 0
    read_time: float = 0.0
    program_time: float = 0.0
    erase_time: float = 0.0


class FlashChip:
    """One NAND die with its geometry, timing and wear state."""

    def __init__(self, geometry: Optional[FlashGeometry] = None,
                 timing: Optional[NandTiming] = None,
                 wear: Optional[WearModel] = None,
                 factory_bad: Optional[list[int]] = None):
        self.geometry = geometry or FlashGeometry()
        self.timing = timing or timing_for(self.geometry.cell)
        self.wear = wear or WearModel(cell=self.geometry.cell)
        self.blocks = [FlashBlock(index=i)
                       for i in range(self.geometry.blocks_per_plane)]
        self.stats = ChipStats()
        # Hot-path dimensions: resolved once here instead of through a
        # property/enum chain on every program and read.
        self._write_unit = self.geometry.write_unit_sectors
        self._block_sectors = self.geometry.sectors_per_chunk
        self._group_sectors = self.geometry.read_unit_sectors
        self._paired_pages = self.geometry.cell.bits_per_cell
        # Sidecars (repro.sidecar): None in normal operation, so the hot
        # paths pay one attribute load + identity check per op.  The chip
        # records the nand.*.media_s histograms; the controller records
        # the spans (it knows the parent command).
        init_sidecar_slots(self, FAULTS_SLOT, OBS_SLOT)
        self.fault_key = (0, 0)   # (group, pu) — set on faults attach
        for index in factory_bad or []:
            self.blocks[index].state = BlockState.BAD

    # -- helpers -------------------------------------------------------------

    def _block(self, index: int) -> FlashBlock:
        if not 0 <= index < len(self.blocks):
            raise MediaError(
                f"block index {index} out of range "
                f"(chip has {len(self.blocks)} block sets)")
        return self.blocks[index]

    @property
    def sectors_per_block(self) -> int:
        """Sectors in one block set (= one OCSSD chunk)."""
        return self.geometry.sectors_per_chunk

    # -- operations ----------------------------------------------------------

    def erase(self, index: int) -> float:
        """Erase a block set; returns the media time consumed.

        Raises :class:`MediaError` (and retires the block) when the wear
        model declares the erase failed; erasing a retired block also fails.
        """
        block = self._block(index)
        if block.state is _B_BAD:
            raise MediaError(f"erase of bad block {index}")
        faults = self.faults
        if faults is not None:
            if not faults.on_media_op("erase"):
                return 0.0      # powered off: the erase never happens
            if faults.erase_fails(self.fault_key, index,
                                  block.erase_count + 1):
                block.erase_count += 1
                self.stats.erases += 1
                block.state = _B_BAD
                raise MediaError(
                    f"block {index} failed erase at cycle "
                    f"{block.erase_count} (injected fault)")
        block.erase_count += 1
        self.stats.erases += 1
        elapsed = self.timing.erase_time()
        self.stats.erase_time += elapsed
        if self.obs is not None:
            self.obs.on_media("erase", elapsed)
        if self.wear.erase_fails(block.erase_count):
            block.state = _B_BAD
            raise MediaError(
                f"block {index} failed erase at cycle {block.erase_count}")
        block.state = _B_FREE
        block.sectors_programmed = 0
        return elapsed

    def program(self, index: int, sectors: int) -> float:
        """Program *sectors* sequential sectors at the block's append point.

        *sectors* must be a whole number of write units; programming past
        the end of the block or into a non-erased block is an error.
        Returns the media time consumed.
        """
        block = self._block(index)
        if block.state is _B_BAD:
            raise MediaError(f"program on bad block {index}")
        if block.state is _B_FULL:
            raise WritePointerError(f"program on full block {index}")
        write_unit = self._write_unit
        if sectors <= 0 or sectors % write_unit:
            raise WritePointerError(
                f"program of {sectors} sectors is not a multiple of the "
                f"write unit ({write_unit} sectors)")
        if block.sectors_programmed + sectors > self._block_sectors:
            raise WritePointerError(
                f"program overflows block {index}: "
                f"{block.sectors_programmed} + {sectors} > "
                f"{self.sectors_per_block}")
        faults = self.faults
        if faults is not None:
            if not faults.on_media_op("program"):
                return 0.0      # powered off: nothing reaches the array
            if faults.program_fails(self.fault_key):
                block.state = _B_BAD
                raise MediaError(
                    f"block {index} failed program (injected fault)")
        block.sectors_programmed += sectors
        block.state = (_B_FULL
                       if block.sectors_programmed == self._block_sectors
                       else _B_OPEN)
        # One write unit = `paired_pages` successive multi-plane programs.
        page_groups = (sectors // write_unit) * self._paired_pages
        self.stats.programs += page_groups
        elapsed = self.timing.program_time(page_groups)
        self.stats.program_time += elapsed
        if self.obs is not None:
            self.obs.on_media("program", elapsed)
        return elapsed

    def read(self, index: int, first_sector: int, sectors: int) -> float:
        """Read *sectors* sectors starting at *first_sector* of the block.

        Only programmed sectors may be read (reading above the write pointer
        is undefined on real flash and an error here).  Returns the media
        time: one sense per multi-plane page group touched.

        Raises :class:`MediaError` on an uncorrectable (wear-induced) error.
        """
        block = self._block(index)
        if block.state is _B_BAD:
            raise MediaError(f"read on bad block {index}")
        if sectors <= 0:
            raise MediaError(f"read of {sectors} sectors")
        if first_sector < 0 or first_sector + sectors > block.sectors_programmed:
            raise WritePointerError(
                f"read of sectors [{first_sector}, {first_sector + sectors}) "
                f"beyond write pointer {block.sectors_programmed} "
                f"in block {index}")
        group = self._group_sectors
        first_group = first_sector // group
        last_group = (first_sector + sectors - 1) // group
        page_groups = last_group - first_group + 1
        self.stats.reads += page_groups
        faults = self.faults
        if faults is not None:
            if not faults.on_media_op("read"):
                return 0.0
            if faults.read_fails(self.fault_key):
                raise MediaError(
                    f"uncorrectable read error in block {index} "
                    f"(injected fault)")
        if self.wear.read_fails(block.erase_count):
            raise MediaError(
                f"uncorrectable read error in block {index} "
                f"(erase count {block.erase_count})")
        elapsed = self.timing.read_time(page_groups)
        self.stats.read_time += elapsed
        if self.obs is not None:
            self.obs.on_media("read", elapsed)
        return elapsed

    # -- inspection ------------------------------------------------------------

    def bad_blocks(self) -> list[int]:
        return [b.index for b in self.blocks if b.state is BlockState.BAD]
