"""A flash chip: the physical home of one OCSSD parallel unit.

Operations on a chip are sequential (§2.1) — the *device controller* models
that with one resource per chip; this class models media time and wear.
Its unit is a *block set*: one erase block on every plane of the chip, the
media under one OCSSD chunk.  Plane pairing (pages at the same address on
different planes are programmed/read together) and paired pages (SLC=1 …
QLC=4) are folded into the write-unit accounting.

The chip keeps no block state: a block set's state, write pointer and
retirement are its chunk's (:class:`repro.ocssd.chunk.Chunk`), because
"chunk management is under the responsibility of the Open-Channel SSD"
(§2.2) and the chunk enforces every write and read rule once.  What only
the die knows stays here: each block set's program/erase cycles
(:attr:`FlashChip.erase_counts`).  The chip's one built-in failure is
wear-out: an erase past the cell's endurance (:attr:`CellType.endurance`)
fails.  Every other media failure is a :class:`repro.faults.FaultPlan`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MediaError
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import NandTiming, timing_for
from repro.sidecar import FAULTS_SLOT, OBS_SLOT, init_sidecar_slots


@dataclass
class ChipStats:
    reads: int = 0
    programs: int = 0
    erases: int = 0
    read_time: float = 0.0
    program_time: float = 0.0
    erase_time: float = 0.0


class FlashChip:
    """One NAND die: its geometry, timing and the wear of its block sets."""

    def __init__(self, geometry: Optional[FlashGeometry] = None,
                 timing: Optional[NandTiming] = None):
        self.geometry = geometry or FlashGeometry()
        self.timing = timing or timing_for(self.geometry.cell)
        # Erase attempts per block set, failed ones included: the cycle
        # number the endurance check and a fault plan's grown-bad
        # schedule see.
        self.erase_counts = [0] * self.geometry.blocks_per_plane
        self.stats = ChipStats()
        # Hot-path dimensions: resolved once here instead of through a
        # property/enum chain on every program and read.
        self._blocks = self.geometry.blocks_per_plane
        self._write_unit = self.geometry.write_unit_sectors
        self._group_sectors = self.geometry.read_unit_sectors
        self._paired_pages = self.geometry.cell.bits_per_cell
        self._endurance = self.geometry.cell.endurance
        # Sidecars (repro.sidecar): None in normal operation, so the hot
        # paths pay one attribute load + identity check per op.  The chip
        # records the nand.*.media_s histograms; the controller records
        # the spans (it knows the parent command).
        init_sidecar_slots(self, FAULTS_SLOT, OBS_SLOT)
        self.fault_key = (0, 0)   # (group, pu) — set on faults attach

    def _out_of_range(self, index: int):
        raise MediaError(
            f"block index {index} out of range "
            f"(chip has {self._blocks} block sets)")

    # -- operations ----------------------------------------------------------

    def erase(self, index: int) -> float:
        """Erase a block set; returns the media time consumed.

        Raises :class:`MediaError` when the erase takes the block set
        past its cell's endurance, or an injected fault fails it; the
        attempt still counts a cycle.  The caller retires the chunk.
        """
        if not 0 <= index < self._blocks:
            self._out_of_range(index)
        counts = self.erase_counts
        faults = self.faults
        if faults is not None:
            if not faults.on_media_op("erase"):
                return 0.0      # powered off: the erase never happens
            if faults.erase_fails(self.fault_key, index, counts[index] + 1):
                counts[index] += 1
                self.stats.erases += 1
                raise MediaError(
                    f"block {index} failed erase at cycle "
                    f"{counts[index]} (injected fault)")
        counts[index] += 1
        self.stats.erases += 1
        elapsed = self.timing.erase_time()
        self.stats.erase_time += elapsed
        if self.obs is not None:
            self.obs.on_media("erase", elapsed)
        if counts[index] > self._endurance:
            raise MediaError(
                f"block {index} failed erase at cycle {counts[index]}")
        return elapsed

    def program(self, index: int, sectors: int) -> float:
        """Program *sectors* sequential sectors (whole write units, at the
        chunk's write pointer: the chunk checked both) of a block set.
        Returns the media time consumed."""
        if not 0 <= index < self._blocks:
            self._out_of_range(index)
        faults = self.faults
        if faults is not None:
            if not faults.on_media_op("program"):
                return 0.0      # powered off: nothing reaches the array
            if faults.program_fails(self.fault_key):
                raise MediaError(
                    f"block {index} failed program (injected fault)")
        # One write unit = `paired_pages` successive multi-plane programs.
        page_groups = (sectors // self._write_unit) * self._paired_pages
        self.stats.programs += page_groups
        elapsed = self.timing.program_time(page_groups)
        self.stats.program_time += elapsed
        if self.obs is not None:
            self.obs.on_media("program", elapsed)
        return elapsed

    def read(self, index: int, first_sector: int, sectors: int) -> float:
        """Read *sectors* sectors starting at *first_sector* of a block set
        (programmed ones: the chunk checked).  Returns the media time: one
        sense per multi-plane page group touched.

        Raises :class:`MediaError` on an injected uncorrectable error.
        """
        if not 0 <= index < self._blocks:
            self._out_of_range(index)
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
        elapsed = self.timing.read_time(page_groups)
        self.stats.read_time += elapsed
        if self.obs is not None:
            self.obs.on_media("read", elapsed)
        return elapsed
