"""NAND flash substrate: cells, chips, timing, endurance.

This package models the physical storage space of §2.1 of the paper:
channels of chips, chips of planes, planes of blocks, blocks of pages,
pages of sectors — with the cell-density dimension (SLC/MLC/TLC/QLC) that
drives paired pages and the unit-of-write arithmetic the paper builds its
argument on.
"""

from repro.nand.celltype import (
    CellType,
    paired_pages,
    unit_of_write_bytes,
    unit_of_write_pages,
    unit_of_write_sectors,
)
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import (
    NandTiming,
    SampledNandTiming,
    builtin_profiles,
    load_profile,
    timing_for,
)
from repro.nand.chip import FlashChip

__all__ = [
    "CellType",
    "paired_pages",
    "unit_of_write_bytes",
    "unit_of_write_pages",
    "unit_of_write_sectors",
    "FlashGeometry",
    "NandTiming",
    "SampledNandTiming",
    "builtin_profiles",
    "load_profile",
    "timing_for",
    "FlashChip",
]
