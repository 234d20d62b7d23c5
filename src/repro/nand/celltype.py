"""Cell density types and the unit-of-write arithmetic of §2.1.

The paper's worked example: "on a QLC chip with 4 planes, 4 paired pages
must be written together on four planes, as a result the unit of write is
16 pages = 16*4 sectors = 16*4*4KB = 256 KB"; and for the dual-plane TLC
drive used in the evaluation, the unit of write is "24 logical blocks …
corresponding to 4 (sectors per page) * 3 (paired pages) * 2 (planes)",
i.e. 96 KB.  These functions encode exactly that arithmetic.
"""

from __future__ import annotations

import enum


class CellType(enum.Enum):
    """NAND cell density: how many bits each cell stores.

    Higher density lowers $/GB at the cost of latency and endurance; each
    stored bit adds one *paired page* sharing the cell, and all paired pages
    must be programmed before any of them can be read back reliably.
    """

    SLC = 1
    MLC = 2
    TLC = 3
    QLC = 4

    @property
    def bits_per_cell(self) -> int:
        return self.value

    @property
    def endurance(self) -> int:
        """Rated program/erase cycles of a block: an erase past it fails."""
        return _ENDURANCE[self]


_ENDURANCE = {
    CellType.SLC: 100_000,
    CellType.MLC: 10_000,
    CellType.TLC: 3_000,
    CellType.QLC: 1_000,
}


def paired_pages(cell: CellType) -> int:
    """Number of pages sharing each cell (1 per stored bit)."""
    return cell.bits_per_cell


def unit_of_write_pages(cell: CellType, planes: int) -> int:
    """Pages that must be programmed together: paired pages x planes."""
    _check_planes(planes)
    return paired_pages(cell) * planes


def unit_of_write_sectors(cell: CellType, planes: int,
                          sectors_per_page: int) -> int:
    """Sectors (= OCSSD logical blocks) in one unit of write (``ws_min``)."""
    if sectors_per_page < 1:
        raise ValueError(f"sectors_per_page must be >= 1, got {sectors_per_page}")
    return unit_of_write_pages(cell, planes) * sectors_per_page


def unit_of_write_bytes(cell: CellType, planes: int, sectors_per_page: int,
                        sector_size: int) -> int:
    """Byte size of one unit of write."""
    if sector_size < 1:
        raise ValueError(f"sector_size must be >= 1, got {sector_size}")
    return unit_of_write_sectors(cell, planes, sectors_per_page) * sector_size


def _check_planes(planes: int) -> None:
    if planes not in (1, 2, 4):
        raise ValueError(
            f"flash chips come with 1, 2 or 4 planes, got {planes}")
