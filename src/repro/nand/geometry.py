"""Per-chip flash geometry: planes / blocks / pages / sectors."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GeometryError
from repro.nand.celltype import CellType, unit_of_write_sectors


@dataclass(frozen=True)
class FlashGeometry:
    """Dimensions of a single flash chip (one OCSSD parallel unit).

    The defaults follow §2.1 and the Figure 4 drive: 4 KB sectors, 4
    sectors per flash page, dual-plane TLC (96 KB write unit).  Blocks are
    scaled down from the drive's 768 pages/block (24 MB chunks) to keep
    pure-Python experiments tractable; benches that need the paper's exact
    chunk size pass ``pages_per_block=768``.

    ``pages_per_block`` must be a multiple of the paired-page count so a
    chunk holds a whole number of write units (real parts are built this
    way; TLC blocks come in multiples of 3 pages).
    """

    cell: CellType = CellType.TLC
    planes: int = 2
    blocks_per_plane: int = 64
    pages_per_block: int = 96
    sectors_per_page: int = 4
    sector_size: int = 4096

    def __post_init__(self) -> None:
        if self.planes not in (1, 2, 4):
            raise GeometryError(f"planes must be 1, 2 or 4, got {self.planes}")
        for field in ("blocks_per_plane", "pages_per_block",
                      "sectors_per_page", "sector_size"):
            if getattr(self, field) < 1:
                raise GeometryError(f"{field} must be >= 1")
        if self.pages_per_block % self.cell.bits_per_cell:
            raise GeometryError(
                f"pages_per_block={self.pages_per_block} is not a multiple "
                f"of the {self.cell.name} paired-page count "
                f"({self.cell.bits_per_cell}); chunks would not hold a "
                "whole number of write units")

    @property
    def page_size(self) -> int:
        """Bytes per flash page (excluding out-of-band space)."""
        return self.sectors_per_page * self.sector_size

    @property
    def block_size(self) -> int:
        """Bytes per block on a single plane."""
        return self.pages_per_block * self.page_size

    @property
    def chip_size(self) -> int:
        """Usable bytes on the chip."""
        return self.planes * self.blocks_per_plane * self.block_size

    @property
    def write_unit_sectors(self) -> int:
        """``ws_min`` in sectors for this chip (§2.1 arithmetic)."""
        return unit_of_write_sectors(self.cell, self.planes,
                                     self.sectors_per_page)

    @property
    def write_unit_bytes(self) -> int:
        return self.write_unit_sectors * self.sector_size

    @property
    def read_unit_sectors(self) -> int:
        """Sectors one sense (tR) reads: a page on every plane."""
        return self.planes * self.sectors_per_page

    # -- chunk view ---------------------------------------------------------
    # A chunk (OCSSD unit of sequential write) spans one block on every
    # plane of the chip: plane-paired pages are always programmed together,
    # so exposing per-plane blocks separately would leak the constraint the
    # chunk abstraction exists to hide (§2.2).

    @property
    def chunks_per_chip(self) -> int:
        return self.blocks_per_plane

    @property
    def sectors_per_chunk(self) -> int:
        return self.planes * self.pages_per_block * self.sectors_per_page

    @property
    def chunk_size(self) -> int:
        return self.sectors_per_chunk * self.sector_size
