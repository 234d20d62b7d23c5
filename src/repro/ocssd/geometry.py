"""Device-level geometry: groups x parallel units x chunks x sectors.

This is what the OCSSD geometry-report admin command returns to the host.
The per-chip dimensions come from :class:`repro.nand.FlashGeometry`; the
device dimensions (groups, PUs per group) are set by the manufacturer
(§2.1: "SSD manufacturers define the number of channels in an SSD, and the
number of storage chips per channel").

The default mirrors the evaluation drive of Figure 4: 8 groups x 4 PUs,
dual-plane TLC, 4 KB sectors, ``ws_min`` = 24 sectors = 96 KB — but with
chunks scaled down from 24 MB so pure-Python experiments stay tractable
(the scale factor is reported by :meth:`describe`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import GeometryError
from repro.nand.geometry import FlashGeometry
from repro.ocssd.address import Ppa


@dataclass(frozen=True)
class DeviceGeometry:
    """Geometry exposed by the device's geometry-report command."""

    num_groups: int = 8
    pus_per_group: int = 4
    flash: FlashGeometry = field(default_factory=FlashGeometry)

    def __post_init__(self) -> None:
        if self.num_groups < 1:
            raise GeometryError(f"num_groups must be >= 1, got {self.num_groups}")
        if self.pus_per_group < 1:
            raise GeometryError(
                f"pus_per_group must be >= 1, got {self.pus_per_group}")
        # Address translation runs once per sector on every I/O; cache the
        # dimension chain (each hop is a property call) on the instance.
        object.__setattr__(self, "_dims",
                           (self.pus_per_group, self.flash.chunks_per_chip,
                            self.flash.sectors_per_chunk, self.num_groups))
        # Read on every allocation and GC fit check; three property hops.
        object.__setattr__(self, "_ws_min", self.flash.write_unit_sectors)

    # -- derived dimensions ---------------------------------------------------

    @property
    def sector_size(self) -> int:
        return self.flash.sector_size

    @property
    def chunks_per_pu(self) -> int:
        return self.flash.chunks_per_chip

    @property
    def sectors_per_chunk(self) -> int:
        return self.flash.sectors_per_chunk

    @property
    def chunk_size(self) -> int:
        return self.flash.chunk_size

    @property
    def ws_min(self) -> int:
        """Minimum write size in sectors (the §2.1 unit-of-write)."""
        return self._ws_min

    @property
    def total_pus(self) -> int:
        return self.num_groups * self.pus_per_group

    @property
    def total_chunks(self) -> int:
        return self.total_pus * self.chunks_per_pu

    @property
    def capacity_bytes(self) -> int:
        return self.total_chunks * self.chunk_size

    # -- address handling -------------------------------------------------------

    def check(self, ppa: Ppa) -> None:
        """Raise :class:`GeometryError` unless *ppa* is on the device."""
        pus, chunks, sectors, groups = self._dims
        group, pu, chunk, sector = ppa
        if not (0 <= group < groups and 0 <= pu < pus
                and 0 <= chunk < chunks and 0 <= sector < sectors):
            raise GeometryError(f"{ppa} outside geometry {self.describe()}")

    def linearize(self, ppa: Ppa) -> int:
        """Map *ppa* to a dense integer (used for compact map encodings)."""
        pus, chunks, sectors, groups = self._dims
        group, pu, chunk, sector = ppa
        if not (0 <= group < groups and 0 <= pu < pus
                and 0 <= chunk < chunks and 0 <= sector < sectors):
            raise GeometryError(f"{ppa} outside geometry {self.describe()}")
        return ((group * pus + pu) * chunks + chunk) * sectors + sector

    def delinearize(self, index: int) -> Ppa:
        """Inverse of :meth:`linearize`."""
        pus, chunks, sectors, groups = self._dims
        if not 0 <= index < groups * pus * chunks * sectors:
            raise GeometryError(f"linear index {index} out of range")
        index, sector = divmod(index, sectors)
        index, chunk = divmod(index, chunks)
        group, pu = divmod(index, pus)
        return Ppa(group, pu, chunk, sector)

    def iter_pus(self) -> Iterator[tuple[int, int]]:
        """All ``(group, pu)`` pairs in address order."""
        for group in range(self.num_groups):
            for pu in range(self.pus_per_group):
                yield (group, pu)

    def describe(self) -> str:
        return (f"{self.num_groups}g x {self.pus_per_group}pu x "
                f"{self.chunks_per_pu}chk x {self.sectors_per_chunk}sec "
                f"({self.flash.cell.name}, {self.flash.planes} planes, "
                f"ws_min={self.ws_min})")
