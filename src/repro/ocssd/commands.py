"""Vector data commands and completions (OCSSD 2.0 command set, §2.2).

The interface supports scatter-gather reads and writes of logical blocks,
chunk reset, and device-internal copy of logical blocks ("without host
involvement") — the latter is what group-local garbage collection uses to
relocate valid data cheaply.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Union

from repro.ocssd.address import Ppa, PpaVector

if TYPE_CHECKING:   # typing only: repro.qos must stay un-imported at runtime
    from repro.qos.tenant import TenantContext

#: A write's payload: one bytes-like buffer (see :class:`VectorWrite`).
Buffer = Union[bytes, bytearray, memoryview]


class CommandStatus(enum.Enum):
    OK = "ok"
    WRITE_FAILED = "write-failed"
    READ_FAILED = "read-failed"
    RESET_FAILED = "reset-failed"
    INVALID = "invalid"
    POWER_FAIL = "power-fail"


@dataclass(slots=True)
class VectorWrite:
    """Write the buffer ``data`` to the sectors ``ppas`` names, in order;
    addresses must be chunk-sequential runs aligned on the write pointer
    and sized in ``ws_min`` units.

    ``data`` is one bytes-like buffer of at most ``sectors × sector_size``
    bytes.  The sectors past a shorter buffer's end carry no payload and
    read back as zeros — the only place padding ever sits.  The device
    keeps a view of an immutable buffer and copies a mutable one, once.
    A longer buffer, something that is not a buffer, or an ``oob`` /
    :class:`VectorCopy` count that disagrees with the addresses completes
    as ``INVALID``.

    ``oob`` optionally carries per-sector out-of-band metadata (e.g. the
    owning LBA) that FTL recovery scans can read back.

    ``fua`` (force unit access, as in NVMe) bypasses the controller's
    write-back cache: the command completes only once the data is on NAND.
    FTL write-ahead logs use it for commit durability.
    """

    ppas: PpaVector
    data: Buffer
    oob: Optional[List[object]] = None
    fua: bool = False
    #: Originating tenant (repro.qos); None for infrastructure I/O.
    tenant: Optional["TenantContext"] = None


@dataclass(slots=True)
class VectorRead:
    """Read the sectors named by *ppas* (any scatter pattern)."""

    ppas: PpaVector
    #: Originating tenant (repro.qos); None for infrastructure I/O.
    tenant: Optional["TenantContext"] = None
    #: Metadata only: validated, timed and failed exactly as the full read,
    #: but the completion carries ``oob`` alone (``data == []``) — for
    #: scans that read tags, not payloads.
    meta_only: bool = False


@dataclass(slots=True)
class ChunkReset:
    """Reset (erase) the chunk containing *ppa*."""

    ppa: Ppa
    #: Originating tenant (repro.qos); None for infrastructure I/O.
    tenant: Optional["TenantContext"] = None


@dataclass(slots=True)
class VectorCopy:
    """Device-internal copy: move sectors ``src[i]`` to ``dst[i]`` without
    transferring data to the host.  Destinations obey the same sequential
    write rules as :class:`VectorWrite`.

    ``dst_oob``, when given, replaces the source OOB for each destination
    sector; GC uses it to mark relocation padding as unowned instead of
    letting a pad inherit the live LBA of the sector it re-copies.
    """

    src: PpaVector
    dst: PpaVector
    dst_oob: Optional[List[object]] = None
    #: Originating tenant (repro.qos); None for infrastructure I/O.
    tenant: Optional["TenantContext"] = None


@dataclass(slots=True)
class Completion:
    """Result of a command: status, payload for reads, and timing.

    ``data`` is a short list of sector-aligned views, in vector order,
    whose ``b"".join`` is exactly ``sectors × sector_size`` bytes (empty
    for a metadata-only or failed read); ``oob`` stays one entry per
    sector.
    """

    status: CommandStatus
    data: List[memoryview] = field(default_factory=list)
    oob: List[Optional[object]] = field(default_factory=list)
    submitted_at: float = 0.0
    completed_at: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is CommandStatus.OK

    @property
    def latency(self) -> float:
        return self.completed_at - self.submitted_at
