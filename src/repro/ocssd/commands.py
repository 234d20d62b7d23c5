"""Vector data commands and completions (OCSSD 2.0 command set, §2.2).

The interface supports scatter-gather reads and writes of logical blocks,
chunk reset, and device-internal copy of logical blocks ("without host
involvement") — the latter is what group-local garbage collection uses to
relocate valid data cheaply.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.ocssd.address import Ppa, PpaVector

if TYPE_CHECKING:   # typing only: repro.qos must stay un-imported at runtime
    from repro.qos.tenant import TenantContext


class CommandStatus(enum.Enum):
    OK = "ok"
    WRITE_FAILED = "write-failed"
    READ_FAILED = "read-failed"
    RESET_FAILED = "reset-failed"
    INVALID = "invalid"
    POWER_FAIL = "power-fail"


@dataclass(slots=True)
class VectorWrite:
    """Write ``data[i]`` to the ``i``-th sector ``ppas`` names; addresses
    must be chunk-sequential runs aligned on the write pointer and sized
    in ``ws_min`` units.  A count that disagrees with the addresses — here
    or in a :class:`VectorCopy` — completes as ``INVALID``.

    ``oob`` optionally carries per-sector out-of-band metadata (e.g. the
    owning LBA) that FTL recovery scans can read back.

    ``fua`` (force unit access, as in NVMe) bypasses the controller's
    write-back cache: the command completes only once the data is on NAND.
    FTL write-ahead logs use it for commit durability.
    """

    ppas: PpaVector
    data: List[Optional[bytes]]
    oob: Optional[List[object]] = None
    fua: bool = False
    #: Originating tenant (repro.qos); None for infrastructure I/O.
    tenant: Optional["TenantContext"] = None
    #: Optional contiguous view over the same bytes as ``data`` (one
    #: whole write unit on an immutable buffer): lets the chunk store
    #: admit the unit zero-copy.  Purely an optimization hint.
    whole: Optional[memoryview] = None


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
    """Result of a command: status, payloads for reads, and timing."""

    status: CommandStatus
    data: List[Optional[bytes]] = field(default_factory=list)
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
