"""The chunk state machine and per-chunk data store.

A chunk is the OCSSD unit of sequential write (§2.2): logical blocks are
written strictly at the write pointer, and the chunk must be reset before
it can be rewritten.  States follow the OCSSD 2.0 chunk descriptor:

* ``FREE``    — reset, write pointer at 0;
* ``OPEN``    — partially written;
* ``CLOSED``  — fully written;
* ``OFFLINE`` — retired after a media failure.

The chunk additionally distinguishes the *admitted* write pointer (sectors
accepted by the controller, possibly still in the write-back cache) from
the *flushed* write pointer (sectors actually programmed to NAND).  A
power/controller crash rolls the chunk back to its flushed pointer, which
is what makes the FTL's write-ahead-log durability guarantees testable.

A write's payload is one bytes-like buffer covering its sectors in order,
at most ``sectors × sector_size`` bytes; the sectors past a shorter
buffer's end carry no payload and read back as zeros.  The store keeps
what it is given: one read-only view per ``ws_min`` write unit, sliced
from the admitted buffer — no join, no pre-zeroing, and a copy only when
the caller's buffer is mutable (``memoryview(data).readonly`` is false),
so nothing a caller does afterwards changes what reads return.  Reads
hand out views into those slabs, zero-filled where a slab is short.
Sequential-write discipline makes the aliasing safe: a sector below the
write pointer is never overwritten, and ``reset`` drops the slabs, so
outstanding views keep reading the data that existed when they were
created.  The one writer that can land *inside* a slab — a write resumed
at a torn write pointer after a power cut — replaces each unit it touches
with a fresh slab: the flushed prefix of the old one, then the new bytes.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.errors import ChunkStateError, WritePointerError, WriteUnitError
from repro.ocssd.address import Ppa
from repro.ocssd.commands import Buffer

# Shared zero runs for the short tail of a slab, keyed by length.
_ZERO_CACHE: dict = {}


def _zeros(size: int) -> bytes:
    blob = _ZERO_CACHE.get(size)
    if blob is None:
        blob = _ZERO_CACHE[size] = bytes(size)
    return blob


def payload_view(data: Buffer, sectors: int,
                 sector_size: int) -> memoryview:
    """The read-only view of a write payload that a chunk may alias.

    *data* is one bytes-like buffer of at most ``sectors × sector_size``
    bytes; a mutable one is copied here, once."""
    try:
        view = memoryview(data)
    except TypeError:
        raise WriteUnitError(
            f"payload for {sectors} sectors is a {type(data).__name__}, "
            f"not one bytes-like buffer") from None
    if view.nbytes > sectors * sector_size:
        raise WriteUnitError(
            f"payload of {view.nbytes} bytes exceeds the {sectors} "
            f"sectors of {sector_size} bytes it is written to")
    return view if view.readonly else memoryview(bytes(view))


class ChunkState(enum.Enum):
    FREE = "free"
    OPEN = "open"
    CLOSED = "closed"
    OFFLINE = "offline"


# Enum member access goes through a descriptor on every lookup; the chunk
# state checks sit on the per-sector read/write paths, so bind them once.
_FREE = ChunkState.FREE
_OPEN = ChunkState.OPEN
_CLOSED = ChunkState.CLOSED
_OFFLINE = ChunkState.OFFLINE


class Chunk:
    """State, write pointers and sector payloads of one chunk."""

    __slots__ = ("address", "capacity", "ws_min", "sector_size", "state",
                 "write_pointer", "flushed_pointer", "_slabs", "_oob")

    def __init__(self, address: Ppa, capacity: int, ws_min: int,
                 sector_size: int = 4096):
        self.address = address.chunk_address()
        self.capacity = capacity
        self.ws_min = ws_min
        self.sector_size = sector_size
        self.state = _FREE
        self.write_pointer = 0
        self.flushed_pointer = 0
        # Payload slabs (one per write unit, possibly short) and
        # out-of-band metadata are allocated on first write so a large
        # device with mostly-untouched chunks stays cheap.  OOB mirrors
        # real flash: per-sector metadata FTL recovery scans read.
        self._slabs: Optional[List[memoryview]] = None
        self._oob: Optional[List[Optional[object]]] = None

    # -- write path -----------------------------------------------------------

    def admit_write(self, sector: int, count: int, data: Buffer,
                    oobs: Optional[List[object]] = None) -> None:
        """Accept a sequential write of *count* sectors at *sector* whose
        payload is the buffer *data* (see :func:`payload_view`).

        Enforces the three §2.2 write rules: chunk must be writable, the
        write must land exactly on the write pointer, and its size must be a
        whole number of ``ws_min`` units.
        """
        if self.state is _OFFLINE:
            raise ChunkStateError(f"write to offline chunk {self.address}")
        if self.state is _CLOSED:
            raise ChunkStateError(f"write to closed chunk {self.address}")
        if sector != self.write_pointer:
            raise WritePointerError(
                f"write at sector {sector} of {self.address}, "
                f"write pointer is {self.write_pointer}")
        ws_min = self.ws_min
        if count <= 0 or count % ws_min:
            raise WriteUnitError(
                f"write of {count} sectors violates ws_min={ws_min}")
        if sector + count > self.capacity:
            raise WritePointerError(
                f"write of {count} sectors overflows chunk {self.address} "
                f"(wp={self.write_pointer}, capacity={self.capacity})")
        if oobs is not None and len(oobs) != count:
            raise WriteUnitError(
                f"write of {count} sectors with {len(oobs)} OOB entries")
        sector_size = self.sector_size
        view = payload_view(data, count, sector_size)
        slabs = self._slabs
        if slabs is None:
            slabs = self._slabs = []
            self._oob = [None] * self.capacity
        unit_bytes = ws_min * sector_size
        span = count * sector_size
        head = sector % ws_min
        if head:
            # A write resumed at a torn (mid-unit) write pointer — only
            # reachable after a power cut sheared a program — lands
            # inside a slab.  That unit gets a fresh one: what the old
            # slab held below the pointer, then the new bytes; whatever a
            # rollback left above it is dropped, so a short payload still
            # reads back as zeros.  The rest of the write is aligned.
            below = head * sector_size
            keep = bytes(slabs[-1][:below]).ljust(below, b"\x00")
            slabs[-1] = memoryview(b"".join(
                (keep, view[:unit_bytes - below])))
            view = view[unit_bytes - below:]
            span -= unit_bytes - below
        if span == unit_bytes:
            slabs.append(view)
        else:
            for base in range(0, span, unit_bytes):
                slabs.append(view[base:base + unit_bytes])
        if oobs is not None:
            self._oob[sector:sector + count] = oobs
        self.write_pointer = sector + count
        self.state = (_CLOSED
                      if self.write_pointer == self.capacity
                      else _OPEN)

    def mark_flushed(self, up_to: int) -> None:
        """Record that sectors below *up_to* have reached NAND."""
        if up_to < self.flushed_pointer or up_to > self.write_pointer:
            raise WritePointerError(
                f"flush pointer {up_to} outside "
                f"[{self.flushed_pointer}, {self.write_pointer}] "
                f"of {self.address}")
        self.flushed_pointer = up_to

    # -- read path -------------------------------------------------------------

    def read(self, sector: int, count: int = 1,
             meta_only: bool = False) -> List[memoryview]:
        """The payload of *count* sectors starting at *sector*, as a short
        list of sector-aligned views into the slab store (and shared zero
        runs where a slab is short) whose ``b"".join`` is exactly
        ``count × sector_size`` bytes.  *meta_only* validates the read the
        same way and returns no payload.

        Reading at or above the write pointer is an error (undefined data on
        real flash).
        """
        if self.state is _OFFLINE:
            raise ChunkStateError(f"read from offline chunk {self.address}")
        if count <= 0:
            raise WritePointerError(f"read of {count} sectors")
        if sector < 0 or sector + count > self.write_pointer:
            raise WritePointerError(
                f"read of sectors [{sector}, {sector + count}) above write "
                f"pointer {self.write_pointer} in {self.address}")
        if meta_only:
            return []
        ws_min = self.ws_min
        sector_size = self.sector_size
        unit_bytes = ws_min * sector_size
        slabs = self._slabs
        unit = sector // ws_min
        start = (sector - unit * ws_min) * sector_size
        left = count * sector_size
        result: List[memoryview] = []
        while left:
            want = left if start + left <= unit_bytes else unit_bytes - start
            piece = slabs[unit][start:start + want]
            got = len(piece)
            if got == want:
                result.append(piece)
            else:
                # The slab is short: its buffer ended here.  The sector it
                # ended inside, if any, is completed on its own, so every
                # piece stays a whole number of sectors.
                ragged = got % sector_size
                if got > ragged:
                    result.append(piece[:got - ragged])
                if ragged:
                    result.append(bytes(piece[got - ragged:])
                                  .ljust(sector_size, b"\x00"))
                    got += sector_size - ragged
                if got < want:
                    result.append(_zeros(want - got))
            left -= want
            unit += 1
            start = 0
        return result

    def read_oob(self, sector: int, count: int = 1) -> List[Optional[object]]:
        """Return the out-of-band metadata of *count* sectors at *sector*."""
        if sector < 0 or sector + count > self.write_pointer:
            raise WritePointerError(
                f"OOB read of sectors [{sector}, {sector + count}) above "
                f"write pointer {self.write_pointer} in {self.address}")
        return self._oob[sector:sector + count]

    # -- reset / failure --------------------------------------------------------

    def reset(self) -> None:
        """Erase the chunk: back to ``FREE`` with the pointer at 0."""
        if self.state is _OFFLINE:
            raise ChunkStateError(f"reset of offline chunk {self.address}")
        self.state = _FREE
        self.write_pointer = 0
        self.flushed_pointer = 0
        self._slabs = None
        self._oob = None

    def retire(self) -> None:
        """Take the chunk offline after an unrecoverable media failure."""
        self.state = _OFFLINE

    def rollback_unflushed(self) -> None:
        """Drop sectors admitted but never programmed (crash semantics)."""
        if self.state is _OFFLINE:
            return
        flushed = self.flushed_pointer
        if self._slabs is not None:
            dropped = self.write_pointer - flushed
            self._oob[flushed:flushed + dropped] = [None] * dropped
            # Free whole slabs above the flushed pointer; a slab torn
            # mid-unit stays, and the write that resumes there replaces it.
            del self._slabs[-(-flushed // self.ws_min):]
        self.write_pointer = flushed
        if flushed == 0:
            self.state = _FREE
        elif flushed < self.capacity:
            self.state = _OPEN

    # -- inspection ---------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident size of the payload store (perf metric)."""
        import sys
        if self._slabs is None:
            return 0
        return (sys.getsizeof(self._slabs) + sys.getsizeof(self._oob)
                + sum(sys.getsizeof(slab) + slab.nbytes
                      for slab in self._slabs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Chunk {self.address} {self.state.value} "
                f"wp={self.write_pointer}/{self.capacity}>")
