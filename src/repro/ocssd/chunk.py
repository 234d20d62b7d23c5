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

Payloads live in write-once *slabs*: one immutable ``bytes`` object per
``ws_min`` write unit, built with a single ``b"".join`` when the unit is
admitted.  Nothing is pre-zeroed — the old design's full-capacity
``bytearray`` wrote every chunk's memory twice (zero-fill, then payload
copy) and stalled first-write latency with multi-hundred-KB allocations.
Reads hand out :class:`memoryview` slices into the slabs instead of
allocating a bytes object per sector.  A validity bytearray tells a
never-written (``None``) sector apart from written data, and a per-sector
length array preserves exact short-payload round-trips (the simulated
sector keeps its trailing undefined bytes out of sight, like a real
drive whose host only DMAs the transferred length).  Sequential-write
discipline makes the aliasing safe: a sector below the write pointer is
never overwritten, and ``reset`` drops the slabs rather than zeroing
them, so outstanding views keep reading the data that existed when they
were created.  The one writer that can land *inside* a slab — a write
resumed at a torn write pointer after a power cut — falls back to a
mutable ``bytearray`` slab for exactly the units it touches.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Union

from repro.errors import ChunkStateError, WritePointerError, WriteUnitError
from repro.ocssd.address import Ppa

import enum

Payload = Union[bytes, bytearray, memoryview, None]

# Shared zero-filled sectors for padding: the bytes are always *copied*
# into a slab (or joined into a caller's buffer), so sharing is safe.
_ZERO_CACHE: dict = {}
# b"\x01" runs for bulk validity marking, keyed by run length.
_ONES_CACHE: dict = {}
# array("H", [sector_size] * count) templates for bulk length marking.
_LENGTH_CACHE: dict = {}


def _zeros(size: int) -> bytes:
    blob = _ZERO_CACHE.get(size)
    if blob is None:
        blob = _ZERO_CACHE[size] = bytes(size)
    return blob


def _ones(count: int) -> bytes:
    blob = _ONES_CACHE.get(count)
    if blob is None:
        blob = _ONES_CACHE[count] = b"\x01" * count
    return blob


def _full_lengths(sector_size: int, count: int) -> array:
    key = (sector_size, count)
    template = _LENGTH_CACHE.get(key)
    if template is None:
        template = _LENGTH_CACHE[key] = array(
            "H", [sector_size]) * count
    return template


def pad_sector(payload: Payload, sector_size: int) -> Union[bytes,
                                                            memoryview]:
    """Pad one read payload (bytes, memoryview or None) to *sector_size*.

    The full-sector case — the overwhelmingly common one — returns the
    payload untouched, so a chunk-store memoryview flows zero-copy into
    the caller's ``b"".join``.
    """
    if payload is None:
        return _zeros(sector_size)
    if len(payload) == sector_size:
        return payload
    return bytes(payload).ljust(sector_size, b"\x00")


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
                 "write_pointer", "flushed_pointer", "wear_index",
                 "_slabs", "_lengths", "_valid", "_oob")

    def __init__(self, address: Ppa, capacity: int, ws_min: int,
                 sector_size: int = 4096):
        self.address = address.chunk_address()
        self.capacity = capacity
        self.ws_min = ws_min
        self.sector_size = sector_size
        self.state = _FREE
        self.write_pointer = 0
        self.flushed_pointer = 0
        self.wear_index = 0          # erase cycles seen by this chunk
        # Payload slabs and out-of-band metadata are allocated on first
        # write so a large device with mostly-untouched chunks stays cheap.
        # OOB mirrors real flash: per-sector metadata FTL recovery scans
        # read.
        self._slabs: Optional[List[Union[bytes, bytearray, None]]] = None
        self._lengths: Optional[array] = None
        self._valid: Optional[bytearray] = None
        self._oob: Optional[List[Optional[object]]] = None

    # -- write path -----------------------------------------------------------

    def admit_write(self, sector: int, payloads: Sequence[Payload],
                    oobs: Optional[List[object]] = None,
                    whole: Optional[memoryview] = None) -> None:
        """Accept a sequential write of ``len(payloads)`` sectors at *sector*.

        Enforces the three §2.2 write rules: chunk must be writable, the
        write must land exactly on the write pointer, and its size must be a
        whole number of ``ws_min`` units.

        *whole*, when given, is one contiguous buffer holding exactly the
        same bytes as *payloads* over an immutable backing object; the
        store then admits it as the unit's slab directly instead of
        joining the per-sector pieces (zero-copy).
        """
        count = len(payloads)
        if self.state is _OFFLINE:
            raise ChunkStateError(f"write to offline chunk {self.address}")
        if self.state is _CLOSED:
            raise ChunkStateError(f"write to closed chunk {self.address}")
        if sector != self.write_pointer:
            raise WritePointerError(
                f"write at sector {sector} of {self.address}, "
                f"write pointer is {self.write_pointer}")
        if count <= 0 or count % self.ws_min:
            raise WriteUnitError(
                f"write of {count} sectors violates ws_min={self.ws_min}")
        if self.write_pointer + count > self.capacity:
            raise WritePointerError(
                f"write of {count} sectors overflows chunk {self.address} "
                f"(wp={self.write_pointer}, capacity={self.capacity})")
        if oobs is not None and len(oobs) != count:
            raise WriteUnitError(
                f"write of {count} sectors with {len(oobs)} OOB entries")
        sector_size = self.sector_size
        # One C-level pass sizes the payloads: all full sectors (every
        # unit an FTL stages is) settles the oversize check and the slab
        # layout at once.  Anything else — None has no len() — is walked.
        try:
            all_full = set(map(len, payloads)) == {sector_size}
        except TypeError:
            all_full = False
        if not all_full:
            for payload in payloads:
                if payload is not None and len(payload) > sector_size:
                    raise WriteUnitError(
                        f"payload of {len(payload)} bytes exceeds the "
                        f"{sector_size}-byte sector of {self.address}")
        self._ensure_storage()
        slabs = self._slabs
        lengths = self._lengths
        valid = self._valid
        ws_min = self.ws_min
        if sector % ws_min == 0:
            # Aligned write (the only kind outside crash recovery): one
            # immutable slab per ws_min unit, a single join, no zero-fill.
            if all_full:
                if (whole is not None and count == ws_min
                        and len(whole) == count * sector_size):
                    slabs.append(whole)
                else:
                    for base in range(0, count, ws_min):
                        slabs.append(b"".join(payloads[base:base + ws_min]))
                valid[sector:sector + count] = _ones(count)
                lengths[sector:sector + count] = _full_lengths(
                    sector_size, count)
            else:
                for base in range(0, count, ws_min):
                    slabs.append(b"".join(
                        [pad_sector(payload, sector_size)
                         for payload in payloads[base:base + ws_min]]))
                for index, payload in enumerate(payloads):
                    if payload is not None:
                        lengths[sector + index] = len(payload)
                        valid[sector + index] = 1
        else:
            # A write resumed at a torn (mid-unit) write pointer — only
            # reachable after a power cut sheared a program — lands inside
            # an existing slab.  Fall back to mutable bytearray slabs for
            # exactly the units this write touches.  Trailing bytes of a
            # short payload are never exposed: reads are bounded by the
            # recorded per-sector length.
            last_unit = (sector + count - 1) // ws_min
            while len(slabs) <= last_unit:
                slabs.append(None)
            for index, payload in enumerate(payloads):
                if payload is None:
                    continue
                at = sector + index
                unit = at // ws_min
                slab = slabs[unit]
                if slab is None:
                    slab = slabs[unit] = bytearray(ws_min * sector_size)
                elif not isinstance(slab, bytearray):
                    # Immutable slab (bytes, or a zero-copy admitted view):
                    # materialize a private mutable copy before patching.
                    slab = slabs[unit] = bytearray(slab)
                offset = (at % ws_min) * sector_size
                length = len(payload)
                slab[offset:offset + length] = payload
                lengths[at] = length
                valid[at] = 1
        if oobs is not None:
            self._oob[sector:sector + count] = oobs
        self.write_pointer += count
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

    def _ensure_storage(self) -> None:
        if self._slabs is None:
            self._slabs = []
            self._lengths = array("H", bytes(2 * self.capacity))
            self._valid = bytearray(self.capacity)
            self._oob = [None] * self.capacity

    # -- read path -------------------------------------------------------------

    def read(self, sector: int, count: int = 1,
             meta_only: bool = False) -> List[Payload]:
        """Return the payloads of *count* sectors starting at *sector*.

        Payloads come back as memoryviews into the chunk's slab store
        (``None`` for sectors written without data); callers that need
        sector-sized blobs pad them with :func:`pad_sector`.  *meta_only*
        validates the read the same way and returns no payloads.

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
        valid = self._valid
        if count == 1:
            # Single-sector fast path: device reads overwhelmingly ask for
            # one sector at a time.
            if not valid[sector]:
                return [None]
            at = (sector % self.ws_min) * self.sector_size
            return [memoryview(self._slabs[sector // self.ws_min])
                    [at:at + self._lengths[sector]]]
        slabs = self._slabs
        lengths = self._lengths
        sector_size = self.sector_size
        ws_min = self.ws_min
        result: List[Payload] = []
        unit = -1
        for index in range(sector, sector + count):
            if valid[index]:
                if index // ws_min != unit:     # one view per slab
                    unit = index // ws_min
                    view = memoryview(slabs[unit])
                at = (index - unit * ws_min) * sector_size
                result.append(view[at:at + lengths[index]])
            else:
                result.append(None)
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
        self.wear_index += 1
        self._slabs = None
        self._lengths = None
        self._valid = None
        self._oob = None

    def retire(self) -> None:
        """Take the chunk offline after an unrecoverable media failure."""
        self.state = _OFFLINE

    def rollback_unflushed(self) -> None:
        """Drop sectors admitted but never programmed (crash semantics)."""
        if self.state is _OFFLINE:
            return
        if self._valid is not None:
            flushed = self.flushed_pointer
            dropped = self.write_pointer - flushed
            if dropped > 0:
                self._valid[flushed:flushed + dropped] = bytes(dropped)
                self._lengths[flushed:flushed + dropped] = array(
                    "H", bytes(2 * dropped))
                self._oob[flushed:flushed + dropped] = [None] * dropped
            # Free whole slabs above the flushed pointer; a slab torn
            # mid-unit stays (its rolled-back sectors are already marked
            # invalid above).
            keep_units = -(-flushed // self.ws_min)
            del self._slabs[keep_units:]
        self.write_pointer = self.flushed_pointer
        if self.write_pointer == 0:
            self.state = _FREE
        elif self.write_pointer < self.capacity:
            self.state = _OPEN

    # -- inspection ---------------------------------------------------------------

    @property
    def is_writable(self) -> bool:
        return self.state in (_FREE, _OPEN)

    @property
    def sectors_free(self) -> int:
        return self.capacity - self.write_pointer

    def memory_bytes(self) -> int:
        """Approximate resident size of the payload store (perf metric)."""
        import sys
        if self._slabs is None:
            return 0
        total = (sys.getsizeof(self._slabs) + sys.getsizeof(self._lengths) +
                 sys.getsizeof(self._valid) + sys.getsizeof(self._oob))
        for slab in self._slabs:
            if slab is not None:
                total += sys.getsizeof(slab)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Chunk {self.address} {self.state.value} "
                f"wp={self.write_pointer}/{self.capacity}>")
