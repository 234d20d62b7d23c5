"""Payloads travel as buffers — the chunk store checked against a plain
``bytearray`` per chunk.

Below an FTL a write's payload is one bytes-like buffer, at most
``sectors × sector_size`` bytes, and a read's is a short list of
sector-aligned views joining to exactly that many.  Hypothesis drives bare
:class:`Chunk` objects and, with the same vectors through
``OpenChannelSSD.submit``, a device: random run shapes (one chunk or two),
buffers that stop anywhere short of their vector, ``bytes`` / ``bytearray``
/ ``memoryview`` sources that the caller scribbles over afterwards, power
cuts at a random flushed pointer (the fault injector's own two calls) and
the writes that then resume at a torn pointer.  Every readable sector must
equal the oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WriteUnitError
from repro.nand import CellType, FlashGeometry
from repro.ocssd import (
    Chunk, CommandStatus, DeviceGeometry, OpenChannelSSD, Ppa, PpaRun,
    VectorRead, VectorWrite)

SECTOR = 16
GEOMETRY = DeviceGeometry(
    num_groups=2, pus_per_group=1,
    flash=FlashGeometry(cell=CellType.MLC, planes=1, blocks_per_plane=2,
                        pages_per_block=8, sectors_per_page=2,
                        sector_size=SECTOR))
WS = GEOMETRY.ws_min                    # 4
PER_CHUNK = GEOMETRY.sectors_per_chunk  # 16
KEYS = [(0, 0, 0), (1, 0, 0), (1, 0, 1)]

#: How the caller holds the buffer it hands down: the last three are
#: mutable, and the test overwrites them once the write returned.
SOURCES = ["bytes", "view of bytes", "slice of bytes", "bytearray",
           "view of bytearray", "slice of bytearray"]


def as_source(kind: str, payload: bytes):
    """``(what is handed to the device, the caller's mutable backing)``."""
    backing = bytearray(b"<" + payload + b">") if "bytearray" in kind \
        else b"<" + payload + b">"
    if kind.startswith("slice"):
        return memoryview(backing)[1:-1], backing
    data = backing[1:-1]            # a copy of the caller's own
    return (memoryview(data) if kind.startswith("view") else data), data


steps = st.lists(st.one_of(
    st.tuples(st.just("write"),
              st.lists(st.tuples(st.integers(0, len(KEYS) - 1),
                                 st.integers(1, 3)),
                       min_size=1, max_size=2, unique_by=lambda p: p[0]),
              st.one_of(st.just(1.0), st.floats(0, 1)),   # buffer / vector
              st.sampled_from(SOURCES)),
    st.tuples(st.just("read"), st.integers(0, len(KEYS) - 1),
              st.floats(0, 1), st.floats(0, 1)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("cut"), st.floats(0, 1)),
), min_size=1, max_size=30)


class Twin:
    """Bare chunks, a device and the oracle, kept in step."""

    def __init__(self):
        self.device = OpenChannelSSD(geometry=GEOMETRY)
        self.bare = {key: Chunk(Ppa(*key, 0), PER_CHUNK, WS, SECTOR)
                     for key in KEYS}
        self.oracle = {key: bytearray(PER_CHUNK * SECTOR) for key in KEYS}
        self.pointer = {key: 0 for key in KEYS}

    def reset(self, key):
        self.device.flush()
        assert self.device.reset(Ppa(*key, 0)).ok
        self.bare[key].mark_flushed(self.bare[key].write_pointer)
        self.bare[key].reset()
        self.oracle[key][:] = bytes(PER_CHUNK * SECTOR)
        self.pointer[key] = 0

    def write(self, pieces, share, kind, fill):
        runs = []
        for index, units in pieces:
            key = KEYS[index]
            if PER_CHUNK - self.pointer[key] < WS:
                self.reset(key)
            units = min(units, (PER_CHUNK - self.pointer[key]) // WS)
            runs.append(PpaRun(key, self.pointer[key], units * WS))
        total = sum(run.count for run in runs)
        payload = bytes((fill + i // 3) % 251
                        for i in range(int(total * SECTOR * share)))
        data, backing = as_source(kind, payload)
        completion = self.device.execute(VectorWrite(
            ppas=runs[0] if len(runs) == 1 else runs, data=data))
        assert completion.ok, completion.error
        offset = 0
        for run in runs:
            part = data[offset * SECTOR:(offset + run.count) * SECTOR]
            self.bare[run.key].admit_write(run.first, run.count, part)
            at = run.first * SECTOR
            self.oracle[run.key][at:at + run.count * SECTOR] = \
                payload[offset * SECTOR:(offset + run.count) * SECTOR] \
                .ljust(run.count * SECTOR, b"\0")
            self.pointer[run.key] = run.first + run.count
            offset += run.count
        if isinstance(backing, bytearray):
            backing[:] = b"\xEE" * len(backing)     # the caller moves on

    def flush(self):
        self.device.flush()
        for chunk in self.bare.values():
            chunk.mark_flushed(chunk.write_pointer)

    def cut(self, keep):
        """What ``FaultInjector.cut_power`` does: each chunk keeps a
        prefix of its unflushed sectors, then everything volatile goes."""
        for key in KEYS:
            chunk = self.device.chunks[key]
            kept = chunk.flushed_pointer + int(
                keep * (chunk.write_pointer - chunk.flushed_pointer))
            chunk.mark_flushed(kept)
            self.bare[key].mark_flushed(kept)
            self.bare[key].rollback_unflushed()
            self.oracle[key][kept * SECTOR:] = \
                bytes((PER_CHUNK - kept) * SECTOR)
            self.pointer[key] = kept
        self.device.crash_volatile()

    def read(self, key, first, count):
        """The same sectors from both stores; both must be well-formed."""
        views = self.bare[key].read(first, count)
        completion = self.device.execute(
            VectorRead(ppas=PpaRun(key, first, count)))
        assert completion.ok, completion.error
        for pieces in (views, completion.data):
            assert all(len(piece) and len(piece) % SECTOR == 0
                       for piece in pieces)
            # Short: per slab touched, not per sector — a view, and where
            # the slab's buffer stopped, a completed sector and zeros.
            assert len(pieces) <= 3 * (count // WS + 2)
        assert b"".join(views) == b"".join(completion.data)
        return b"".join(views)

    def check(self):
        for key in KEYS:
            pointer = self.pointer[key]
            assert self.bare[key].write_pointer == pointer
            assert self.device.chunks[key].write_pointer == pointer
            if pointer:
                assert self.read(key, 0, pointer) \
                    == self.oracle[key][:pointer * SECTOR]


@settings(max_examples=200, deadline=None)
@given(script=steps)
def test_the_store_is_a_bytearray_per_chunk(script):
    twin = Twin()
    for fill, (kind, *args) in enumerate(script):
        if kind == "write":
            twin.write(*args, fill=fill * 7)
        elif kind == "flush":
            twin.flush()
        elif kind == "cut":
            twin.cut(*args)
        else:
            index, start, share = args
            key = KEYS[index]
            pointer = twin.pointer[key]
            if not pointer:
                continue
            first = min(int(start * pointer), pointer - 1)
            count = max(1, int(share * (pointer - first)))
            assert twin.read(key, first, count) == twin.oracle[key][
                first * SECTOR:(first + count) * SECTOR]
            continue
        twin.check()


def test_a_write_resumed_at_a_torn_pointer_drops_what_the_cut_dropped():
    """The rolled-back sectors' bytes must not resurface under a resumed
    write whose buffer stops short of them."""
    chunk = Chunk(Ppa(0, 0, 0, 0), PER_CHUNK, WS, SECTOR)
    chunk.admit_write(0, 2 * WS, b"\x11" * (2 * WS * SECTOR))
    chunk.mark_flushed(WS + 1)                  # mid-unit
    chunk.rollback_unflushed()
    assert chunk.write_pointer == WS + 1
    chunk.admit_write(WS + 1, WS, b"\x22" * SECTOR)    # one sector of data
    assert b"".join(chunk.read(0, 2 * WS + 1)) == (
        b"\x11" * ((WS + 1) * SECTOR) + b"\x22" * SECTOR
        + bytes((WS - 1) * SECTOR))
    # The pointer stays off the unit grid; later writes keep landing
    # inside the last slab.
    chunk.admit_write(2 * WS + 1, WS, b"\x33" * (WS * SECTOR))
    assert b"".join(chunk.read(2 * WS, WS + 1)) == (
        bytes(SECTOR) + b"\x33" * (WS * SECTOR))


# -- one payload form, enforced -------------------------------------------------------

def slab_owners(device, keys):
    return [device.chunks[key].read(0, WS)[0].obj for key in keys]


def test_a_readonly_source_is_never_copied_a_mutable_one_exactly_once():
    device = OpenChannelSSD(geometry=GEOMETRY)
    two_chunks = [PpaRun(KEYS[0], 0, WS), PpaRun(KEYS[1], 0, WS)]
    source = bytes(range(2 * WS * SECTOR % 251)) * 2
    source = (source * 8)[:2 * WS * SECTOR]
    assert device.write(two_chunks, source).ok
    assert all(owner is source for owner in slab_owners(device, KEYS[:2]))
    # A read-only view the caller took of its own bytes: still no copy.
    third = PpaRun(KEYS[2], 0, WS)
    assert device.write(third, memoryview(source)[:WS * SECTOR]).ok
    assert slab_owners(device, KEYS[2:])[0] is source

    device = OpenChannelSSD(geometry=GEOMETRY)
    mutable = bytearray(source)
    assert device.write(two_chunks, mutable).ok
    first, second = slab_owners(device, KEYS[:2])
    # One private copy of the whole vector, shared by both chunks' slabs.
    assert type(first) is bytes and first is second and first == source
    mutable[:] = bytes(len(mutable))
    assert b"".join(device.read(two_chunks).data) == source


@pytest.mark.parametrize("through", ["submit", "sync"])
@pytest.mark.parametrize("ppas", ["one run", "two runs"])
@pytest.mark.parametrize("data, sizes", [
    pytest.param(bytes(2 * WS * SECTOR + 1),
                 "payload of 129 bytes exceeds the 8 sectors of 16 bytes",
                 id="too long"),
    pytest.param([bytes(SECTOR)] * 2 * WS,
                 "payload for 8 sectors is a list, not one bytes-like buffer",
                 id="a list"),
    pytest.param(None, "payload for 8 sectors is a NoneType", id="none"),
])
def test_a_payload_that_is_not_one_fitting_buffer_completes_invalid(
        through, ppas, data, sizes):
    device = OpenChannelSSD(geometry=GEOMETRY)
    ppas = PpaRun(KEYS[0], 0, 2 * WS) if ppas == "one run" \
        else [PpaRun(KEYS[0], 0, WS), PpaRun(KEYS[1], 0, WS)]
    completion = device.execute(VectorWrite(ppas=ppas, data=data)) \
        if through == "submit" else device.write(ppas, data)
    assert completion.status is CommandStatus.INVALID
    assert sizes in completion.error
    # Nothing was admitted, in either chunk.
    assert not any(device.chunks[key].write_pointer for key in KEYS)
    with pytest.raises(WriteUnitError, match="129 bytes"):
        Chunk(Ppa(0, 0, 0, 0), PER_CHUNK, WS, SECTOR).admit_write(
            0, 2 * WS, bytes(2 * WS * SECTOR + 1))
