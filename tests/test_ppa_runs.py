"""Addresses travel as runs — checked against the per-sector vectors the
runs stand for.

Below an FTL a vector is a :class:`PpaRun`, a list of them, or (at the
edge) a list of ``Ppa``.  Three devices are driven in lockstep, one per
form — runs, ``list(run)`` flattened, runs with metadata-only reads — by
random commands that are as often wrong as right: ends outside the
geometry, reads above the write pointer, writes off the pointer or not a
multiple of ``ws_min``, offline chunks, count mismatches, vectors cut
into adjacent and non-adjacent pieces.  Every observable must agree.
"""

from __future__ import annotations

import glob
import os
import re
from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.nand import CellType, FlashGeometry
from repro.ocssd import (
    CommandStatus, DeviceGeometry, OpenChannelSSD, Ppa, PpaRun, VectorCopy,
    VectorRead, VectorWrite)
from repro.ox import MediaManager

SECTOR = 16
GEOMETRY = DeviceGeometry(
    num_groups=2, pus_per_group=2,
    flash=FlashGeometry(cell=CellType.MLC, planes=1, blocks_per_plane=3,
                        pages_per_block=8, sectors_per_page=2,
                        sector_size=SECTOR))
WS = GEOMETRY.ws_min                    # 4
PER_CHUNK = GEOMETRY.sectors_per_chunk  # 16
OFFLINE = (1, 1, 2)

#: A piece is legal as drawn — whole units of one of a few chunks (so
#: commands meet), at the write pointer or just below it — unless it also
#: draws a fault: a key off the device (group, chunk index, PU) or the
#: offline chunk, a start off the pointer or off the chunk, a count that
#: is no multiple of ``ws_min`` or is zero.
CHUNKS = [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 0)]
FAULTS = [None] * 70 + [
    ("key", (2, 0, 0)), ("key", (0, 0, 3)), ("key", (0, -1, 0)),
    ("key", OFFLINE), ("first", -1), ("first", 1), ("first", PER_CHUNK),
    ("count", -1), ("count", 1), ("count", -WS)]
#: (key, units, continues-the-previous-piece, fault)
pieces = st.lists(
    st.tuples(st.sampled_from(CHUNKS), st.integers(1, 2), st.booleans(),
              st.sampled_from(FAULTS)),
    min_size=1, max_size=3)


# -- PpaRun is the sequence it stands for ---------------------------------------------

@given(key=st.tuples(*[st.integers(0, 3)] * 3), first=st.integers(0, 40),
       count=st.integers(-2, 30), data=st.data())
def test_a_run_is_the_list_it_stands_for(key, first, count, data):
    run = PpaRun(list(key), first, count)
    flat = [Ppa(*key, first + i) for i in range(count)]
    assert isinstance(run, Sequence) and run.key == key
    assert len(run) == len(flat) and bool(run) == bool(flat)
    assert list(run) == flat and list(reversed(run)) == flat[::-1]
    assert run == flat and flat == run and run == PpaRun(key, first, count)
    assert not (run != flat) and run != flat + [Ppa(*key, 99)]
    assert run != PpaRun(key, first + 1, count) or not flat
    for index in range(-len(flat), len(flat)):
        assert run[index] == flat[index]
    for index in (len(flat), -len(flat) - 1):
        with pytest.raises(IndexError):
            run[index]
    cut = data.draw(st.slices(len(flat) + 2))
    assert run[cut] == flat[cut]
    assert (Ppa(*key, first) in run) == bool(flat)
    with pytest.raises(AttributeError):
        run.first = 0


# -- one adaptor: the same maximal runs, whatever the form ----------------------------

def resolve(device, drawn, reading=False):
    """Drawn pieces -> concrete ``(key, first, count)``: a piece starts
    on its chunk's write pointer (*reading*: *count* sectors below it) or,
    continuing, where the previous piece ends in the same chunk; then its
    fault, if any, is applied."""
    out = []
    for key, units, continues, fault in drawn:
        count = units * WS
        if continues and out:
            key, first = out[-1][0], out[-1][1] + out[-1][2]
        else:
            first = device.chunks[key].write_pointer
            if reading:
                first = max(first - count, 0)
        where, value = fault or ("first", 0)
        if where == "key":
            key = value
        elif where == "first":
            first += value
        else:
            count += value
        out.append((key, first, count))
    return out


def as_runs(resolved):
    runs = [PpaRun(*piece) for piece in resolved]
    return runs[0] if len(runs) == 1 else runs


def as_list(resolved):
    return [ppa for piece in resolved for ppa in PpaRun(*piece)]


def split(device, vector):
    try:
        runs, total = device._split_runs(vector)
    except GeometryError as exc:
        return str(exc)
    return [(chunk.address, first, count, offset)
            for chunk, first, count, offset in runs], total


@given(drawn=pieces)
def test_split_runs_is_the_same_for_every_form(drawn):
    device = OpenChannelSSD(geometry=GEOMETRY)
    resolved = resolve(device, drawn)
    flat = as_list(resolved)
    expected = split(device, flat)
    assert split(device, as_runs(resolved)) == expected
    assert split(device, [PpaRun(*piece) for piece in resolved]) == expected
    # Mixed: every other piece flattened to single addresses.
    mixed = []
    for index, piece in enumerate(resolved):
        mixed += list(PpaRun(*piece)) if index % 2 else [PpaRun(*piece)]
    assert split(device, mixed) == expected
    if not isinstance(expected, str):
        runs, total = expected
        assert total == len(flat)
        # Maximal: consecutive runs never continue each other.
        for (a, a_first, a_count, a_off), (b, b_first, __, b_off) \
                in zip(runs, runs[1:]):
            assert b_off == a_off + a_count
            assert (a, a_first + a_count) != (b, b_first)
        assert [ppa for address, first, count, __ in runs
                for ppa in PpaRun(address[:3], first, count)] == flat


# -- three devices in lockstep --------------------------------------------------------

def observed(completion):
    return (completion.status, completion.error,
            b"".join(completion.data), list(completion.oob))


def state(device):
    return (device.sim.now, device.sim.events_processed,
            [(chunk.state, chunk.write_pointer, chunk.flushed_pointer)
             for chunk in device.chunks.values()],
            vars(device.controller.stats))


commands = st.lists(st.tuples(
    st.sampled_from(["write", "write", "read", "read", "copy", "flush"]),
    pieces, pieces,
    st.sampled_from([0, 0, 0, 0, -1, 1]),    # payload size/OOB count skew
    st.booleans()),              # with OOB / dst_oob
    min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(script=commands)
def test_run_form_and_list_form_drive_the_device_identically(script):
    by_run, by_list, meta_only = devices = [
        OpenChannelSSD(geometry=GEOMETRY) for __ in range(3)]
    for device in devices:
        device.chunks[OFFLINE].retire()
        # Something to read: 1, 2, 1 and 0 units on media, one in cache.
        for key, units in zip(CHUNKS, (1, 2, 1, 0)):
            run = PpaRun(key, 0, units * WS)
            device.write(run, bytes(key) * 5 * len(run),
                         oob=list(range(len(run))))
        device.flush()
        device.write(PpaRun(CHUNKS[0], WS, WS), b"cached")
    assert state(by_run) == state(by_list) == state(meta_only)
    tag = 0
    for kind, drawn, drawn_dst, skew, with_oob in script:
        if kind == "flush":
            for device in devices:
                device.flush()
            continue
        resolved = resolve(by_run, drawn, reading=kind != "write")
        total = sum(max(count, 0) for __, __, count in resolved)
        if kind == "write":
            tag += 1
            # One buffer: five bytes too long (INVALID), five short (the
            # last sector's tail reads zeros), or, one time in seven, a
            # few whole sectors short; mutable every other time.
            data = b"".join(bytes([tag % 251, i % 251]) * (SECTOR // 2)
                            for i in range(total + 1))
            data = data[:max(total * SECTOR + skew * 5
                             - (tag % 7 == 0) * 3 * SECTOR, 0)]
            if tag % 2:
                data = bytearray(data)
            oob = [("tag", tag, i) for i in range(total + skew)] \
                if with_oob else None
            build = lambda form: VectorWrite(   # noqa: E731
                ppas=form(resolved), data=data, oob=oob)
        elif kind == "read":
            build = lambda form: VectorRead(    # noqa: E731
                ppas=form(resolved))
        else:
            dst = resolve(by_run, drawn_dst)
            if skew == 0:       # as many destinations as sources, mostly
                key, first, count = dst[-1]
                dst[-1] = (key, first, count + total - sum(
                    max(count, 0) for __, __, count in dst))
            dst_oob = [("moved", i) for i in range(max(total + skew, 0))] \
                if with_oob else None
            build = lambda form: VectorCopy(    # noqa: E731
                src=form(resolved), dst=form(dst), dst_oob=dst_oob)
        expected = observed(by_list.execute(build(as_list)))
        assert observed(by_run.execute(build(as_runs))) == expected
        command = build(as_runs)
        if kind == "read":
            command.meta_only = True
            status, error, data, oob = expected
            expected = (status, error, b"", oob)
        assert observed(meta_only.execute(command)) == expected
        assert state(by_run) == state(by_list) == state(meta_only)


def test_metadata_only_read_fails_like_the_full_read():
    """An uncorrectable read: same status, error and timing, no payloads."""
    from repro.faults import FaultInjector, FaultPlan
    outcomes = []
    for meta_only in (False, True):
        device = OpenChannelSSD(geometry=GEOMETRY)
        run = PpaRun((0, 0, 0), 0, WS)
        assert device.write(run, b"x" * SECTOR * WS, fua=True).ok
        FaultInjector(FaultPlan(read_fail_prob=1.0)).attach(device)
        completion = device.execute(VectorRead(ppas=run,
                                               meta_only=meta_only))
        assert completion.status is CommandStatus.READ_FAILED
        assert completion.data == []
        outcomes.append((completion.error, completion.oob, state(device)))
    assert outcomes[0] == outcomes[1]


# -- the error contract: a count mismatch is INVALID, not a stack trace ---------------
# (A payload has no count: tests/test_payload_buffers.py holds its size rule.)

@pytest.mark.parametrize("through", ["submit", "sync"])
@pytest.mark.parametrize("kind, counts", [
    ("oob", "8 addresses but 9 OOB entries"),
    ("copy", "8 sources but 4 destinations"),
    ("dst_oob", "8 destinations but 3 OOB overrides"),
])
def test_count_mismatch_completes_invalid_and_names_both_counts(
        through, kind, counts):
    device = OpenChannelSSD(geometry=GEOMETRY)
    media = MediaManager(device)
    src = [PpaRun((0, 0, 0), 0, WS), PpaRun((0, 0, 0), WS, WS)]
    assert device.write(src, b"s" * SECTOR * 2 * WS).ok
    dst = PpaRun((0, 1, 0), 0, 2 * WS)
    data = b"d" * SECTOR * 2 * WS
    if kind == "oob":
        command = VectorWrite(ppas=dst, data=data, oob=[0] * 9)
        call = lambda: device.write(dst, data, oob=[0] * 9)  # noqa: E731
    elif kind == "copy":
        command = VectorCopy(src=src, dst=PpaRun((0, 1, 0), 0, WS))
        call = lambda: device.copy(src, PpaRun((0, 1, 0), 0, WS))  # noqa
    else:
        command = VectorCopy(src=src, dst=dst, dst_oob=[0] * 3)
        call = lambda: device.copy(src, dst, dst_oob=[0] * 3)  # noqa: E731
    completion = device.execute(command) if through == "submit" else call()
    assert completion.status is CommandStatus.INVALID
    assert counts in completion.error
    # Nothing was admitted.
    assert device.chunk_info(Ppa(0, 1, 0, 0)).write_pointer == 0
    with pytest.raises(Exception) as raised:
        media.require_ok(completion, "a malformed command")
    assert counts in str(raised.value)


# -- one address form -----------------------------------------------------------------

def test_no_per_sector_ppa_vector_is_built_below_an_ftl():
    """Nothing in ``src/repro`` spells a run as one ``Ppa`` per sector
    (comprehension, ``append`` or ``extend`` over ``Ppa(``): address.py
    is where a run turns into addresses, and the contract probe — a host
    talking raw OCSSD 2.0 — builds its scratch vector from
    ``with_sector``."""
    per_sector = re.compile(
        r"(\[|\.append\(|\.extend\()\s*Ppa\(|Ppa\([^()]*\)\s+for\s")
    root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src", "repro")
    offenders = []
    for path in glob.glob(os.path.join(root, "**", "*.py"), recursive=True):
        if path.endswith(os.path.join("ocssd", "address.py")):
            continue
        with open(path) as handle:
            text = handle.read()
        offenders += [
            f"{os.path.relpath(path, root)}:{text.count(chr(10), 0, m.start()) + 1}"
            for m in per_sector.finditer(text)]
    assert not offenders, f"hand the device a PpaRun instead: {offenders}"
