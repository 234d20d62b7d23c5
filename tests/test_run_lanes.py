"""OX-Block foreground I/O moves in chunk-contiguous runs — checked against
the per-sector definitions the runs replaced.

``Provisioner.allocate_sector`` and ``WriteBuffer.stage`` (one sector per
call) were the write path's general lane until it became run-based; they
live on here, verbatim, as brute-force oracles.  Hypothesis drives twin
instances — one through ``allocate_run`` / ``stage_run``, one through the
oracles — with random transaction sizes, overwrites, flush padding and
unit completions, and every observable must match: PPAs, unit boundaries,
read-your-writes contents, sequence numbers, completed-unit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FTLError
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD, Ppa
from repro.ox.ftl.metadata import ChunkTable
from repro.ox.ftl.provisioning import MetadataLayout, Provisioner
from repro.ox.ftl.writebuffer import PAD_LBA, PendingUnit, WriteBuffer
from repro.ox.media import MediaManager

SECTOR = 16


# -- the deleted definitions, kept as references ------------------------------------

def allocate_sector(provisioner: Provisioner, stream: str = "user") -> Ppa:
    """Reserve a single sector; units fill sequentially, then the
    cursor moves to the next PU's unit."""
    state = provisioner._stream(stream)
    if state.fill_key is None or state.fill_next >= state.fill_end:
        key, first = provisioner.allocate_unit(stream)
        state.fill_key = key
        state.fill_next = first
        state.fill_end = first + provisioner.geometry.ws_min
    group, pu, chunk = state.fill_key
    ppa = Ppa(group, pu, chunk, state.fill_next)
    state.fill_next += 1
    return ppa


@dataclass
class PerSectorUnit(PendingUnit):
    """The oracle's unit still collects one ``Ppa`` and one payload per
    staged sector; ``PendingUnit.ppas`` is now a run derived from the
    unit's fill, ``PendingUnit.data`` one buffer."""

    staged: List[Ppa] = field(default_factory=list)
    payloads: List[bytes] = field(default_factory=list)


class PerSectorBuffer(WriteBuffer):
    """A :class:`WriteBuffer` staged one sector per call."""

    def stage(self, lba: int, ppa: Ppa, data: bytes) -> Optional[PendingUnit]:
        """Add one sector; returns the completed unit if this filled one."""
        if len(data) > self.sector_size:
            raise FTLError(
                f"payload of {len(data)} bytes exceeds sector size "
                f"{self.sector_size}")
        sector = ppa[3]
        unit_start = sector - sector % self.ws_min
        key = ppa[:3]
        slot = (key, unit_start)
        unit = self._units.get(slot)
        if unit is None:
            unit = PerSectorUnit(key=key, first_sector=unit_start)
            self._units[slot] = unit
        expected = unit.first_sector + len(unit.staged)
        if sector != expected:
            raise FTLError(
                f"staged sector {sector} out of order in unit "
                f"{slot} (expected {expected})")
        unit.staged.append(ppa)
        unit.payloads.append(data)
        unit.lbas.append(lba)
        self._sequence += 1
        unit.sequences.append(self._sequence)
        if lba != PAD_LBA:
            self._readable[lba] = (self._sequence, data)
        if len(unit.staged) == self.ws_min:
            del self._units[slot]
            return unit
        return None


# -- twins ----------------------------------------------------------------------------

def make_provisioner():
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6))
    layout = MetadataLayout.build(geometry, wal_chunk_count=2,
                                  ckpt_chunks_per_slot=1)
    table = ChunkTable(geometry, iter(layout.data_chunk_keys()))
    return geometry, Provisioner(
        MediaManager(OpenChannelSSD(geometry=geometry)), table)


def unit_state(unit: Optional[PendingUnit]):
    if unit is None:
        return None
    # The run and the buffer a unit derives must be the lists the oracle
    # appended (a pad sector's payload is empty: pads are the tail).
    if isinstance(unit, PerSectorUnit):
        ppas, data = unit.staged, b"".join(unit.payloads)
    else:
        ppas, data = list(unit.ppas), bytes(unit.data)
    return (unit.key, unit.first_sector, ppas, unit.lbas, unit.sequences,
            data)


def buffer_state(buffer: WriteBuffer):
    return (buffer._sequence,
            {lba: (sequence, bytes(payload))
             for lba, (sequence, payload) in buffer._readable.items()},
            [unit_state(unit) for unit in buffer.partial_units()])


# -- allocate_run == allocate_sector -----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(wants=st.lists(st.integers(min_value=1, max_value=60), max_size=40),
       prefill=st.integers(min_value=0, max_value=30))
def test_allocate_run_hands_out_the_per_sector_ppas(wants, prefill):
    geometry, by_run = make_provisioner()
    __, by_sector = make_provisioner()
    ws = geometry.ws_min
    # Random stream state: both cursors start *prefill* sectors in.
    for provisioner in (by_run, by_sector):
        for __ in range(prefill):
            allocate_sector(provisioner)
    for want in wants:
        placed = 0
        while placed < want:
            key, first, count = by_run.allocate_run("user", want - placed)
            assert 1 <= count <= want - placed
            # A run never leaves its write unit.
            assert first // ws == (first + count - 1) // ws
            assert [Ppa(*key, first + i) for i in range(count)] \
                == [allocate_sector(by_sector) for __ in range(count)]
            placed += count
        assert by_run.current_unit_remaining() \
            == by_sector.current_unit_remaining()
        assert by_run.sectors_available("user") \
            == by_sector.sectors_available("user")
        assert by_run.free_chunks() == by_sector.free_chunks()


# -- stage_run == stage ----------------------------------------------------------------

#: One step of a staged sequence: a transaction of *sectors* sectors at
#: *lba* (small LBA space, so overwrites of still-buffered data happen),
#: then maybe a flush-style pad-out, then maybe completing device writes.
steps = st.lists(
    st.tuples(st.integers(min_value=1, max_value=70),     # sectors
              st.integers(min_value=0, max_value=90),     # lba
              st.booleans(),                              # immutable source
              st.booleans(),                              # pad out after
              st.booleans()),                             # mark units written
    min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(steps=steps)
def test_stage_run_stages_what_per_sector_staging_did(steps):
    geometry, by_run = make_provisioner()
    __, by_sector = make_provisioner()
    ws = geometry.ws_min
    run_buffer = WriteBuffer(ws, SECTOR)
    sector_buffer = PerSectorBuffer(ws, SECTOR)
    fill = 0
    for sectors, lba, immutable, pad, written in steps:
        fill += 1
        payload = b"".join(bytes([(fill + i) % 251]) * SECTOR
                           for i in range(sectors))
        source = payload if immutable else bytearray(payload)
        view = memoryview(source)
        run_units, sector_units = [], []
        placed = 0
        while placed < sectors:
            key, first, count = by_run.allocate_run("user",
                                                    sectors - placed)
            piece = view[placed * SECTOR:(placed + count) * SECTOR]
            unit = run_buffer.stage_run(lba + placed, key, first, count,
                                        piece)
            if unit is not None:
                run_units.append(unit)
                # A whole-unit run is handed to the device as it came —
                # the chunk store sees for itself whether it is mutable.
                assert (unit.data is piece) == (count == ws)
            placed += count
        for index in range(sectors):
            unit = sector_buffer.stage(
                lba + index, allocate_sector(by_sector),
                view[index * SECTOR:(index + 1) * SECTOR])
            if unit is not None:
                sector_units.append(unit)
        if pad:
            remaining = by_run.current_unit_remaining()
            assert remaining == by_sector.current_unit_remaining()
            if remaining:
                unit = run_buffer.stage_run(
                    PAD_LBA, *by_run.allocate_run("user", remaining))
                assert unit is not None and run_buffer.partial_units() == []
                run_units.append(unit)
            for __ in range(remaining):
                unit = sector_buffer.stage(
                    PAD_LBA, allocate_sector(by_sector), b"")
                if unit is not None:
                    sector_units.append(unit)
        # Same units, completed in the same order ...
        assert [unit_state(unit) for unit in run_units] \
            == [unit_state(unit) for unit in sector_units]
        # ... same shadow contents, sequence numbers and partial units.
        assert buffer_state(run_buffer) == buffer_state(sector_buffer)
        assert len(run_buffer) == len(sector_buffer)
        if written:
            for unit in run_units:
                run_buffer.mark_written(unit)
            for unit in sector_units:
                sector_buffer.mark_written(unit)
            assert buffer_state(run_buffer) == buffer_state(sector_buffer)


def test_rejections_match_the_per_sector_lane():
    key = (0, 0, 0)
    run_buffer = WriteBuffer(4, SECTOR)
    sector_buffer = PerSectorBuffer(4, SECTOR)
    one = memoryview(b"x" * SECTOR)
    run_buffer.stage_run(1, key, 0, 1, one)
    sector_buffer.stage(1, Ppa(*key, 0), one)
    # Out of order: sector 2 while the unit expects sector 1.
    with pytest.raises(FTLError):
        run_buffer.stage_run(2, key, 2, 1, one)
    with pytest.raises(FTLError):
        sector_buffer.stage(2, Ppa(*key, 2), one)
    # Oversize payload.
    big = memoryview(b"x" * (SECTOR + 1))
    with pytest.raises(FTLError):
        run_buffer.stage_run(2, key, 1, 1, big)
    with pytest.raises(FTLError):
        sector_buffer.stage(2, Ppa(*key, 1), big)
    # A rejected stage leaves no trace on either side.
    assert buffer_state(run_buffer) == buffer_state(sector_buffer)
    # PAD_LBA: staged, sequenced, never readable — and only ever to the
    # end of the unit.
    with pytest.raises(FTLError):
        run_buffer.stage_run(PAD_LBA, key, 1, 2)
    assert buffer_state(run_buffer) == buffer_state(sector_buffer)
    run_buffer.stage_run(PAD_LBA, key, 1, 3)
    for sector in (1, 2, 3):
        sector_buffer.stage(PAD_LBA, Ppa(*key, sector), b"")
    assert buffer_state(run_buffer) == buffer_state(sector_buffer)
    assert run_buffer.lookup(PAD_LBA) is None
