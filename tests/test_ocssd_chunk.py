"""Tests for the chunk state machine, including a property-based check of
the sequential-write invariant."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ChunkStateError, WritePointerError, WriteUnitError
from repro.ocssd import Chunk, ChunkState, Ppa


SECTOR = 8


def make_chunk(capacity=48, ws_min=12) -> Chunk:
    return Chunk(Ppa(0, 0, 0, 0), capacity=capacity, ws_min=ws_min,
                 sector_size=SECTOR)


def payload(n, fill=0):
    """One buffer covering *n* sectors."""
    return bytes([fill]) * (n * SECTOR)


def read_bytes(chunk, sector, count):
    return b"".join(chunk.read(sector, count))


class TestWriteRules:
    def test_sequential_writes_advance_pointer(self):
        chunk = make_chunk()
        chunk.admit_write(0, 12, payload(12))
        assert chunk.write_pointer == 12
        assert chunk.state is ChunkState.OPEN
        chunk.admit_write(12, 12, payload(12))
        assert chunk.write_pointer == 24

    def test_full_chunk_closes(self):
        chunk = make_chunk()
        chunk.admit_write(0, 48, payload(48))
        assert chunk.state is ChunkState.CLOSED
        with pytest.raises(ChunkStateError):
            chunk.admit_write(48, 12, payload(12))

    def test_nonsequential_write_rejected(self):
        chunk = make_chunk()
        chunk.admit_write(0, 12, payload(12))
        with pytest.raises(WritePointerError):
            chunk.admit_write(24, 12, payload(12))
        with pytest.raises(WritePointerError):
            chunk.admit_write(0, 12, payload(12))

    def test_ws_min_violation_rejected(self):
        chunk = make_chunk()
        with pytest.raises(WriteUnitError):
            chunk.admit_write(0, 7, payload(7))
        with pytest.raises(WriteUnitError):
            chunk.admit_write(0, 0, b"")

    def test_overflow_rejected(self):
        chunk = make_chunk()
        chunk.admit_write(0, 48, payload(48))
        chunk2 = make_chunk()
        with pytest.raises(WritePointerError):
            chunk2.admit_write(0, 60, payload(60))

    def test_oob_length_must_match(self):
        chunk = make_chunk()
        with pytest.raises(WriteUnitError):
            chunk.admit_write(0, 12, payload(12), oobs=[1, 2, 3])


class TestReadRules:
    def test_read_returns_written_payloads(self):
        chunk = make_chunk()
        data = b"".join(bytes([i]) * SECTOR for i in range(12))
        chunk.admit_write(0, 12, data, oobs=list(range(12)))
        assert read_bytes(chunk, 0, 12) == data
        assert read_bytes(chunk, 3, 2) == data[3 * SECTOR:5 * SECTOR]
        assert chunk.read_oob(3, 2) == [3, 4]

    def test_sectors_past_a_short_buffer_read_zeros(self):
        chunk = make_chunk()
        data = b"\x07" * (SECTOR + 3)        # ends inside sector 1
        chunk.admit_write(0, 24, data)
        assert read_bytes(chunk, 0, 24) == data.ljust(24 * SECTOR, b"\0")
        assert read_bytes(chunk, 1, 1) == b"\x07" * 3 + bytes(SECTOR - 3)
        assert read_bytes(chunk, 11, 3) == bytes(3 * SECTOR)
        chunk.admit_write(24, 12, b"")       # no payload at all
        assert read_bytes(chunk, 20, 16) == bytes(16 * SECTOR)

    def test_a_buffer_longer_than_its_sectors_is_rejected(self):
        chunk = make_chunk()
        with pytest.raises(WriteUnitError, match="97 bytes.*12 sectors"):
            chunk.admit_write(0, 12, bytes(12 * SECTOR + 1))
        with pytest.raises(WriteUnitError, match="list"):
            chunk.admit_write(0, 12, [b"x"] * 12)
        assert chunk.write_pointer == 0

    def test_read_above_write_pointer_rejected(self):
        chunk = make_chunk()
        chunk.admit_write(0, 12, payload(12))
        with pytest.raises(WritePointerError):
            chunk.read(6, 12)
        with pytest.raises(WritePointerError):
            chunk.read(12, 1)


class TestResetAndFailure:
    def test_reset_clears_everything(self):
        chunk = make_chunk()
        chunk.admit_write(0, 48, payload(48), oobs=list(range(48)))
        chunk.reset()
        assert chunk.state is ChunkState.FREE
        assert chunk.write_pointer == 0
        chunk.admit_write(0, 12, payload(12))  # writable again

    def test_offline_chunk_rejects_everything(self):
        chunk = make_chunk()
        chunk.retire()
        assert chunk.state is ChunkState.OFFLINE
        with pytest.raises(ChunkStateError):
            chunk.admit_write(0, 12, payload(12))
        with pytest.raises(ChunkStateError):
            chunk.read(0, 1)
        with pytest.raises(ChunkStateError):
            chunk.reset()

    def test_rollback_drops_unflushed_sectors(self):
        chunk = make_chunk()
        chunk.admit_write(0, 24, payload(24, fill=1))
        chunk.mark_flushed(12)
        chunk.rollback_unflushed()
        assert chunk.write_pointer == 12
        assert chunk.state is ChunkState.OPEN
        assert read_bytes(chunk, 0, 12) == payload(12, fill=1)
        with pytest.raises(WritePointerError):
            chunk.read(12, 1)

    def test_rollback_to_zero_frees_chunk(self):
        chunk = make_chunk()
        chunk.admit_write(0, 12, payload(12))
        chunk.rollback_unflushed()
        assert chunk.state is ChunkState.FREE
        assert chunk.write_pointer == 0

    def test_fully_flushed_closed_chunk_survives_rollback(self):
        chunk = make_chunk()
        chunk.admit_write(0, 48, payload(48))
        chunk.mark_flushed(48)
        chunk.rollback_unflushed()
        assert chunk.state is ChunkState.CLOSED
        assert chunk.write_pointer == 48

    def test_mark_flushed_cannot_regress_or_overshoot(self):
        chunk = make_chunk()
        chunk.admit_write(0, 24, payload(24))
        chunk.mark_flushed(12)
        with pytest.raises(WritePointerError):
            chunk.mark_flushed(6)
        with pytest.raises(WritePointerError):
            chunk.mark_flushed(36)


@given(st.lists(st.integers(1, 4), min_size=0, max_size=8),
       st.integers(0, 100))
def test_write_pointer_invariant(write_units, flush_fraction):
    """Property: after any sequence of valid writes and one flush mark, the
    pointers satisfy 0 <= flushed <= write_pointer <= capacity, the write
    pointer is the sum of admitted sectors, and rollback restores exactly
    the flushed prefix."""
    ws_min = 6
    capacity = 48
    chunk = make_chunk(capacity=capacity, ws_min=ws_min)
    admitted = 0
    for units in write_units:
        count = units * ws_min
        if admitted + count > capacity:
            with pytest.raises((WritePointerError, ChunkStateError)):
                chunk.admit_write(admitted, count, payload(count))
            continue
        chunk.admit_write(admitted, count, payload(count, fill=units))
        admitted += count
    assert chunk.write_pointer == admitted
    flushed = (admitted * flush_fraction) // 100
    chunk.mark_flushed(flushed)
    assert 0 <= chunk.flushed_pointer <= chunk.write_pointer <= capacity
    chunk.rollback_unflushed()
    assert chunk.write_pointer == flushed
    if flushed:
        assert len(read_bytes(chunk, 0, flushed)) == flushed * SECTOR
