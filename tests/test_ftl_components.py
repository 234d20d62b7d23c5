"""Unit tests for the modular FTL components: mapping, metadata, GC
victim order, provisioning, write buffer, serialization."""

import glob
import os
import re
import struct

import pytest
from hypothesis import given, strategies as st

from repro.errors import FTLError, OutOfSpaceError, RecoveryError
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD, Ppa
from repro.ox import MediaManager
from repro.ox.ftl import serial
from repro.ox.ftl.gc import GarbageCollector
from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable, FtlChunkState
from repro.ox.ftl.provisioning import MetadataLayout, Provisioner
from repro.ox.ftl.writebuffer import PAD_LBA, WriteBuffer


def tiny_geometry(groups=2, pus=2, chunks=8, pages=6) -> DeviceGeometry:
    return DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))


class TestPageMap:
    def test_update_lookup_remove(self):
        page_map = PageMap(8)
        assert page_map.lookup(5) is None
        assert page_map.update(5, 100) is None
        assert page_map.lookup(5) == 100
        assert page_map.update(5, 200) == 100
        assert page_map.remove(5) == 200
        assert page_map.lookup(5) is None
        assert page_map.remove(5) is None

    def test_load_replaces_content(self):
        page_map = PageMap(8)
        page_map.update(1, 10)
        page_map.load(iter([(2, 20), (3, 30)]))
        assert page_map.lookup(1) is None
        assert page_map.lookup(2) == 20
        assert len(page_map) == 2

    def test_snapshot_sorted(self):
        page_map = PageMap(8)
        for lba in (5, 1, 3):
            page_map.update(lba, lba * 10)
        assert list(struct.iter_unpack("<QQ", page_map.snapshot_packed())) \
            == [(1, 10), (3, 30), (5, 50)]


@given(st.data())
def test_page_map_matches_a_dict(data):
    """Model test: a bounded ``PageMap`` against a plain dict under random
    update / update_run / remove / load, holes and all."""
    capacity = data.draw(st.integers(1, 48), label="capacity")
    lbas = st.integers(0, capacity - 1)
    ppas = st.integers(0, 2**63 - 1)
    outside = st.one_of(st.integers(max_value=-1),
                        st.integers(min_value=capacity))
    page_map, model = PageMap(capacity), {}
    for __ in range(data.draw(st.integers(0, 40), label="steps")):
        op = data.draw(st.sampled_from(
            ["update", "update_run", "remove", "load", "outside"]))
        if op == "update":
            lba, ppa = data.draw(lbas), data.draw(ppas)
            assert page_map.update(lba, ppa) == model.get(lba)
            model[lba] = ppa
        elif op == "update_run":
            lba = data.draw(lbas)
            count = data.draw(st.integers(1, capacity - lba))
            ppa0 = data.draw(st.integers(0, 2**63 - 1 - count))
            previous = page_map.update_run(lba, ppa0, count)
            assert list(previous) == [model.get(lba + i, -1)
                                      for i in range(count)]
            model.update((lba + i, ppa0 + i) for i in range(count))
        elif op == "remove":
            lba = data.draw(lbas)
            assert page_map.remove(lba) == model.pop(lba, None)
        elif op == "load":
            model = data.draw(st.dictionaries(lbas, ppas, max_size=capacity))
            page_map.load(iter(model.items()))
        else:
            lba = data.draw(outside)
            before = page_map.snapshot_packed()
            assert page_map.lookup(lba) is None
            assert page_map.remove(lba) is None
            with pytest.raises(FTLError, match=str(capacity)):
                page_map.update(lba, 1)
            with pytest.raises(FTLError, match=str(capacity)):
                page_map.update_run(lba, 1, 2)
            with pytest.raises(FTLError):
                page_map.update_run(capacity - 1, 1, 2)
            assert page_map.snapshot_packed() == before
        assert len(page_map) == len(model)
        assert [page_map.lookup(lba) for lba in range(capacity)] \
            == [model.get(lba) for lba in range(capacity)]
        assert list(page_map.items()) == sorted(model.items())
        flat = [field for item in sorted(model.items()) for field in item]
        assert page_map.snapshot_packed() \
            == struct.pack(f"<{len(flat)}Q", *flat)


class TestChunkTable:
    def make(self):
        geometry = tiny_geometry()
        keys = [(g, p, c) for g in range(2) for p in range(2)
                for c in range(8)]
        return geometry, ChunkTable(geometry, iter(keys))

    @staticmethod
    def full(table, valid_counts):
        """Chunks 0.. of PU (0, 0) FULL, holding *valid_counts*."""
        for chunk, valid in enumerate(valid_counts):
            info = table.get((0, 0, chunk))
            info.state = FtlChunkState.FULL
            info.valid_count = valid

    @staticmethod
    def victims(table, group=0):
        """:meth:`GarbageCollector.victims` over *table*, which is all
        it reads."""
        media = MediaManager(OpenChannelSSD(geometry=table.geometry))
        return GarbageCollector(media, None, table, None, None, None, None,
                                None).victims(group)

    def test_valid_accounting(self):
        __, table = self.make()
        table.add_valid((0, 0, 0), 3)
        table.invalidate((0, 0, 0), 2)
        assert table.get((0, 0, 0)).valid_count == 1
        with pytest.raises(FTLError):
            table.invalidate((0, 0, 0), 5)

    def test_valid_capacity_bound(self):
        geometry, table = self.make()
        with pytest.raises(FTLError):
            table.add_valid((0, 0, 0), geometry.sectors_per_chunk + 1)

    def test_unknown_chunk_rejected(self):
        __, table = self.make()
        with pytest.raises(FTLError):
            table.get((9, 9, 9))

    def test_victims_sorted_by_invalidity(self):
        geometry, table = self.make()
        self.full(table, [geometry.sectors_per_chunk, 5, 20, 0])
        victims = self.victims(table)
        # Fully-valid chunk excluded; order: most invalid first.
        assert [v.key[2] for v in victims] == [3, 1, 2]
        assert table.gc_candidates(1) == []

    def test_greedy_orders_min_valid_first(self):
        __, table = self.make()
        self.full(table, [30, 10, 20, 10])
        order = self.victims(table)
        assert [info.valid_count for info in order] == [10, 10, 20, 30]
        # Equal valid counts break on the fixed linear index.
        assert [info.key[2] for info in order[:2]] == [1, 3]

    def test_greedy_tie_break_is_linear(self):
        __, table = self.make()
        self.full(table, [6, 6, 6, 6])
        assert [info.key[2] for info in self.victims(table)] == [0, 1, 2, 3]

    def test_snapshot_load_roundtrip(self):
        geometry, table = self.make()
        table.get((1, 1, 3)).state = FtlChunkState.FULL
        table.get((1, 1, 3)).valid_count = 17
        __, fresh = self.make()
        for row in table.snapshot():
            fresh.load_row(*row)
        info = fresh.get((1, 1, 3))
        assert info.state is FtlChunkState.FULL
        assert info.valid_count == 17


class TestMetadataLayout:
    def test_layout_partitions_space(self):
        geometry = tiny_geometry()
        layout = MetadataLayout.build(geometry, wal_chunk_count=3,
                                      ckpt_chunks_per_slot=2)
        reserved = layout.metadata_chunk_keys()
        assert len(layout.wal_chunks) == 3
        assert len(layout.ckpt_slots[0]) == 2
        assert len(layout.ckpt_slots[1]) == 2
        assert len(reserved) == 7
        data = layout.data_chunk_keys()
        assert len(data) == geometry.total_chunks - 7
        assert not reserved.intersection(data)
        assert all(key[0] == 0 for key in reserved)

    def test_layout_too_big_rejected(self):
        geometry = tiny_geometry(groups=1, pus=1, chunks=4)
        with pytest.raises(FTLError):
            MetadataLayout.build(geometry, wal_chunk_count=10,
                                 ckpt_chunks_per_slot=2)


class TestProvisioner:
    def make(self):
        geometry = tiny_geometry()
        layout = MetadataLayout.build(geometry, wal_chunk_count=2,
                                      ckpt_chunks_per_slot=1)
        table = ChunkTable(geometry, iter(layout.data_chunk_keys()))
        media = MediaManager(OpenChannelSSD(geometry=geometry))
        return geometry, Provisioner(media, table), table

    def test_units_stripe_across_pus(self):
        geometry, provisioner, __ = self.make()
        keys = [provisioner.allocate_unit()[0] for __ in range(4)]
        pus = {(key[0], key[1]) for key in keys}
        assert len(pus) == 4   # four allocations landed on four PUs

    def test_unit_sectors_sequential_within_chunk(self):
        geometry, provisioner, __ = self.make()
        ws = geometry.ws_min
        per_chunk = geometry.sectors_per_chunk // ws
        total_pus = geometry.total_pus
        allocations = [provisioner.allocate_unit()
                       for __ in range(per_chunk * total_pus)]
        by_chunk = {}
        for key, first in allocations:
            by_chunk.setdefault(key, []).append(first)
        for firsts in by_chunk.values():
            assert firsts == sorted(firsts)
            assert firsts == list(range(0, geometry.sectors_per_chunk, ws))

    def test_group_confined_allocation(self):
        __, provisioner, __t = self.make()
        for _i in range(6):
            key, __ = provisioner.allocate_unit("gc", group=1)
            assert key[0] == 1

    def test_run_allocation_fills_units(self):
        geometry, provisioner, __ = self.make()
        ws = geometry.ws_min
        first_unit = [provisioner.allocate_run() for __ in range(ws)]
        assert len({key for key, __, __n in first_unit}) == 1
        assert [(first, count) for __, first, count in first_unit] \
            == [(sector, 1) for sector in range(ws)]
        next_key, next_first, __ = provisioner.allocate_run()
        assert next_key != first_unit[0][0]
        assert next_first % ws == 0

    def test_run_is_clipped_to_the_filling_unit(self):
        geometry, provisioner, __ = self.make()
        ws = geometry.ws_min
        key, first, count = provisioner.allocate_run("user", 5)
        assert (first, count) == (0, 5)
        # The rest of that unit, however much more was wanted ...
        assert provisioner.allocate_run("user", 10 * ws) == (key, 5, ws - 5)
        # ... then one fresh unit at a time, on the next PU.
        fresh, first, count = provisioner.allocate_run("user", 10 * ws)
        assert fresh != key and (first, count) == (0, ws)

    def test_current_unit_remaining(self):
        geometry, provisioner, __ = self.make()
        assert provisioner.current_unit_remaining() == 0
        provisioner.allocate_run()
        assert provisioner.current_unit_remaining() == geometry.ws_min - 1

    def test_out_of_space(self):
        geometry, provisioner, __ = self.make()
        total_units = (geometry.total_chunks - 4) \
            * (geometry.sectors_per_chunk // geometry.ws_min)
        for __i in range(total_units):
            provisioner.allocate_unit()
        with pytest.raises(OutOfSpaceError):
            provisioner.allocate_unit()

    def test_release_and_reuse(self):
        geometry, provisioner, table = self.make()
        key, __ = provisioner.allocate_unit()
        info = table.get(key)
        # Fill the chunk completely.
        while info.state is not FtlChunkState.FULL:
            provisioner.allocate_unit()
            info = table.get(key)
        free_before = provisioner.free_chunks()
        provisioner.pool.put(key)       # what the pool does after an erase
        provisioner.release_chunk(key)
        assert provisioner.free_chunks() == free_before + 1
        assert table.get(key).state is FtlChunkState.FREE

    def test_release_with_valid_data_rejected(self):
        __, provisioner, table = self.make()
        key, __u = provisioner.allocate_unit()
        table.add_valid(key, 1)
        with pytest.raises(FTLError):
            provisioner.release_chunk(key)

    def test_adopt_open_chunk(self):
        geometry, provisioner, table = self.make()
        key = (1, 1, 5)
        assert provisioner.adopt_open_chunk(key, geometry.ws_min)
        assert table.get(key).state is FtlChunkState.OPEN
        # Second adoption on the same PU is refused.
        assert not provisioner.adopt_open_chunk((1, 1, 6), geometry.ws_min)


class TestWriteBuffer:
    KEY = (0, 0, 0)

    def make(self, ws=4):
        return WriteBuffer(ws_min=ws, sector_size=64)

    @staticmethod
    def sector(fill: bytes) -> memoryview:
        return memoryview(fill * 64)

    def test_unit_completes_at_ws_min(self):
        buffer = self.make()
        for i in range(3):
            assert buffer.stage_run(i, self.KEY, i, 1,
                                    self.sector(b"x")) is None
        unit = buffer.stage_run(3, self.KEY, 3, 1, self.sector(b"x"))
        assert unit is not None
        assert unit.lbas == [0, 1, 2, 3]
        assert unit.ppas == [Ppa(0, 0, 0, i) for i in range(4)]
        assert len(buffer) == 0

    def test_whole_unit_run_skips_the_partial_table(self):
        buffer = self.make()
        payload = b"".join(bytes([65 + i]) * 64 for i in range(4))
        view = memoryview(payload)
        unit = buffer.stage_run(8, self.KEY, 4, 4, view)
        assert unit.lbas == [8, 9, 10, 11] and unit.first_sector == 4
        # Staged in one piece: the unit's buffer is that piece, no copy.
        assert unit.data is view
        assert len(buffer) == 0 and buffer.partial_units() == []
        assert buffer.lookup(9) == b"B" * 64

    def test_a_unit_staged_in_pieces_is_their_join(self):
        buffer = self.make()
        buffer.stage_run(1, self.KEY, 0, 1, self.sector(b"a"))
        unit = buffer.stage_run(7, self.KEY, 1, 3, memoryview(b"b" * 192))
        assert bytes(unit.data) == b"a" * 64 + b"b" * 192

    def test_lookup_until_written(self):
        buffer = self.make()
        buffer.stage_run(10, self.KEY, 0, 1, self.sector(b"a"))
        assert buffer.lookup(10) == b"a" * 64
        unit = buffer.stage_run(11, self.KEY, 1, 3,
                                memoryview(b"d" * 192))
        assert buffer.lookup(10) == b"a" * 64   # still visible pre-write
        buffer.mark_written(unit)
        assert buffer.lookup(10) is None

    def test_rewrite_keeps_latest_visible(self):
        buffer = self.make()
        buffer.stage_run(10, self.KEY, 0, 1, self.sector(b"o"))
        first_unit = buffer.stage_run(100, self.KEY, 1, 3,
                                      memoryview(b"z" * 192))
        buffer.stage_run(10, (0, 0, 1), 0, 1, self.sector(b"n"))
        buffer.mark_written(first_unit)
        assert buffer.lookup(10) == b"n" * 64

    def test_out_of_order_staging_rejected(self):
        buffer = self.make()
        buffer.stage_run(1, self.KEY, 0, 1, self.sector(b"x"))
        with pytest.raises(FTLError):
            buffer.stage_run(2, self.KEY, 2, 1, self.sector(b"x"))

    def test_run_across_a_unit_boundary_rejected(self):
        buffer = self.make()
        with pytest.raises(FTLError):
            buffer.stage_run(0, self.KEY, 2, 3, memoryview(b"x" * 192))

    def test_mis_sized_payload_rejected(self):
        buffer = self.make()
        with pytest.raises(FTLError):
            buffer.stage_run(1, self.KEY, 0, 1, memoryview(b"x" * 65))
        with pytest.raises(FTLError):
            buffer.stage_run(1, self.KEY, 0, 2, memoryview(b"x" * 64))
        assert len(buffer) == 0 and buffer.lookup(1) is None

    def test_pad_lba_not_readable(self):
        buffer = self.make()
        buffer.stage_run(5, self.KEY, 0, 1, self.sector(b"a"))
        unit = buffer.stage_run(PAD_LBA, self.KEY, 1, 3)
        assert buffer.lookup(PAD_LBA) is None
        # Padding stages no payload: it is the unit's missing tail.
        assert unit.lbas == [5] + [PAD_LBA] * 3
        assert bytes(unit.data) == b"a" * 64

    def test_padding_only_ever_completes_a_unit(self):
        buffer = self.make()
        with pytest.raises(FTLError):
            buffer.stage_run(PAD_LBA, self.KEY, 0, 2)
        assert len(buffer) == 0
        unit = buffer.stage_run(PAD_LBA, self.KEY, 0, 4)
        assert unit.lbas == [PAD_LBA] * 4 and unit.data == b""


class TestSerial:
    def test_map_update_roundtrip(self):
        entries = [(1, 100, serial.NO_PPA), (2, 200, 150)]
        record = serial.encode(serial.REC_MAP_UPDATE, (7,), entries)
        decoded = next(iter(serial.decode_frame(self._frame([record]))))
        assert decoded.rtype == serial.REC_MAP_UPDATE
        assert serial.decode(decoded) == ((7,), entries)

    def test_commit_roundtrip(self):
        record = serial.encode(serial.REC_COMMIT, (42,))
        decoded = next(iter(serial.decode_frame(self._frame([record]))))
        assert serial.decode(decoded) == ((42,), [])

    def test_ckpt_footer_checksum(self):
        record = serial.encode(serial.REC_CKPT_FOOTER, (5,))
        decoded = next(iter(serial.decode_frame(self._frame([record]))))
        assert serial.decode(decoded) == ((5,), [])

    def test_ckpt_footer_corruption_detected(self):
        record = bytearray(serial.encode(serial.REC_CKPT_FOOTER, (5,)))
        record[-1] ^= 0xFF
        decoded = next(iter(serial.decode_frame(self._frame([bytes(record)]))))
        with pytest.raises(RecoveryError, match="checksum"):
            serial.decode(decoded)

    def test_split_map_update_respects_frame_capacity(self):
        entries = [(i, i * 2, i * 3) for i in range(1000)]
        records = serial.split(serial.REC_MAP_UPDATE, (9,), entries,
                               sector_size=512)
        assert _rows_of(records, 512) == [((9,), entries)]

    def test_vpage_roundtrip(self):
        entries = [(10, 999, 123, 4567), (11, 0, 0, 1)]
        records = serial.split(serial.REC_CKPT_VMAP, (), entries,
                               sector_size=4096)
        assert serial.decode(next(iter(serial.decode_frame(
            self._frame(records))))) == ((), entries)

    def test_segment_roundtrip(self):
        record = serial.encode(serial.REC_CKPT_SEGMENT, (5,),
                               [(1,), (2,), (3,)])
        decoded = next(iter(serial.decode_frame(self._frame([record]))))
        assert serial.decode(decoded) == ((5,), [(1,), (2,), (3,)])

    def test_empty_frame_yields_nothing(self):
        assert list(serial.decode_frame(None)) == []
        assert list(serial.decode_frame(b"")) == []
        assert list(serial.decode_frame(b"\x00" * 4096)) == []

    def test_corrupt_frame_detected(self):
        bogus = struct.pack("<I", 5000) + b"x" * 100
        with pytest.raises(RecoveryError):
            list(serial.decode_frame(bogus))

    def test_malformed_bodies_are_recovery_errors(self):
        """Whatever bytes sit in a structurally valid frame, decoding them
        raises :class:`RecoveryError` — never a ``struct.error``."""
        commit = serial.encode(serial.REC_COMMIT, (1,))
        update = serial.encode(serial.REC_MAP_UPDATE, (1,), [(1, 2, 3)])
        for rtype, body in ((serial.REC_COMMIT, commit[5:-1]),
                            (serial.REC_COMMIT, commit[5:] + b"x"),
                            (serial.REC_MAP_UPDATE, update[5:-1]),
                            (serial.REC_CKPT_FOOTER, b""),
                            (7, b""), (200, commit[5:])):
            with pytest.raises(RecoveryError):
                serial.decode(serial.Record(rtype, body))

    def test_oversized_record_is_refused_by_the_writer(self):
        writer = serial.FrameWriter(512)
        with pytest.raises(RecoveryError, match="split it"):
            writer.append(serial.encode(
                serial.REC_MAP_UPDATE, (1,), [(0, 0, 0)] * 40))
        assert writer.frame_count() == 0 and writer.take() == b""

    @staticmethod
    def _frame(records, sector_size=4096):
        writer = serial.FrameWriter(sector_size)
        for record in records:
            writer.append(record)
        assert writer.frame_count() == 1
        frame = writer.take()
        assert len(frame) == sector_size
        return bytes(frame)


def _rows_of(records, sector_size):
    """Frame *records* and decode them back: ``[(head, rows), ...]`` with
    the rows of consecutive same-head records concatenated — every record
    went through :class:`FrameWriter`, so each fits one frame."""
    writer = serial.FrameWriter(sector_size)
    for record in records:
        writer.append(record)
    count = writer.frame_count()
    buffer = bytes(writer.take())
    assert len(buffer) == count * sector_size
    merged = []
    for frame in serial.iter_frames([memoryview(buffer)], sector_size):
        for record in serial.decode_frame(frame):
            head, rows = serial.decode(record)
            if merged and merged[-1][0] == head:
                merged[-1][1].extend(rows)
            else:
                merged.append((head, rows))
    return merged


_FIELD = {"Q": st.one_of(st.sampled_from([0, 2**63, 2**64 - 1]),
                         st.integers(0, 2**64 - 1)),
          "I": st.one_of(st.sampled_from([0, 2**32 - 1]),
                         st.integers(0, 2**32 - 1)),
          "B": st.integers(0, 255)}


def _tuples(packer):
    return st.tuples(*(_FIELD[code] for code in packer.format[1:]))


@given(st.data())
def test_record_table_roundtrip_property(data):
    """Every kind of the table, u64 extremes included: ``decode`` undoes
    ``encode``; packed rows encode as their tuples do; ``split`` pieces
    each fit one frame and concatenate to the input rows."""
    rtype = data.draw(st.sampled_from(sorted(serial.KINDS)))
    kind = serial.KINDS[rtype]
    head = data.draw(_tuples(kind.head))
    if kind.row is None:
        record = serial.encode(rtype, head)
        assert serial.decode(serial.Record(rtype, record[5:])) == (head, [])
        return
    rows = data.draw(st.lists(_tuples(kind.row), max_size=700))
    packed = b"".join(kind.row.pack(*row) for row in rows)
    sector_size = data.draw(st.sampled_from([512, 4096]))
    if len(packed) <= sector_size - 4 - 5 - kind.head.size - 4 * kind.crc:
        record = serial.encode(rtype, head, rows)
        assert record == serial.encode(rtype, head, packed)
        assert record[0] == rtype and len(record) == 5 + int.from_bytes(
            record[1:5], "little")
        assert serial.decode(serial.Record(rtype, record[5:])) == (head, rows)
    pieces = serial.split(rtype, head, rows, sector_size)
    assert pieces == serial.split(rtype, head, packed, sector_size)
    assert _rows_of(pieces, sector_size) == ([(head, rows)] if rows else [])
    assert all(serial.fits(rtype, row) for row in rows)


def test_fits_knows_each_field_width():
    assert serial.fits(serial.REC_CKPT_VMAP, (2**64 - 1, 0, 2**32 - 1, 0))
    for row in ((-1, 0, 0, 0), (2**64, 0, 0, 0), (0, 0, 2**32, 0),
                ("7", 0, 0, 0), (1.0, 0, 0, 0), (None, 0, 0, 0)):
        assert not serial.fits(serial.REC_CKPT_VMAP, row)


@given(st.lists(st.tuples(st.integers(0, 2**63), st.integers(0, 2**63),
                          st.integers(0, 2**64 - 1)), max_size=300))
def test_map_update_encoding_roundtrip_property(entries):
    records = serial.split(serial.REC_MAP_UPDATE, (1,), entries,
                           sector_size=4096)
    assert _rows_of(records, 4096) == ([((1,), entries)] if entries else [])


def kinds_table() -> str:
    """DESIGN.md's "Metadata records" table, rendered from the codec."""
    def cell(fields, packer, crc=False):
        if not fields:
            return "—"
        return (f"{fields} + crc32 of it `{packer.format}` `<I`" if crc
                else f"{fields} `{packer.format}`")
    lines = ["| rtype | name | head | row (repeated) | written by |",
             "|-------|------|------|----------------|------------|"]
    for rtype, kind in sorted(serial.KINDS.items()):
        lines.append(
            f"| {rtype} | `{kind.name}` "
            f"| {cell(kind.head_fields, kind.head, kind.crc)} "
            f"| {cell(kind.row_fields, kind.row)} | {kind.writer} |")
    return "\n".join(lines)


def test_design_metadata_records_table_is_the_codec_table():
    """A doc that cannot drift: the committed table between the two
    markers is what ``serial.KINDS`` renders to (the failure prints it)."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "DESIGN.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    begin, end = "<!-- metadata-records -->\n", "\n<!-- /metadata-records -->"
    committed = text[text.index(begin) + len(begin):text.index(end)]
    assert committed == kinds_table(), "\n" + kinds_table()


def test_one_codec_grep_pin():
    """No second spelling of the record format: none of the per-kind
    ``encode_*`` / ``decode_*`` / ``split_*`` names, ``WalRecord``, the
    union ``CheckpointSnapshot`` or a frame list outside the tests."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    gone = re.compile(
        r"(encode|decode|split)_(map_update|commit|ckpt_\w+|vpage_update"
        r"|segment\w*)\b|_encode_segment|WalRecord|CheckpointSnapshot"
        r"|\._frames\b|\.frames\(\)")
    paths = [path for pattern in ("src/**/*.py", "benchmarks/bench_*.py",
                                  "examples/**/*.py", "scripts/*")
             for path in glob.glob(os.path.join(root, pattern),
                                   recursive=True)]
    assert len(paths) > 100
    hits = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            hits += [f"{os.path.relpath(path, root)}:{number}: {line.strip()}"
                     for number, line in enumerate(handle, 1)
                     if gone.search(line)]
    assert not hits, "\n".join(hits)
