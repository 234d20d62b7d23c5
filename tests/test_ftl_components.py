"""Unit tests for the modular FTL components: mapping, metadata,
provisioning, write buffer, serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import FTLError, OutOfSpaceError, RecoveryError
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, Ppa
from repro.ox.ftl import serial
from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable, FtlChunkState
from repro.ox.ftl.provisioning import MetadataLayout, Provisioner
from repro.ox.ftl.writebuffer import PAD_LBA, WriteBuffer
from repro.policies import GreedyVictimPolicy


def tiny_geometry(groups=2, pus=2, chunks=8, pages=6) -> DeviceGeometry:
    return DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))


class TestPageMap:
    def test_update_lookup_remove(self):
        page_map = PageMap()
        assert page_map.lookup(5) is None
        assert page_map.update(5, 100) is None
        assert page_map.lookup(5) == 100
        assert page_map.update(5, 200) == 100
        assert page_map.remove(5) == 200
        assert page_map.lookup(5) is None
        assert page_map.remove(5) is None

    def test_dirty_segments(self):
        page_map = PageMap(segment_size=10)
        page_map.update(5, 1)
        page_map.update(15, 2)
        page_map.update(16, 3)
        assert page_map.dirty_segment_count == 2
        page_map.mark_clean()
        assert page_map.dirty_segment_count == 0

    def test_load_replaces_content(self):
        page_map = PageMap()
        page_map.update(1, 10)
        page_map.load(iter([(2, 20), (3, 30)]))
        assert page_map.lookup(1) is None
        assert page_map.lookup(2) == 20
        assert len(page_map) == 2
        assert page_map.dirty_segment_count == 0

    def test_snapshot_sorted(self):
        page_map = PageMap()
        for lba in (5, 1, 3):
            page_map.update(lba, lba * 10)
        assert page_map.snapshot() == [(1, 10), (3, 30), (5, 50)]


class TestChunkTable:
    def make(self):
        geometry = tiny_geometry()
        keys = [(g, p, c) for g in range(2) for p in range(2)
                for c in range(8)]
        return geometry, ChunkTable(geometry, iter(keys))

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
        capacity = geometry.sectors_per_chunk
        for chunk, valid in ((0, capacity), (1, 5), (2, 20), (3, 0)):
            info = table.get((0, 0, chunk))
            info.state = FtlChunkState.FULL
            info.valid_count = valid
        victims = GreedyVictimPolicy().select(table.gc_candidates(0), table)
        # Fully-valid chunk excluded; order: most invalid first.
        assert [v.key[2] for v in victims] == [3, 1, 2]
        assert table.gc_candidates(1) == []

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
        return geometry, Provisioner(geometry, table), table

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
        record = serial.encode_map_update(7, entries)
        decoded = next(iter(serial.decode_frame(self._frame([record]))))
        assert decoded.rtype == serial.REC_MAP_UPDATE
        assert serial.decode_map_update(decoded.body) == (7, entries)

    def test_commit_roundtrip(self):
        record = serial.encode_commit(42)
        decoded = next(iter(serial.decode_frame(self._frame([record]))))
        assert serial.decode_commit(decoded.body) == 42

    def test_ckpt_footer_checksum(self):
        record = serial.encode_ckpt_footer(5)
        decoded = next(iter(serial.decode_frame(self._frame([record]))))
        assert serial.decode_ckpt_footer(decoded.body) == 5

    def test_ckpt_footer_corruption_detected(self):
        record = bytearray(serial.encode_ckpt_footer(5))
        record[-1] ^= 0xFF
        decoded = next(iter(serial.decode_frame(self._frame([bytes(record)]))))
        with pytest.raises(RecoveryError):
            serial.decode_ckpt_footer(decoded.body)

    def test_split_map_update_respects_frame_capacity(self):
        entries = [(i, i * 2, i * 3) for i in range(1000)]
        records = serial.split_map_update(9, entries, sector_size=512)
        writer = serial.FrameWriter(512)
        for record in records:
            writer.append(record)   # must not raise
        recovered = []
        for frame in writer.frames():
            for record in serial.decode_frame(frame):
                txn, part = serial.decode_map_update(record.body)
                assert txn == 9
                recovered.extend(part)
        assert recovered == entries

    def test_vpage_roundtrip(self):
        entries = [(10, 999, 123, 4567), (11, 0, 0, 1)]
        records = serial.split_vpage_update(3, entries, sector_size=4096)
        txn, decoded = serial.decode_vpage_update(
            next(iter(serial.decode_frame(self._frame(records)))).body)
        assert txn == 3
        assert decoded == entries

    def test_segment_roundtrip(self):
        record = serial.encode_segment_new(5, [1, 2, 3])
        decoded = next(iter(serial.decode_frame(self._frame([record]))))
        assert serial.decode_segment(decoded.body) == (5, [1, 2, 3])

    def test_empty_frame_yields_nothing(self):
        assert list(serial.decode_frame(None)) == []
        assert list(serial.decode_frame(b"")) == []
        assert list(serial.decode_frame(b"\x00" * 4096)) == []

    def test_corrupt_frame_detected(self):
        import struct
        bogus = struct.pack("<I", 5000) + b"x" * 100
        with pytest.raises(RecoveryError):
            list(serial.decode_frame(bogus))

    @staticmethod
    def _frame(records, sector_size=4096):
        writer = serial.FrameWriter(sector_size)
        for record in records:
            writer.append(record)
        frames = writer.frames()
        assert len(frames) == 1
        return frames[0]


@given(st.lists(st.tuples(st.integers(0, 2**63), st.integers(0, 2**63),
                          st.integers(0, 2**64 - 1)), max_size=300))
def test_map_update_encoding_roundtrip_property(entries):
    records = serial.split_map_update(1, entries, sector_size=4096)
    writer = serial.FrameWriter(4096)
    for record in records:
        writer.append(record)
    recovered = []
    for frame in writer.frames():
        for record in serial.decode_frame(frame):
            __, part = serial.decode_map_update(record.body)
            recovered.extend(part)
    assert recovered == list(entries)
