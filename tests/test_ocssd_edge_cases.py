"""Edge-case tests for the device model: FUA semantics, copies across
groups, cache back-pressure, geometry extremes."""

import pytest

from repro.errors import SimulationError
from repro.nand import FlashGeometry, CellType
from repro.ocssd import (
    ChunkReset,
    ChunkState,
    CommandStatus,
    DeviceGeometry,
    OpenChannelSSD,
    Ppa,
    PpaRun,
    VectorCopy,
    VectorWrite,
)
from repro.ocssd.cache import WriteBackCache
from repro.sim import Simulator


def tiny(groups=2, pus=2, chunks=4, pages=6, **kwargs):
    geometry = DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    return OpenChannelSSD(geometry=geometry, **kwargs)


def unit(device, **kw):
    ws = device.geometry.ws_min
    defaults = dict(group=0, pu=0, chunk=0, start=0)
    defaults.update(kw)
    g, p, c, s = (defaults["group"], defaults["pu"], defaults["chunk"],
                  defaults["start"])
    return [Ppa(g, p, c, s + i) for i in range(ws)]


class TestFua:
    def test_fua_write_is_durable_without_flush(self):
        device = tiny()
        ppas = unit(device)
        device.write(ppas, b"f" * 64, fua=True)     # a short buffer
        device.crash_volatile()
        assert device.chunk_info(ppas[0]).write_pointer == len(ppas)
        assert b"".join(device.read(ppas[:1]).data) \
            == (b"f" * 64).ljust(device.geometry.sector_size, b"\0")

    def test_fua_after_cached_writes_same_chunk_keeps_order(self):
        device = tiny()
        ws = device.geometry.ws_min
        first = unit(device)
        second = unit(device, start=ws)
        device.write(first, b"1" * 16)                   # cached
        completion = device.write(second, b"2" * 16, fua=True)
        assert completion.ok
        # FUA completion implies everything below it is also on media.
        assert device.chunk_info(first[0]).ppa is not None
        device.crash_volatile()
        assert device.chunk_info(first[0]).write_pointer == 2 * ws

    def test_fua_slower_than_cached(self):
        device = tiny()
        cached = device.write(unit(device, chunk=0), b"c" * 16)
        fua = device.write(unit(device, chunk=1), b"d" * 16, fua=True)
        assert fua.latency > cached.latency


class TestCopySemantics:
    def test_copy_across_groups(self):
        device = tiny()
        src = unit(device, group=0)
        dst = unit(device, group=1)
        data = b"".join(bytes([i]) * device.geometry.sector_size
                        for i in range(len(src)))
        device.write(src, data)
        completion = device.copy(src, dst)
        assert completion.ok
        assert b"".join(device.read(dst).data) == data

    def test_copy_of_unwritten_source_is_invalid(self):
        device = tiny()
        completion = device.copy(unit(device, chunk=0),
                                 unit(device, chunk=1))
        assert completion.status is CommandStatus.INVALID

    def test_copy_mismatched_lengths_rejected(self):
        # Inside the error contract: an INVALID completion naming both
        # counts.
        completion = tiny().copy([Ppa(0, 0, 0, 0)], [])
        assert completion.status is CommandStatus.INVALID
        assert "1 sources but 0 destinations" in completion.error


class TestCrashBetweenAdmissionAndFirstStep:
    """A vector command admits synchronously, then spawns one controller
    child per run.  A power cut in that same instant — after admission,
    before the children take their first step — must fail the command,
    not let its children adopt the post-crash epoch and queue flush jobs
    for sectors the crash just rolled back (which killed the PU's flusher
    and deadlocked every later drain)."""

    def crash_after_admission(self, device, command, key):
        sim = device.sim
        ws = device.geometry.ws_min
        proc = sim.spawn(device.submit(command))
        while device.chunk_info(Ppa(*key, 0)).write_pointer != ws:
            sim.step()
        device.crash_volatile()
        sim.run()
        return proc.value

    def assert_failed_clean(self, device, completion, keys):
        assert completion.status is CommandStatus.WRITE_FAILED
        for key in keys:
            info = device.chunk_info(Ppa(*key, 0))
            assert (info.write_pointer, info.flushed_pointer) == (0, 0)
        # Every flusher survived: a later write still drains.
        assert device.write(PpaRun(keys[0], 0, device.geometry.ws_min),
                            b"after").ok
        device.flush()
        assert device.chunk_info(Ppa(*keys[0], 0)).flushed_pointer \
            == device.geometry.ws_min

    def test_multi_run_write(self):
        device = tiny()
        ws = device.geometry.ws_min
        keys = [(0, 0, 0), (0, 1, 0)]
        completion = self.crash_after_admission(
            device,
            VectorWrite([PpaRun(key, 0, ws) for key in keys], b"w" * 64),
            keys[0])
        self.assert_failed_clean(device, completion, keys)

    def test_copy(self):
        device = tiny()
        ws = device.geometry.ws_min
        source = PpaRun((1, 0, 0), 0, 2 * ws)
        assert device.write(source, b"s" * 64).ok
        device.flush()
        keys = [(0, 0, 0), (0, 1, 0)]
        completion = self.crash_after_admission(
            device, VectorCopy(src=source,
                               dst=[PpaRun(key, 0, ws) for key in keys]),
            keys[0])
        self.assert_failed_clean(device, completion, keys)
        assert device.chunk_info(Ppa(1, 0, 0, 0)).write_pointer == 2 * ws


class TestCrashMidErase:
    """A power cut while the chip erases: the chunk keeps what it held,
    so the reset must complete ``POWER_FAIL`` and count as no reset."""

    def test_reset_cut_after_one_millisecond(self):
        device = tiny()
        key = (0, 0, 0)
        capacity = device.geometry.sectors_per_chunk
        assert device.write(PpaRun(key, 0, capacity), b"full").ok
        device.flush()
        sim = device.sim
        proc = sim.spawn(device.submit(ChunkReset(ppa=Ppa(*key, 0))))
        sim.run_until(sim.timeout(1e-3))
        assert proc.is_alive              # the erase takes milliseconds
        device.crash_volatile()
        sim.run()
        assert proc.value.status is CommandStatus.POWER_FAIL
        assert device.controller.stats.chunk_resets == 0
        info = device.chunk_info(Ppa(*key, 0))
        assert (info.write_pointer, info.state) \
            == (capacity, ChunkState.CLOSED)
        # Powered again, the same chunk erases.
        assert device.reset(Ppa(*key, 0)).ok
        assert device.controller.stats.chunk_resets == 1


class TestCacheBackPressure:
    def test_writes_block_when_cache_full(self):
        """A tiny cache forces admission to wait for programs — sustained
        writes run at NAND speed, not DRAM speed."""
        ws_min = 24
        small = tiny(cache_sectors=ws_min)       # one unit of cache
        large = tiny(cache_sectors=ws_min * 64)
        chunk_sectors = small.geometry.sectors_per_chunk

        def fill(device):
            started = device.sim.now
            for chunk in range(2):
                ppas = [Ppa(0, 0, chunk, s) for s in range(chunk_sectors)]
                assert device.write(ppas, b"x" * 16).ok
            return device.sim.now - started

        assert fill(small) > fill(large)

    def test_cache_reserve_release_roundtrip(self):
        sim = Simulator()
        cache = WriteBackCache(sim, capacity_sectors=10)
        grant = cache.reserve(4)
        assert grant.triggered
        assert cache.free_sectors == 6
        cache.release(4)
        assert cache.free_sectors == 10

    def test_cache_fifo_under_contention(self):
        sim = Simulator()
        cache = WriteBackCache(sim, capacity_sectors=10)
        cache.reserve(10)
        order = []

        def requester(tag, amount):
            grant = cache.reserve(amount)
            yield grant
            order.append(tag)

        sim.spawn(requester("big", 8))
        sim.spawn(requester("small", 1))
        cache.release(10)
        sim.run()
        # FIFO: the large request is served first even though the small
        # one would fit earlier (no starvation of large reservations).
        assert order == ["big", "small"]

    def test_oversized_reservation_capped_to_capacity(self):
        sim = Simulator()
        cache = WriteBackCache(sim, capacity_sectors=10)
        grant = cache.reserve(50)
        assert grant.triggered
        assert grant.value == 10

    def test_over_release_rejected(self):
        sim = Simulator()
        cache = WriteBackCache(sim, capacity_sectors=10)
        with pytest.raises(SimulationError):
            cache.release(11)


class TestGeometryExtremes:
    def test_single_everything(self):
        device = tiny(groups=1, pus=1, chunks=1)
        ppas = unit(device)
        assert device.write(ppas, b"1").ok
        assert device.read(ppas).ok

    def test_qlc_four_planes(self):
        geometry = DeviceGeometry(
            num_groups=1, pus_per_group=1,
            flash=FlashGeometry(cell=CellType.QLC, planes=4,
                                blocks_per_plane=2, pages_per_block=4))
        device = OpenChannelSSD(geometry=geometry)
        assert geometry.ws_min == 64   # the paper's 256 KB / 4 KB sectors
        ppas = [Ppa(0, 0, 0, s) for s in range(64)]
        assert device.write(ppas, b"q").ok

    def test_slc_single_plane(self):
        geometry = DeviceGeometry(
            num_groups=1, pus_per_group=1,
            flash=FlashGeometry(cell=CellType.SLC, planes=1,
                                blocks_per_plane=2, pages_per_block=4))
        device = OpenChannelSSD(geometry=geometry)
        assert geometry.ws_min == 4    # one flash page
        ppas = [Ppa(0, 0, 0, s) for s in range(4)]
        assert device.write(ppas, b"s").ok
