"""Integration tests for the Open-Channel SSD device model: commands,
write-back cache, crash semantics, parallelism and interference timing."""

import pathlib
import signal

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.nand import FlashGeometry
from repro.ocssd import (
    ChunkReset,
    ChunkState,
    CommandStatus,
    DeviceGeometry,
    OpenChannelSSD,
    Ppa,
    PpaRun,
    VectorWrite,
)
from tests.cuts import break_block, cut_in


def _hung(signum, frame):
    raise AssertionError("the device hung: no simulated progress")


def tiny_device(**kwargs) -> OpenChannelSSD:
    geometry = kwargs.pop("geometry", None) or DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=4, pages_per_block=6))
    return OpenChannelSSD(geometry=geometry, **kwargs)


def seq_ppas(device, group=0, pu=0, chunk=0, start=0, count=None):
    count = count or device.geometry.ws_min
    return [Ppa(group, pu, chunk, start + i) for i in range(count)]


def unit_payloads(device, fill=0xAB, count=None):
    """One buffer covering *count* sectors (default: one write unit)."""
    count = count or device.geometry.ws_min
    return bytes([fill]) * (device.geometry.sector_size * count)


def numbered(device, count, base=0):
    """A buffer whose sector ``i`` is filled with ``base + i``."""
    return b"".join(bytes([(base + i) % 251]) * device.geometry.sector_size
                    for i in range(count))


class TestWriteRead:
    def test_write_then_read_roundtrip(self):
        device = tiny_device()
        ppas = seq_ppas(device)
        data = numbered(device, len(ppas))
        completion = device.write(ppas, data, oob=list(range(len(ppas))))
        assert completion.ok
        read = device.read(ppas)
        assert read.ok
        assert b"".join(read.data) == data
        assert read.oob == list(range(len(ppas)))

    def test_scattered_read_across_chunks(self):
        device = tiny_device()
        for (group, pu) in [(0, 0), (1, 1)]:
            device.write(seq_ppas(device, group=group, pu=pu),
                         unit_payloads(device, fill=group * 16 + pu))
        read = device.read([Ppa(0, 0, 0, 3), Ppa(1, 1, 0, 5)])
        assert read.ok
        sector = device.geometry.sector_size
        assert b"".join(read.data) == bytes([0]) * sector \
            + bytes([17]) * sector

    def test_write_not_at_pointer_is_invalid(self):
        device = tiny_device()
        ws = device.geometry.ws_min
        completion = device.write(
            seq_ppas(device, start=ws), unit_payloads(device))
        assert completion.status is CommandStatus.INVALID

    def test_sub_ws_min_write_is_invalid(self):
        device = tiny_device()
        completion = device.write([Ppa(0, 0, 0, 0)],
                                  b"x" * device.geometry.sector_size)
        assert completion.status is CommandStatus.INVALID

    def test_read_unwritten_sector_is_invalid(self):
        device = tiny_device()
        completion = device.read([Ppa(0, 0, 0, 0)])
        assert completion.status is CommandStatus.INVALID

    def test_vector_write_is_not_atomic(self):
        """§4.3: vector operations are not atomic — a mid-vector validation
        error leaves earlier runs admitted."""
        device = tiny_device()
        ws = device.geometry.ws_min
        good = seq_ppas(device, chunk=0)
        bad = seq_ppas(device, chunk=1, start=ws)  # not at write pointer
        completion = device.write(good + bad, unit_payloads(device, count=2 * ws))
        assert completion.status is CommandStatus.INVALID
        assert device.chunk_info(good[0]).write_pointer == ws
        assert device.chunk_info(bad[0]).write_pointer == 0


class TestPayloadReadLane:
    """``read_sectors_proc``: the FTL foreground lane — linear addresses
    in, payloads out, the timing of ``submit(VectorRead)``."""

    def filled(self):
        device = tiny_device()
        geometry = device.geometry
        for chunk in (0, 1):
            for unit in range(geometry.sectors_per_chunk // geometry.ws_min):
                start = unit * geometry.ws_min
                device.write(
                    seq_ppas(device, pu=1, chunk=chunk, start=start),
                    numbered(device, geometry.ws_min, chunk * 100 + start))
        device.write(seq_ppas(device, group=1), unit_payloads(device, 0xEE))
        device.flush()
        return device

    def lane(self, device, linears):
        return device.sim.run_until(
            device.sim.spawn(device.read_sectors_proc(linears)))

    @pytest.mark.parametrize("shape", [
        "one sector", "one run", "chunk boundary", "scatter"])
    def test_same_payloads_and_timeline_as_a_vector_read(self, shape):
        geometry = tiny_device().geometry
        per_chunk = geometry.sectors_per_chunk
        first = geometry.linearize(Ppa(0, 1, 0, 0))
        linears = {
            "one sector": [first + 7],
            "one run": list(range(first + 3, first + 9)),
            # Linearly consecutive, physically two chunks: two runs.
            "chunk boundary": list(range(first + per_chunk - 2,
                                         first + per_chunk + 3)),
            "scatter": [geometry.linearize(Ppa(1, 0, 0, 5)), first + 1,
                        first + 2, first + per_chunk + 30, first],
        }[shape]
        by_lane, by_command = self.filled(), self.filled()
        payloads = self.lane(by_lane, linears)
        completion = by_command.read(
            [geometry.delinearize(linear) for linear in linears])
        assert completion.ok
        assert b"".join(payloads) == b"".join(completion.data)
        assert len(b"".join(payloads)) == len(linears) * geometry.sector_size
        assert by_lane.sim.now == by_command.sim.now
        assert by_lane.sim.events_processed \
            == by_command.sim.events_processed

    def test_failures_return_none(self):
        device = self.filled()
        geometry = device.geometry
        good = geometry.linearize(Ppa(0, 1, 0, 0))
        assert self.lane(device, [good]) is not None
        total = geometry.total_chunks * geometry.sectors_per_chunk
        for bad in (-1, total):
            assert self.lane(device, [good, bad]) is None
        # Above the write pointer (what a racing reset looks like).
        unwritten = geometry.linearize(Ppa(1, 1, 2, 0))
        assert self.lane(device, [unwritten]) is None
        assert self.lane(device, [good, unwritten]) is None


class TestChunkLifecycle:
    def test_chunk_closes_when_full(self):
        device = tiny_device()
        total = device.geometry.sectors_per_chunk
        device.write(seq_ppas(device, count=total),
                     unit_payloads(device, count=total))
        assert device.chunk_info(Ppa(0, 0, 0, 0)).state is ChunkState.CLOSED

    def test_reset_reopens_chunk(self):
        device = tiny_device()
        total = device.geometry.sectors_per_chunk
        device.write(seq_ppas(device, count=total),
                     unit_payloads(device, count=total))
        device.flush()
        completion = device.reset(Ppa(0, 0, 0, 0))
        assert completion.ok
        info = device.chunk_info(Ppa(0, 0, 0, 0))
        assert info.state is ChunkState.FREE
        assert info.write_pointer == 0
        assert info.wear_index == 1
        assert device.write(seq_ppas(device), unit_payloads(device)).ok

    def test_iter_chunk_info_covers_device(self):
        device = tiny_device()
        infos = list(device.iter_chunk_info())
        assert len(infos) == device.geometry.total_chunks


class TestCopy:
    def test_copy_moves_data_and_oob(self):
        device = tiny_device()
        src = seq_ppas(device, chunk=0)
        dst = seq_ppas(device, group=1, pu=0, chunk=1)
        data = numbered(device, len(src))
        device.write(src, data, oob=[100 + i for i in range(len(src))])
        completion = device.copy(src, dst)
        assert completion.ok
        read = device.read(dst)
        assert b"".join(read.data) == data
        assert read.oob == [100 + i for i in range(len(src))]

    def test_a_failed_source_read_fails_the_copy(self):
        """The payload moves before the timed reads: a source the media
        cannot read must still fail the copy, not complete it OK."""
        device = tiny_device()
        src = seq_ppas(device, chunk=0)
        dst = seq_ppas(device, group=1, pu=0, chunk=1)
        assert device.write(src, numbered(device, len(src))).ok
        device.flush()
        injector = FaultInjector(FaultPlan(read_fail_prob=1.0)).attach(device)
        completion = device.copy(src, dst)
        assert completion.status is CommandStatus.READ_FAILED
        assert injector.stats.reads_failed >= 1

    def test_destinations_transfer_after_the_sources_are_read(self):
        """Dependency order inside one command: on an idle device, with
        sources and destinations on different channels, no destination
        transfer starts before the last source read has ended."""
        device = tiny_device()
        ws = device.geometry.ws_min
        for pu in (0, 1):
            assert device.write(seq_ppas(device, pu=pu),
                                numbered(device, ws)).ok
        device.flush()
        controller, sim = device.controller, device.sim
        reads, writes = [], []

        def timed(run_proc, log):
            def proc(*args, **kwargs):
                entry = [sim.now, None]
                log.append(entry)
                result = yield from run_proc(*args, **kwargs)
                entry[1] = sim.now
                return result
            return proc

        controller.read_run = timed(controller.read_run, reads)
        controller.write_run = timed(controller.write_run, writes)
        src = [PpaRun((0, pu, 0), 0, ws) for pu in (0, 1)]
        dst = [PpaRun((1, pu, 1), 0, ws) for pu in (0, 1)]
        assert device.copy(src, dst).ok
        assert len(reads) == len(writes) == 2
        assert min(start for start, __ in writes) \
            >= max(end for __, end in reads) > 0


class TestCrashSemantics:
    def test_unflushed_writes_lost_on_crash(self):
        device = tiny_device()
        ppas = seq_ppas(device)
        device.write(ppas, unit_payloads(device))
        # No flush: data sits in the write-back cache.
        device.crash_volatile()
        info = device.chunk_info(ppas[0])
        assert info.write_pointer == 0
        assert info.state is ChunkState.FREE

    def test_flushed_writes_survive_crash(self):
        device = tiny_device()
        ppas = seq_ppas(device)
        data = unit_payloads(device, fill=7)
        device.write(ppas, data)
        device.flush()
        device.crash_volatile()
        read = device.read(ppas)
        assert read.ok
        assert b"".join(read.data) == data

    def test_background_flush_eventually_persists(self):
        """Even without an explicit flush, the flusher drains the cache;
        a crash after enough idle time loses nothing."""
        device = tiny_device()
        ppas = seq_ppas(device)
        device.write(ppas, unit_payloads(device))
        device.sim.run()          # let the flusher finish
        device.crash_volatile()
        assert device.chunk_info(ppas[0]).write_pointer == len(ppas)

    def test_write_through_device_needs_no_flush(self):
        device = tiny_device(write_back=False)
        ppas = seq_ppas(device)
        device.write(ppas, unit_payloads(device))
        device.crash_volatile()
        assert device.chunk_info(ppas[0]).write_pointer == len(ppas)


class TestFlushBarrier:
    """The device flush covers the writes admitted to the cache before it
    (an NVMe Flush), and only the named chunks' when scoped."""

    @staticmethod
    def fill_pu(device, group):
        """Process generator: write every chunk of PU (group, 0), unit by
        unit, each write once the previous one is admitted."""
        ws = device.geometry.ws_min
        units = device.geometry.sectors_per_chunk // ws
        for chunk in range(device.geometry.chunks_per_pu):
            for unit in range(units):
                completion = yield from device.submit(VectorWrite(
                    ppas=seq_ppas(device, group=group, chunk=chunk,
                                  start=unit * ws),
                    data=unit_payloads(device)))
                assert completion.ok

    def pending(self, device, group):
        return [key for key, chunk in device.chunks.items()
                if key[0] == group
                and chunk.flushed_pointer < chunk.write_pointer]

    def test_barrier_does_not_wait_for_later_writes(self):
        """A barrier that waited for an idle cache would also wait for
        every write the sustained writer admits after it."""
        device = tiny_device()
        sim = device.sim
        ws = device.geometry.ws_min
        device.write(seq_ppas(device), unit_payloads(device))
        sim.spawn(self.fill_pu(device, 1))
        sim.run_until(sim.spawn(device.flush_proc()))
        assert device.chunks[(0, 0, 0)].flushed_pointer == ws
        assert self.pending(device, 1)   # admitted after: still cached
        device.flush()
        assert not self.pending(device, 1)

    def test_scoped_barrier_skips_other_chunks(self):
        device = tiny_device()
        sim = device.sim
        sim.run_until(sim.spawn(self.fill_pu(device, 1)))  # admitted first
        device.write(seq_ppas(device), unit_payloads(device))
        sim.run_until(sim.spawn(device.flush_proc(chunks=[(0, 0, 0)])))
        assert device.chunks[(0, 0, 0)].flushed_pointer \
            == device.geometry.ws_min
        assert self.pending(device, 1)

    def test_crash_releases_a_waiting_barrier(self):
        device = tiny_device()
        sim = device.sim
        ws = device.geometry.ws_min
        sim.run_until(sim.spawn(self.fill_pu(device, 0)))
        barrier = sim.spawn(device.flush_proc())
        sim.run(until=sim.now + 1e-6)
        assert barrier.is_alive
        device.crash_volatile()
        cut = sim.now
        sim.run_until(barrier)
        assert sim.now == cut
        # The next epoch's barrier waits for exactly its own write.
        key = next(key for key, chunk in device.chunks.items()
                   if key[0] == 0 and chunk.write_pointer < 2 * ws)
        start = device.chunks[key].write_pointer
        device.write(seq_ppas(device, *key, start=start),
                     unit_payloads(device))
        assert device.chunks[key].flushed_pointer == start
        device.flush()
        assert device.chunks[key].flushed_pointer == start + ws
        assert not self.pending(device, 0)

    def test_fua_write_programs_behind_its_chunks_cached_writes(self):
        device = tiny_device()
        sim = device.sim
        ws = device.geometry.ws_min
        sim.spawn(self.fill_pu(device, 1))
        device.write(seq_ppas(device), numbered(device, ws))
        completion = device.write(seq_ppas(device, start=ws),
                                  numbered(device, ws, base=ws), fua=True)
        assert completion.ok
        assert device.chunks[(0, 0, 0)].flushed_pointer == 2 * ws
        assert self.pending(device, 1)   # other chunks' writes not waited
        device.crash_volatile()
        read = device.read(seq_ppas(device, count=2 * ws))
        assert b"".join(read.data) == numbered(device, 2 * ws)

    def test_fua_write_behind_a_write_still_waiting_for_cache(self):
        """With a one-unit cache the FUA write's predecessor on its chunk
        is not queued yet when the FUA write arrives: it waits for the
        queued work that holds the cache, then for the predecessor."""
        device = tiny_device(cache_sectors=tiny_device().geometry.ws_min)
        sim = device.sim
        ws = device.geometry.ws_min
        device.write(seq_ppas(device, pu=1), unit_payloads(device))
        first = sim.spawn(device.submit(VectorWrite(
            ppas=seq_ppas(device), data=numbered(device, ws))))
        fua = sim.spawn(device.submit(VectorWrite(
            ppas=seq_ppas(device, start=ws), data=numbered(device, ws, ws),
            fua=True)))
        assert sim.run_until(fua).ok and sim.run_until(first).ok
        assert device.chunks[(0, 0, 0)].flushed_pointer == 2 * ws
        read = device.read(seq_ppas(device, count=2 * ws))
        assert b"".join(read.data) == numbered(device, 2 * ws)

    def test_fua_write_behind_an_in_flight_fua_write(self):
        """Two FUA writes to one chunk, side by side: the second waits for
        the first one's program, which is no queued job a drain could
        wait for.  The loop that only drained spun forever at one
        simulated instant, so the alarm turns a hang into a failure."""
        device = tiny_device()
        sim = device.sim
        ws = device.geometry.ws_min
        previous = signal.signal(signal.SIGALRM, _hung)
        signal.alarm(10)
        try:
            writes = [sim.spawn(device.submit(VectorWrite(
                ppas=seq_ppas(device, start=start),
                data=numbered(device, ws, start), fua=True)))
                for start in (0, ws)]
            done = []
            for write in writes:
                write.add_callback(done.append)
            assert all(sim.run_until(write).ok for write in writes)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert done == writes                    # in order
        assert device.chunks[(0, 0, 0)].flushed_pointer == 2 * ws
        device.crash_volatile()
        read = device.read(seq_ppas(device, count=2 * ws))
        assert b"".join(read.data) == numbered(device, 2 * ws)


class TestTimingModel:
    def test_write_back_write_is_faster_than_write_through(self):
        wb = tiny_device(write_back=True)
        wt = tiny_device(write_back=False)
        lat_wb = wb.write(seq_ppas(wb), unit_payloads(wb)).latency
        lat_wt = wt.write(seq_ppas(wt), unit_payloads(wt)).latency
        assert lat_wb < lat_wt

    def test_read_slower_than_cached_write(self):
        """The Figure 5 asymmetry: writes complete at cache speed, reads
        must touch the media."""
        device = tiny_device()
        write_lat = device.write(seq_ppas(device),
                                 unit_payloads(device)).latency
        device.flush()
        read_lat = device.read(seq_ppas(device)).latency
        assert read_lat > write_lat

    def test_chunks_on_different_groups_write_in_parallel(self):
        device = tiny_device()
        ws = device.geometry.ws_min

        def one(device, group):
            return device.submit(VectorWrite(
                ppas=seq_ppas(device, group=group),
                data=unit_payloads(device)))

        sim = device.sim
        procs = [sim.spawn(one(device, group)) for group in (0, 1)]
        sim.run_until(sim.all_of(procs))
        both = sim.now
        # Sequential baseline on a fresh device: same two writes, one group.
        device2 = tiny_device()
        start = device2.sim.now
        device2.write(seq_ppas(device2, chunk=0), unit_payloads(device2))
        device2.write(seq_ppas(device2, chunk=1), unit_payloads(device2))
        sequential = device2.sim.now - start
        assert both < sequential

    def test_same_chip_reads_serialize(self):
        """Operations are sequential within a chip (§2.1)."""
        device = tiny_device()
        total = device.geometry.sectors_per_chunk
        device.write(seq_ppas(device, count=total),
                     unit_payloads(device, count=total))
        device.flush()
        single = device.read([Ppa(0, 0, 0, 0)]).latency
        sim = device.sim
        from repro.ocssd import VectorRead
        procs = [sim.spawn(device.submit(VectorRead([Ppa(0, 0, 0, s)])))
                 for s in range(4)]
        start = sim.now
        sim.run_until(sim.all_of(procs))
        elapsed = sim.now - start
        # Four senses on one chip serialize: at least 4x one media sense.
        chip = device.chips[(0, 0)]
        assert elapsed >= 4 * chip.timing.read_latency

    def test_reads_on_different_groups_do_not_interfere(self):
        device = tiny_device()
        for group in (0, 1):
            device.write(seq_ppas(device, group=group),
                         unit_payloads(device))
        device.flush()
        single = device.read([Ppa(0, 0, 0, 0)]).latency
        sim = device.sim
        from repro.ocssd import VectorRead
        procs = [sim.spawn(device.submit(VectorRead([Ppa(g, 0, 0, 1)])))
                 for g in (0, 1)]
        start = sim.now
        sim.run_until(sim.all_of(procs))
        elapsed = sim.now - start
        assert elapsed == pytest.approx(single, rel=0.01)


class TestNotificationsAndWear:
    def test_notifications_drain(self):
        device = tiny_device()
        assert device.pop_notifications() == []


class TestOneStateMachine:
    """A block set's state is its chunk's; the chip keeps timing and wear."""

    def test_a_program_queued_behind_a_failed_one_is_refused(self):
        """Two cached units of one chunk; the block breaks under the
        first.  The chip fails that program and the chunk goes OFFLINE;
        the controller refuses the second before it reaches the chip, and
        reports it the same way: the write-back cache already acked it."""
        device = tiny_device()
        ws, sim = device.geometry.ws_min, device.sim
        writes = [sim.spawn(device.submit(VectorWrite(
            ppas=PpaRun((0, 0, 1), start, ws), data=unit_payloads(device))))
            for start in (0, ws)]
        break_block(device, (0, 0, 1))
        sim.run()
        assert all(write.value.ok for write in writes)
        assert device.controller.stats.program_failures == 2
        notes = device.pop_notifications()
        assert [note.kind for note in notes] == ["write-failed"] * 2
        assert all(note.detail == "program on bad block 1" for note in notes)
        chip = device.chips[(0, 0)]
        assert chip.stats.programs == 0
        # An erase is refused the same way, before the chip counts a cycle.
        target = Ppa(0, 0, 1, 0)
        assert device.reset(target).status is CommandStatus.RESET_FAILED
        assert (chip.stats.erases, chip.erase_counts[1]) == (0, 0)
        assert device.chunk_info(target).state is ChunkState.OFFLINE

    def test_a_factory_bad_chunk_never_reaches_the_chip(self):
        """A chunk OFFLINE before its first command, as a factory-bad
        one is: the controller refuses it and the die never sees it."""
        device = tiny_device()
        device.chunks[(0, 0, 1)].retire()
        target = Ppa(0, 0, 1, 0)
        assert device.chunk_info(target).state is ChunkState.OFFLINE
        assert device.write(seq_ppas(device, chunk=1),
                            unit_payloads(device)).status \
            is CommandStatus.INVALID
        assert device.reset(target).status is CommandStatus.RESET_FAILED
        notes = device.pop_notifications()
        assert [(note.kind, note.detail) for note in notes] == [
            ("reset-failed", "erase of bad block 1")]
        chip = device.chips[(0, 0)]
        assert (chip.stats.programs, chip.stats.erases) == (0, 0)

    @pytest.mark.parametrize("torn", [0.0, 1.0])
    def test_a_chunk_cut_mid_program_takes_writes_to_its_end(self, torn):
        """A cut while a cached unit programs rolls the chunk back to its
        flushed pointer, plus a torn prefix of the unit when one is kept.
        Writes at the rolled-back pointer program and read back, up to the
        chunk's end: no block pointer on the chip was left ahead."""
        device = tiny_device()
        injector = FaultInjector(FaultPlan(torn_unit_prob=torn)).attach(
            device)
        ws = device.geometry.ws_min
        size = device.geometry.sector_size
        chip = device.chips[(0, 0)]
        old = numbered(device, ws)
        assert device.write(PpaRun((0, 0, 0), 0, ws), old).ok
        cut_in(injector, chip.timing.program_time(1) / 2)
        injector.power_cycle()
        paired = chip.geometry.cell.bits_per_cell
        assert chip.stats.programs == paired          # issued, then cut
        assert injector.stats.torn_chunks == int(torn)
        pointer = device.chunk_info(Ppa(0, 0, 0, 0)).write_pointer
        assert 0 < pointer <= ws if torn else pointer == 0
        count = (device.geometry.sectors_per_chunk - pointer) // ws * ws
        new = numbered(device, count, base=100)
        assert device.write(PpaRun((0, 0, 0), pointer, count), new).ok
        device.flush()
        assert chip.stats.programs == paired * (1 + count // ws)
        assert device.chunk_info(Ppa(0, 0, 0, 0)).flushed_pointer \
            == pointer + count
        data = device.read(PpaRun((0, 0, 0), 0, pointer + count))
        assert b"".join(data.data) == old[:pointer * size] + new

    def test_one_block_state_grep_pin(self):
        """The chip keeps no block state, and a chunk's wear is read from
        its die in one place: the chunk descriptor."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        paths = list((src / "repro").rglob("*.py"))
        assert len(paths) > 80

        def users(word):
            return {path.relative_to(src / "repro").as_posix()
                    for path in paths
                    if word in path.read_text(encoding="utf-8")}

        assert users("BlockState") == set()
        assert users("sectors_programmed") == set()
        assert users("wear_index") == {"ocssd/device.py"}


class TestControllerStats:
    def test_sector_counters(self):
        device = tiny_device()
        ws = device.geometry.ws_min
        device.write(seq_ppas(device), unit_payloads(device))
        device.read(seq_ppas(device))
        stats = device.controller.stats
        assert stats.sectors_written == ws
        assert stats.sectors_read == ws
        # Unflushed data is served from the cache.
        assert stats.sectors_read_from_cache == ws
