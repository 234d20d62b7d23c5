"""Tests for the OX-ZNS FTL: zone state machine, append/read/reset, open
zone limits, and the chunks a zone takes from the pool while it is not
EMPTY."""

import pytest

from repro.errors import ZoneError
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD, Ppa
from repro.ox import MediaManager
from repro.ox.media import census_problems
from repro.zns import OXZns, Zone, ZoneState, ZnsConfig


def make_zns(groups=2, pus=2, chunks=8, pages=6, **config):
    geometry = DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    return device, OXZns(media, ZnsConfig(**config) if config else None)


def open_all(zns):
    """Open every zone explicitly (the budget must hold them all)."""
    sim = zns.sim
    return [sim.run_until(sim.spawn(zns.open_zone_proc()))
            for __ in zns.zones]


def problems(zns):
    return list(census_problems(zns.media, zns.pool.keys, zns.census()))


SS = 4096


class TestZoneStateMachine:
    def test_initial_state(self):
        zone = Zone(zone_id=0, capacity=100)
        assert zone.state is ZoneState.EMPTY
        assert zone.write_pointer == 0

    def test_append_transitions(self):
        zone = Zone(zone_id=0, capacity=10)
        zone.check_append(4)
        zone.advance(4)
        assert zone.state is ZoneState.OPEN
        zone.advance(6)
        assert zone.state is ZoneState.FULL
        with pytest.raises(ZoneError):
            zone.check_append(1)

    def test_read_bounds(self):
        zone = Zone(zone_id=0, capacity=10)
        zone.advance(4)
        zone.check_read(0, 4)
        with pytest.raises(ZoneError):
            zone.check_read(2, 4)

    def test_reset(self):
        zone = Zone(zone_id=0, capacity=10)
        zone.advance(10)
        zone.reset()
        assert zone.state is ZoneState.EMPTY
        assert zone.write_pointer == 0


class TestZnsDevice:
    def test_zone_carving_covers_device(self):
        """An EMPTY zone holds no chunk; with every zone open, the zones
        hold every chunk of the device once, each in its one group."""
        device, zns = make_zns(max_open_zones=8)
        assert all(not zone.chunks for zone in zns.zones)
        assert open_all(zns) == list(range(zns.num_zones))
        owned = [key for zone in zns.zones for key in zone.chunks]
        assert len(set(owned)) == len(owned) \
            == device.report_geometry().total_chunks
        assert all({key[0] for key in zone.chunks} == {zone.group}
                   for zone in zns.zones)
        assert zns.pool.free_count() == 0 and problems(zns) == []

    @pytest.mark.parametrize("groups", [2, 4])
    def test_zone_ids_rotate_groups(self, groups):
        """Zone *i* sits in group ``i % num_groups``: a host that takes ids
        in order opens its zones on every channel, not on one group."""
        __, zns = make_zns(groups=groups, chunks_per_zone=2,
                           max_open_zones=32)
        assert [zone.group for zone in zns.zones] \
            == [zone_id % groups for zone_id in range(zns.num_zones)]
        open_all(zns)
        assert len({zone.chunks[0][0] for zone in zns.zones[:groups]}) \
            == groups
        for zone in zns.zones:
            assert {chunk[0] for chunk in zone.chunks} \
                == {zone.zone_id % groups}

    def test_zone_chunks_on_distinct_pus(self):
        """A zone takes its chunks round robin over its group's PUs, from
        the first."""
        __, zns = make_zns(pus=4, chunks=8, chunks_per_zone=4,
                           max_open_zones=16)
        open_all(zns)
        for zone in zns.zones:
            assert [key[:2] for key in zone.chunks] \
                == [(zone.group, pu) for pu in range(4)]

    def test_append_read_roundtrip(self):
        __, zns = make_zns()
        data = b"A" * SS * 3
        lba = zns.append(0, data)
        assert lba == 0
        assert zns.read(lba, 3) == data

    def test_appends_are_sequential(self):
        __, zns = make_zns()
        first = zns.append(0, b"1" * SS)
        second = zns.append(0, b"2" * SS)
        assert second > first
        assert zns.read(second, 1) == b"2" * SS

    def test_append_is_padded_transparently(self):
        """The host writes sector-aligned data; ws_min never shows."""
        device, zns = make_zns()
        ws_min = device.report_geometry().ws_min
        lba = zns.append(0, b"x" * SS)      # far below ws_min
        assert zns.read(lba, 1) == b"x" * SS
        zone = zns.zone(0)
        assert zone.write_pointer % ws_min == 0

    def test_read_beyond_pointer_rejected(self):
        __, zns = make_zns()
        zns.append(0, b"x" * SS)
        with pytest.raises(ZoneError):
            zns.read(5 * SS, 1)

    def test_full_zone_rejects_append(self):
        __, zns = make_zns(chunks_per_zone=1)
        zone = zns.zone(0)
        zns.append(0, b"f" * SS * zone.capacity)
        assert zone.state is ZoneState.FULL
        with pytest.raises(ZoneError):
            zns.append(0, b"x" * SS)

    def test_reset_zone_erases_and_reopens(self):
        """A reset erases the zone's chunk and gives it back to the pool:
        the zone is EMPTY with no chunk, and reopens at its start."""
        device, zns = make_zns(chunks_per_zone=1)
        zone = zns.zone(0)
        zns.append(0, b"f" * SS * zone.capacity)
        [key] = zone.chunks
        zns.reset_zone(0)
        assert zone.state is ZoneState.EMPTY and zone.chunks == []
        assert device.chunk_info(Ppa(*key, 0)).wear_index == 1
        assert key in zns.pool.free[key[:2]]
        assert zns.stats.zone_resets == 1 and problems(zns) == []
        assert zns.append(0, b"n" * SS) == zone.start_lba

    def test_finish_zone_closes_early(self):
        __, zns = make_zns()
        zns.append(0, b"x" * SS)
        zns.finish_zone(0)
        assert zns.zone(0).state is ZoneState.FULL
        with pytest.raises(ZoneError):
            zns.append(0, b"y" * SS)

    def test_open_zone_limit(self):
        __, zns = make_zns(chunks_per_zone=1, max_open_zones=2)
        zns.append(0, b"a" * SS)
        zns.append(1, b"b" * SS)
        with pytest.raises(ZoneError):
            zns.append(2, b"c" * SS)
        # Filling one zone frees an open slot.
        zone = zns.zone(0)
        zns.append(0, b"a" * SS * zone.remaining)
        zns.append(2, b"c" * SS)

    def test_explicit_and_implicit_opens_share_one_budget(self):
        """An explicit open takes a unit of the same budget an append's
        implicit open does; a finish or a reset gives it back."""
        device, zns = make_zns(chunks_per_zone=1, max_open_zones=2)
        sim = device.sim

        def open_zone(wait=False, avoid=()):
            return sim.spawn(zns.open_zone_proc(avoid, wait))

        zns.append(0, b"a" * SS)                        # implicit: unit 1
        # The first EMPTY zone, by id, outside the avoided groups.
        assert sim.run_until(open_zone(avoid={1})) == 2  # explicit: unit 2
        assert zns.zone(2).state is ZoneState.OPEN
        assert zns.open_budget.in_use == 2
        with pytest.raises(ZoneError, match="too many open zones"):
            zns.append(1, b"b" * SS)
        assert sim.run_until(open_zone()) is None
        waiting = open_zone(wait=True)
        sim.run(until=sim.now + 0.01)
        assert waiting.is_alive
        zns.finish_zone(0)
        assert sim.run_until(waiting) == 1
        # Opened, never written: the reset makes it EMPTY at once, gives
        # its unit back and erases nothing.
        zns.reset_zone(2)
        assert zns.zone(2).state is ZoneState.EMPTY
        assert zns.open_budget.in_use == 1
        assert zns.stats.zone_resets == 0
        assert sim.run_until(open_zone(wait=True)) == 2

    def test_failed_append_gives_back_its_open_slot(self):
        """An append whose write fails leaves its EMPTY zone EMPTY: the
        open slot it took for that zone is handed back, or two failures
        used to lock every fresh zone out for good."""
        from repro.errors import MediaError
        from repro.faults import FaultInjector, FaultPlan
        geometry = DeviceGeometry(
            num_groups=2, pus_per_group=2,
            flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6))
        device = OpenChannelSSD(geometry=geometry, write_back=False)
        zns = OXZns(MediaManager(device),
                    ZnsConfig(chunks_per_zone=1, max_open_zones=2))
        injector = FaultInjector(
            FaultPlan(program_fail_prob=1.0)).attach(device)
        for zone_id in (0, 1):
            with pytest.raises(MediaError):
                zns.append(zone_id, b"x" * SS)
            assert zns.zone(zone_id).state is ZoneState.EMPTY
            assert zns.zone(zone_id).chunks == []
        assert zns.open_budget.in_use == 0
        # Each failed program left its chunk bad: given back, it was
        # retired alone.
        assert zns.stats.chunks_retired == 2 and problems(zns) == []
        injector.detach()
        assert zns.append(2, b"y" * SS) == zns.zone(2).start_lba
        assert zns.read(zns.zone(2).start_lba, 1) == b"y" * SS

    def test_a_short_group_is_skipped(self):
        """Once retirements leave a group with fewer free chunks than a
        zone takes, an explicit open skips that group's EMPTY zones and
        an append to one of them raises, keeping its unit."""
        from repro.faults import FaultInjector, FaultPlan
        device, zns = make_zns(chunks=2, chunks_per_zone=2)
        assert [zone.group for zone in zns.zones] == [0, 1, 0, 1]
        zns.append(0, b"f" * SS * zns.zone_capacity)
        FaultInjector(FaultPlan(
            grown_bad=[[*zns.zone(0).chunks[0], 1]])).attach(device)
        zns.reset_zone(0)
        assert zns.stats.chunks_retired == 1
        zns.append(2, b"a" * SS)            # group 0: one chunk left
        assert zns.pool.group_free(0) == 1
        sim = device.sim
        assert sim.run_until(sim.spawn(zns.open_zone_proc())) == 1
        assert zns.open_budget.in_use == 2
        with pytest.raises(ZoneError, match="fewer than 2 free chunks"):
            zns.append(0, b"x" * SS)
        assert zns.zone(0).state is ZoneState.EMPTY
        assert zns.open_budget.in_use == 2 and problems(zns) == []
        assert sim.run_until(sim.spawn(zns.open_zone_proc())) == 3

    def test_large_append_spans_chunks(self):
        device, zns = make_zns(chunks_per_zone=2)
        geometry = device.report_geometry()
        sectors = geometry.sectors_per_chunk + geometry.ws_min
        data = bytes([7]) * (SS * sectors)
        lba = zns.append(0, data)
        assert zns.read(lba, sectors) == data

    def test_misaligned_append_rejected(self):
        __, zns = make_zns()
        with pytest.raises(ZoneError):
            zns.append(0, b"tiny")


class TestFinishZone:
    """Regressions for finish_zone: the proc body used to be unreachable
    (the generator returned before its first yield was ever driven), and
    an EMPTY finish must not touch the open-zone accounting."""

    def test_finish_open_zone_frees_an_open_slot(self):
        __, zns = make_zns(chunks_per_zone=1, max_open_zones=1)
        zns.append(0, b"a" * SS)
        with pytest.raises(ZoneError):
            zns.append(1, b"b" * SS)
        zns.finish_zone(0)
        assert zns.zone(0).state is ZoneState.FULL
        zns.append(1, b"b" * SS)   # the slot is free again

    def test_finish_empty_zone_does_not_free_a_slot(self):
        """Finishing a never-opened zone went EMPTY -> FULL without ever
        holding an open slot; decrementing the open count for it would
        let the limit be exceeded."""
        __, zns = make_zns(chunks_per_zone=1, max_open_zones=1)
        zns.append(0, b"a" * SS)           # occupies the only slot
        zns.finish_zone(1)                  # EMPTY, was never open
        assert zns.zone(1).state is ZoneState.FULL
        with pytest.raises(ZoneError):
            zns.append(2, b"c" * SS)        # zone 0 still holds the slot

    def test_finish_is_effective_and_durable(self):
        __, zns = make_zns()
        zns.append(0, b"x" * SS * 2)
        before = zns.zone(0).write_pointer
        zns.finish_zone(0)
        zone = zns.zone(0)
        assert zone.state is ZoneState.FULL
        assert zone.write_pointer == before   # finish pads nothing visible
        assert zns.read(zone.start_lba, 2) == b"x" * SS * 2
        with pytest.raises(ZoneError):
            zns.append(0, b"y" * SS)
        assert zns.stats.zones_finished == 1

    def test_finish_full_zone_is_a_noop(self):
        __, zns = make_zns(chunks_per_zone=1)
        zone = zns.zone(0)
        zns.append(0, b"f" * SS * zone.capacity)
        assert zone.state is ZoneState.FULL
        zns.finish_zone(0)
        assert zns.stats.zones_finished == 0

    def test_finished_zone_survives_a_cut_beside_cached_appends(self):
        """A finish covers its own zone's chunks and nothing admitted
        after it: zone 2 shares zone 0's PUs and keeps appending; a cut
        right after zone 0's finish keeps zone 0 and loses zone 2's
        cached tail."""
        device, zns = make_zns(pages=24)
        sim, ws = device.sim, device.geometry.ws_min
        a, b = zns.zone(0), zns.zone(2)
        stop = []

        def append_b():
            while not stop and b.remaining >= ws:
                yield from zns.append_proc(2, b"b" * SS * ws)

        def finish_a():
            yield from zns.append_proc(0, b"a" * SS * 2)
            yield from zns.finish_zone_proc(0)

        writing = sim.spawn(append_b())
        sim.run_until(sim.spawn(finish_a()))
        assert {key[:2] for key in a.chunks} == {key[:2] for key in b.chunks}
        stop.append(True)
        sim.run_until(writing)
        device.crash_volatile()
        assert zns.read(a.start_lba, 2) == b"a" * SS * 2
        durable = sum(device.chunk_info(Ppa(*key, 0)).write_pointer
                      for key in b.chunks)
        assert durable < b.write_pointer
