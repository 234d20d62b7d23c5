"""OX-ELEOS page layout inside a run: each page touches as few sense
groups (``FlashGeometry.read_unit_sectors``: a page on every plane, one
tR) as its size allows, in the same sectors back-to-back packing takes."""

import random

import pytest

from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import EleosConfig, MediaManager, OXEleos
from repro.units import MIB

CONFIG = EleosConfig(buffer_bytes=1 * MIB, ckpt_chunks_per_slot=2)


def make_ftl(groups=1, pus=1):
    device = OpenChannelSSD(geometry=DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=16, pages_per_block=12)))
    media = MediaManager(device)
    return device, media, OXEleos.format(media, CONFIG)


def group_bytes(ftl) -> int:
    flash = ftl.geometry.flash
    return flash.read_unit_sectors * flash.sector_size


def senses(device) -> int:
    return sum(chip.stats.reads for chip in device.chips.values())


def senses_of_read(device, ftl, page_id) -> int:
    before = senses(device)
    ftl.read_page(page_id)
    return senses(device) - before


def position(ftl, page_id) -> int:
    """The page's byte address, from the start of the device."""
    entry = ftl.vmap[page_id]
    return entry.first_sector * ftl.geometry.sector_size + entry.offset


def groups_touched(ftl, page_id) -> int:
    group = group_bytes(ftl)
    start = position(ftl, page_id)
    return (start + ftl.vmap[page_id].length - 1) // group - start // group + 1


def test_the_sense_unit_is_a_page_on_every_plane():
    flash = FlashGeometry(planes=4, sectors_per_page=2)
    assert flash.read_unit_sectors == 8
    assert FlashGeometry().read_unit_sectors == 8


@pytest.mark.parametrize("sizes", [
    [20_000, 20_000, 20_000],             # back to back, the 2nd straddles
    [30_000, 5_000, 25_000, 7_000],
    [20_000] * 3 + [12_000] * 3,          # in order, moving the 2nd would
                                          # push the last out: pair them
    [9_000] * 7,
])
def test_with_slack_every_page_reads_with_one_sense(sizes):
    device, __, ftl = make_ftl()
    ftl.append_buffer([(pid, bytes([pid]) * size)
                       for pid, size in enumerate(sizes)])
    for pid, size in enumerate(sizes):
        assert senses_of_read(device, ftl, pid) == 1, (pid, size)


def test_random_small_pages_with_a_quarter_of_slack_read_with_one_sense():
    """First-fit-decreasing fits every page no larger than a quarter of
    a group whenever the pages fill at most three quarters of the run."""
    device, __, ftl = make_ftl()
    group = group_bytes(ftl)
    unit = ftl.geometry.ws_min * ftl.geometry.sector_size
    rng = random.Random(48)
    pid = 0
    for __ in range(20):
        sizes = []
        while sum(sizes) < unit // 2:
            sizes.append(rng.randint(1, group // 4))
        pages = [(pid + i, bytes([i % 251]) * size)
                 for i, size in enumerate(sizes)]
        ftl.append_buffer(pages)
        for page_id, payload in pages:
            assert senses_of_read(device, ftl, page_id) == 1
            assert ftl.read_page(page_id) == payload
        pid += len(pages)


def test_a_page_larger_than_a_group_touches_as_few_as_its_size_needs():
    """Back to back, the 40 000-byte page would start at 30 000 and touch
    three groups; placed, it touches two and the small one a third."""
    device, __, ftl = make_ftl()
    group = group_bytes(ftl)
    ftl.append_buffer([(1, b"s" * 30_000), (2, b"L" * 40_000)])
    assert groups_touched(ftl, 2) == -(-40_000 // group) == 2
    assert senses_of_read(device, ftl, 2) == 2
    assert senses_of_read(device, ftl, 1) == 1
    assert ftl.read_page(2) == b"L" * 40_000


def test_pages_that_do_not_fit_the_groups_go_in_order_moved_where_room_is():
    """Four 20 000-byte pages in a 3-group unit: no packing gives each a
    group, so they go in order.  The second moves up to the next group
    boundary (the rest still fits behind it); the third cannot move
    without pushing the last out of the run, so it straddles."""
    device, __, ftl = make_ftl()
    group = group_bytes(ftl)
    ftl.append_buffer([(pid, bytes([pid]) * 20_000) for pid in range(4)])
    base = position(ftl, 0)
    assert base % group == 0
    assert [position(ftl, pid) - base for pid in range(4)] \
        == [0, group, group + 20_000, group + 40_000]
    assert [senses_of_read(device, ftl, pid) for pid in range(4)] \
        == [1, 1, 2, 1]


@pytest.mark.parametrize("seed", range(4))
def test_an_append_programs_the_sectors_back_to_back_packing_would(seed):
    """Placement moves pages inside a run's padding, never past it: each
    run is as many whole units as its pages' bytes back to back, and
    the device programs exactly those sectors."""
    device, __, ftl = make_ftl(groups=2, pus=2)
    unit = ftl.geometry.ws_min * ftl.geometry.sector_size
    rng = random.Random(seed)
    for round_ in range(6):
        sizes = [rng.randint(1, 50_000) for __ in range(rng.randint(1, 12))]
        runs = ftl._plan(sizes)[0]
        for __, __, sectors, start, end, offsets in runs:
            assert sectors == -(-sum(sizes[start:end]) // unit) \
                * ftl.geometry.ws_min
            assert max(map(sum, zip(offsets, sizes[start:end]))) \
                <= sectors * ftl.geometry.sector_size
        before = device.controller.stats.sectors_written
        pages = [(100 * round_ + i, bytes([i]) * size)
                 for i, size in enumerate(sizes)]
        ftl.append_buffer(pages)
        assert device.controller.stats.sectors_written - before \
            == sum(run[2] for run in runs)
        for page_id, payload in pages:
            assert ftl.read_page(page_id) == payload


def test_recovery_maps_each_page_at_its_placed_offset():
    """A power cut after an append whose placement moved pages: the
    stamps' rows carry the placed offsets, so recovery maps every page
    where it was written, and it reads back byte for byte."""
    device, media, ftl = make_ftl()
    pages = [(pid, bytes([65 + pid]) * size) for pid, size
             in enumerate([20_000, 20_000, 20_000, 30_000, 40_000])]
    ftl.append_buffer(pages)
    placed = {pid: vars(entry) for pid, entry in ftl.vmap.items()}
    assert all(groups_touched(ftl, pid) == -(-len(payload)
                                             // group_bytes(ftl))
               for pid, payload in pages)
    ftl.crash()
    recovered, __ = OXEleos.recover(media, CONFIG)
    assert {pid: vars(entry) for pid, entry in recovered.vmap.items()} \
        == placed
    for page_id, payload in pages:
        assert recovered.read_page(page_id) == payload


def test_a_page_across_a_unit_boundary_at_a_nonzero_offset_reads_exact():
    """The page's covering sectors come back as one view per write unit
    (the slab store's pieces); each is cut to the page's bytes."""
    __, __, ftl = make_ftl()
    ws_min, sector = ftl.geometry.ws_min, ftl.geometry.sector_size
    big, crossing = b"a" * 70_000, bytes(range(256)) * 234 + b"tail"
    ftl.append_buffer([(1, big), (2, crossing)])
    entry = ftl.vmap[2]
    last = entry.first_sector + (entry.offset + entry.length - 1) // sector
    assert entry.offset and entry.first_sector // ws_min != last // ws_min
    assert ftl.read_page(2) == crossing
    assert ftl.read_page(1) == big
