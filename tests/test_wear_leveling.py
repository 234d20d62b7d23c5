"""Wear distribution under sustained overwrite + GC churn.

The provisioner recycles chunks through per-PU FIFO free lists, which
gives natural rotation: under a steady overwrite workload no chunk should
accumulate disproportionate erase cycles relative to its peers on the
same parallel unit.
"""

import statistics

from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD, Ppa
from repro.ox import BlockConfig, MediaManager, OXBlock

SS = 4096


def test_gc_spreads_erases_across_chunks():
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=10, pages_per_block=6))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    config = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1,
                         gc_low_watermark=8, gc_high_watermark=12,
                         wal_pressure_threshold=0.9)
    ftl = OXBlock.format(media, config)
    ws = geometry.ws_min

    # Overwrite a small working set many times: every round invalidates
    # the previous one, so GC recycles constantly.
    for round_ in range(120):
        for slot in range(4):
            ftl.write(slot * ws, bytes([1 + round_ % 250]) * SS * ws)
    device.sim.run()
    assert ftl.gc.stats.chunks_recycled > 20

    # Erase counts of the *data* chunks on each PU should be spread, not
    # concentrated: max no more than the mean plus a small band.
    metadata = ftl.layout.metadata_chunk_keys()
    for pu_key, chip in device.chips.items():
        counts = [count
                  for index, count in enumerate(chip.erase_counts)
                  if (pu_key[0], pu_key[1], index) not in metadata]
        if sum(counts) == 0:
            continue
        mean = statistics.mean(counts)
        assert max(counts) <= mean + max(4, 2 * mean), (
            f"hot chunk on {pu_key}: {counts}")

    # Data remains correct throughout.
    for slot in range(4):
        assert ftl.read(slot * ws, 1) == bytes([1 + 119 % 250]) * SS


def test_wear_index_visible_through_chunk_info():
    geometry = DeviceGeometry(
        num_groups=1, pus_per_group=1,
        flash=FlashGeometry(blocks_per_plane=4, pages_per_block=6))
    device = OpenChannelSSD(geometry=geometry)
    ws = geometry.ws_min
    target = Ppa(0, 0, 2, 0)
    for cycle in range(3):
        assert device.write([target.with_sector(i) for i in range(ws)],
                            b"w").ok
        device.flush()
        device.reset(target)
    assert device.chunk_info(target).wear_index == 3
