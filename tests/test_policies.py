"""OX-Block's greedy GC victim choice, live; the write-less cache host
(repro.policies); the StackSpec wiring of both; GC observability."""

import random

import pytest

from repro.errors import ReproError
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import BlockConfig, MediaManager, OXBlock
from repro.policies import WlfcConfig, WriteLessCache
from repro.stack import StackSpec, build_stack
from repro.stack.runner import run_spec

SS = 4096


def make_stack(groups=2, pus=2, chunks=16, pages=12, config=None):
    geometry = DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    config = config or BlockConfig(wal_chunk_count=4, ckpt_chunks_per_slot=2)
    return device, media, OXBlock.format(media, config), config


def _invalidate(ftl, span_units, unit, pattern, ops, seed=7):
    """Overwrite *ops* unit-sized writes over the filled span."""
    payload = bytes(unit * SS)
    if pattern == "uniform":
        rng = random.Random(seed)
        picks = [rng.randrange(span_units) for __ in range(ops)]
    elif pattern == "zipf":
        from repro.workloads import ZipfianKeyChooser
        picks = ZipfianKeyChooser(span_units, theta=0.99,
                                  seed=seed).sample(ops)
    else:   # sequential overwrite of the first quarter
        hot = max(1, span_units // 4)
        picks = [index % hot for index in range(ops)]
    for pick in picks:
        ftl.write(pick * unit, payload)


def _collect_one(pattern):
    """Fill + invalidate with GC off, then collect exactly one victim;
    returns (its valid count, the fewest valid among the candidates,
    sectors relocated)."""
    config = BlockConfig(wal_chunk_count=4, ckpt_chunks_per_slot=2,
                         gc_enabled=False)
    device, __m, ftl, __c = make_stack(config=config)
    geometry = device.geometry
    unit = geometry.ws_min
    span_units = (ftl.provisioner.free_chunks()
                  * geometry.sectors_per_chunk) // (2 * unit)
    payload = bytes(unit * SS)
    for index in range(span_units):
        ftl.write(index * unit, payload)
    _invalidate(ftl, span_units, unit, pattern, ops=40)
    ftl.flush()
    device.sim.run()
    group = ftl.gc.marked_group
    first_valid = ftl.gc.victims(group)[0].valid_count
    fewest = min(info.valid_count
                 for info in ftl.chunk_table.gc_candidates(group))
    recycled = device.sim.run_until(device.sim.spawn(
        ftl.gc.collect_group_locked_proc(group, max_victims=1)))
    assert recycled == 1
    return first_valid, fewest, ftl.gc.stats.sectors_relocated


class TestVictimPoliciesLive:
    @pytest.mark.parametrize("pattern", ["uniform", "zipf", "sequential"])
    def test_greedy_minimizes_relocation_per_decision(self, pattern):
        first_valid, fewest, relocated = _collect_one(pattern)
        # The victim is the cheapest candidate, and one collection
        # relocates exactly its live sectors.
        assert first_valid == fewest
        assert relocated == first_valid


class TestWriteLessCache:
    def _cache(self, cache_sectors=8, evict_to_fraction=0.5):
        device, __m, ftl, __c = make_stack()
        cache = WriteLessCache(ftl, WlfcConfig(
            cache_sectors=cache_sectors,
            evict_to_fraction=evict_to_fraction))
        return device, ftl, cache

    def test_config_validation(self):
        with pytest.raises(ReproError):
            WlfcConfig(cache_sectors=0).validate()
        with pytest.raises(ReproError):
            WlfcConfig(evict_to_fraction=1.0).validate()
        with pytest.raises(ReproError):
            WriteLessCache(object(), WlfcConfig(cache_sectors=-1))

    @pytest.mark.parametrize("lba, count", [(-24, 1), (10**9, 1), (5, 0)],
                             ids=["-24", "1000000000", "no sectors"])
    def test_out_of_range_is_refused_on_entry(self, lba, count):
        """At d55e796 ``write(-24, …)`` was acknowledged and staged, and
        surfaced as ``struct.error`` only at flush or eviction; at 8a545bf
        ``read(5, 0)`` returned ``b""`` and ``trim(5, 0)`` reached the
        FTL."""
        __, ftl, cache = self._cache(cache_sectors=64)
        cache.write(0, b"a" * SS)
        calls = [lambda: cache.read(lba, count),
                 lambda: cache.trim(lba, count)]
        if count > 0:
            calls.append(lambda: cache.write(lba, b"x" * (count * SS)))
        for call in calls:
            with pytest.raises(ReproError) as raised:
                call()
            message = str(raised.value)
            assert (f"lba {lba}" in message and f"{count} sector" in message
                    and str(ftl.capacity_sectors) in message)
        last = ftl.capacity_sectors - 1
        with pytest.raises(ReproError, match=f"2 sector.*lba {last}"):
            cache.write(last, b"x" * (2 * SS))
        assert list(cache._dirty) == [0]
        assert cache.stats.host_sectors_written == 1
        assert ftl.stats.writes == ftl.stats.reads == ftl.stats.trims == 0
        cache.flush()
        assert ftl.read(0, 1) == b"a" * SS

    def test_readback_through_cache(self):
        __, ftl, cache = self._cache(cache_sectors=64)
        cache.write(0, b"a" * SS + b"b" * SS)
        assert cache.read(0, 1) == b"a" * SS
        assert cache.read(0, 2) == b"a" * SS + b"b" * SS
        assert cache.stats.read_hits == 3

    def test_read_mixes_staged_and_flash_sectors(self):
        device, ftl, cache = self._cache(cache_sectors=64)
        ftl.write(0, b"f" * (4 * SS))    # on flash, behind the cache
        cache.write(1, b"c" * SS)        # staged over the middle
        assert cache.read(0, 4) == (b"f" * SS + b"c" * SS + b"f" * (2 * SS))
        assert cache.stats.read_hits == 1
        assert cache.stats.read_misses == 3

    def test_absorbs_rewrites_before_flash(self):
        __, ftl, cache = self._cache(cache_sectors=64)
        for round_ in range(10):
            cache.write(5, bytes([round_]) * SS)
        cache.flush()
        assert cache.stats.absorbed_rewrites == 9
        assert cache.stats.host_sectors_written == 10
        assert cache.stats.flash_sectors_written == 1
        assert cache.stats.write_reduction == 0.9
        assert cache.read(5, 1) == bytes([9]) * SS

    def test_flush_makes_data_visible_to_bare_ftl(self):
        device, ftl, cache = self._cache(cache_sectors=64)
        cache.write(3, b"x" * SS)
        cache.flush()
        device.sim.run()
        assert ftl.read(3, 1) == b"x" * SS

    def test_eviction_bounds_the_stage(self):
        __, ftl, cache = self._cache(cache_sectors=8,
                                     evict_to_fraction=0.5)
        for lba in range(32):
            cache.write(lba, bytes([lba]) * SS)
        assert cache.stats.evictions >= 1
        assert len(cache._dirty) <= 8
        for lba in range(32):
            assert cache.read(lba, 1) == bytes([lba]) * SS

    def test_eviction_coalesces_contiguous_runs(self):
        __, ftl, cache = self._cache(cache_sectors=64)
        for lba in range(24):
            cache.write(lba, bytes([lba]) * SS)
        writes_before = ftl.stats.writes
        cache.flush()
        # 24 contiguous staged sectors -> one FTL transaction.
        assert ftl.stats.writes == writes_before + 1

    def test_trim_drops_staged_sectors(self):
        device, ftl, cache = self._cache(cache_sectors=64)
        cache.write(7, b"y" * SS)
        cache.trim(7, 1)
        cache.flush()
        device.sim.run()
        assert cache.stats.flash_sectors_written == 0
        assert ftl.read(7, 1) == b"\x00" * SS

    def test_rejects_partial_sectors(self):
        __, ftl, cache = self._cache()
        with pytest.raises(ReproError):
            cache.write(0, b"short")
        with pytest.raises(ReproError):
            cache.write(0, b"")


class TestStackSpecWiring:
    def test_unknown_policy_names_rejected_with_menu(self):
        # gc_policy's menu is greedy alone; any other order and the
        # placement field are refused, each naming the field.
        for name in ("fifo", "lifo"):
            with pytest.raises(ReproError) as excinfo:
                StackSpec(ftl="oxblock", gc_policy=name).validate()
            message = str(excinfo.value)
            assert "gc_policy" in message and "('greedy',)" in message
        with pytest.raises(ReproError, match="placement_policy"):
            StackSpec.from_dict({"ftl": "oxblock",
                                 "placement_policy": "striped"})
        for key in ("gc_policy", "placement_policy"):
            with pytest.raises(ReproError, match=f"ftl_config.*{key}"):
                StackSpec(ftl="oxblock",
                          ftl_config={key: "greedy"}).validate()

    def test_policies_require_oxblock(self):
        with pytest.raises(ReproError):
            StackSpec(ftl="lightlsm", gc_policy="lifo").validate()
        with pytest.raises(ReproError):
            StackSpec(ftl="eleos", host="wlfc").validate()
        # The field's default names what the other FTLs leave unused.
        StackSpec(ftl="lightlsm", gc_policy="greedy").validate()

    def test_one_name_per_policy(self):
        # "default" used to alias greedy in the victim menu.
        assert StackSpec().gc_policy == "greedy"
        with pytest.raises(ReproError, match="default"):
            StackSpec(ftl="oxblock", gc_policy="default").validate()

    def test_spec_round_trips_policy_fields(self):
        spec = StackSpec(ftl="oxblock", gc_policy="greedy", host="wlfc",
                         wlfc={"cache_sectors": 128})
        clone = StackSpec.from_dict(spec.to_dict())
        assert clone.gc_policy == "greedy"
        assert clone.wlfc == {"cache_sectors": 128}

    def test_build_wires_gc_policy(self):
        # OX-Block's config is ftl_config alone: gc_policy adds nothing.
        stack = build_stack(StackSpec(
            ftl="oxblock", gc_policy="greedy", host="none",
            ftl_config={"gc_low_watermark": 3}))
        assert stack.ftl.config == BlockConfig(gc_low_watermark=3)

    def test_build_wires_wlfc_host(self):
        stack = build_stack(StackSpec(
            ftl="oxblock", host="wlfc", wlfc={"cache_sectors": 32}))
        assert stack.wlfc is not None
        assert stack.wlfc.config.cache_sectors == 32
        assert stack.wlfc.ftl is stack.ftl

    def test_runner_drives_wlfc_and_reports_stats(self):
        metrics = run_spec(StackSpec(
            ftl="oxblock", host="wlfc", wlfc={"cache_sectors": 64},
            workload={"kind": "raw_fill_read", "fill_ops": 20,
                      "read_ops": 30}))
        assert metrics["wlfc_host_sectors"] > 0
        assert metrics["wlfc_flash_sectors"] <= metrics["wlfc_host_sectors"]
        assert "wlfc_write_reduction" in metrics


class TestObservability:
    def _gc_heavy_stack(self, obs=True):
        spec = StackSpec(
            name="obs_gc",
            geometry={"num_groups": 2, "pus_per_group": 2,
                      "chunks_per_pu": 8, "pages_per_block": 6},
            ftl="oxblock", host="none", obs=obs,
            ftl_config={"wal_chunk_count": 2, "ckpt_chunks_per_slot": 1,
                        "gc_low_watermark": 6, "gc_high_watermark": 12})
        return build_stack(spec)

    def _drive_uniform_overwrites(self, stack, ops=150):
        """Half-fill, then uniform unit overwrites: victims keep some
        live sectors, so GC actually relocates (WAF > 1)."""
        ftl = stack.ftl
        geometry = stack.device.geometry
        unit = geometry.ws_min
        span_units = (ftl.provisioner.free_chunks()
                      * geometry.sectors_per_chunk) // (2 * unit)
        payload = bytes(unit * SS)
        for index in range(span_units):
            ftl.write(index * unit, payload)
        rng = random.Random(3)
        for __ in range(ops):
            ftl.write(rng.randrange(span_units) * unit, payload)
        ftl.flush()
        stack.sim.run()

    def test_waf_gauge_tracks_relocation_accounting(self):
        stack = self._gc_heavy_stack()
        ftl = stack.ftl
        self._drive_uniform_overwrites(stack)
        assert ftl.gc.stats.sectors_relocated > 0
        assert ftl.gc.stats.chunks_recycled > 0
        # WAF is a ratio of stats: (host + relocated) / host sectors.
        host = ftl.stats.sectors_written
        waf = (host + ftl.gc.stats.sectors_relocated) / host
        assert waf > 1.0

    def test_stats_hold_the_counts_with_or_without_obs(self):
        """Each count has one home, its layer's stats: attaching a hub
        moves none of them, and a media histogram's count is the number
        of operations the chips counted."""
        counts = []
        for obs in (True, False):
            stack = self._gc_heavy_stack(obs=obs)
            self._drive_uniform_overwrites(stack)
            chips = list(stack.device.chips.values())
            counts.append((stack.device.controller.stats, stack.ftl.stats,
                           stack.ftl.gc.stats,
                           [chip.stats for chip in chips]))
            if obs:
                erases = stack.obs.metrics.histogram("nand.erase.media_s")
                assert erases.count == sum(chip.stats.erases
                                           for chip in chips) > 0
        assert counts[0] == counts[1]

    def test_foreground_stall_histogram_records_sim_time(self):
        # gc_low_watermark=0 keeps the background daemon dormant, so a
        # hammering workload must reclaim space on the write path — and
        # every stall sample is simulated seconds (deterministic across
        # machines).
        spec = StackSpec(
            name="obs_stall",
            geometry={"num_groups": 2, "pus_per_group": 2,
                      "chunks_per_pu": 8, "pages_per_block": 6},
            ftl="oxblock", host="none", obs=True,
            ftl_config={"wal_chunk_count": 2, "ckpt_chunks_per_slot": 1,
                        "gc_low_watermark": 0})
        stack = build_stack(spec)
        ftl = stack.ftl
        for round_ in range(150):
            for lba in range(8):
                ftl.write(lba, bytes([round_ % 251]) * SS)
        ftl.flush()
        stack.sim.run()
        stall = stack.obs.metrics.histogram("ftl.gc.stall_s")
        assert stall.count > 0
        assert stall.total() > 0.0
