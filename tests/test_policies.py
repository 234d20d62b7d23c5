"""The FTL policy lab (repro.policies): victim selection, placement,
the write-less cache host, and their StackSpec wiring."""

import random

import pytest

from repro.errors import ReproError
from repro.nand import FlashGeometry
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import BlockConfig, MediaManager, OXBlock
from repro.ox.ftl.metadata import ChunkTable, FtlChunkState
from repro.policies import (
    PLACEMENT_POLICIES,
    VICTIM_POLICIES,
    AgePartitionedVictimPolicy,
    CostBenefitVictimPolicy,
    GreedyVictimPolicy,
    TimedVictimPolicy,
    VictimPolicy,
    WlfcConfig,
    WriteLessCache,
    resolve_placement_policy,
    resolve_victim_policy,
)
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


def make_table(valid_counts, write_seqs=None, groups=1):
    """A synthetic one-group-per-policy candidate pool: chunk i FULL
    with the given valid count (and optional last-write stamp)."""
    geometry = DeviceGeometry(
        num_groups=max(1, groups), pus_per_group=1,
        flash=FlashGeometry(blocks_per_plane=max(8, len(valid_counts)),
                            pages_per_block=6))
    keys = [(0, 0, chunk) for chunk in range(len(valid_counts))]
    table = ChunkTable(geometry, iter(keys))
    for index, key in enumerate(keys):
        info = table.get(key)
        info.state = FtlChunkState.FULL
        info.valid_count = valid_counts[index]
        if write_seqs is not None:
            info.write_seq = write_seqs[index]
            table._seq = max(table._seq, write_seqs[index])
    return table


class TestVictimOrdering:
    def test_greedy_orders_min_valid_first(self):
        table = make_table([30, 10, 20, 10])
        order = GreedyVictimPolicy().select(table.gc_candidates(0), table)
        assert [info.valid_count for info in order] == [10, 10, 20, 30]
        # Equal valid counts break on the fixed linear index.
        assert [info.key[2] for info in order[:2]] == [1, 3]

    def test_default_matches_legacy_stable_sort(self):
        # The historical collector sorted the table-order candidate list
        # stably by valid count alone; the default, "greedy", must
        # reproduce that order exactly, ties included.
        table = make_table([12, 6, 12, 6, 0, 12, 6])
        candidates = table.gc_candidates(0)
        legacy = sorted(candidates, key=lambda info: info.valid_count)
        assert BlockConfig().gc_policy == StackSpec().gc_policy == "greedy"
        chosen = resolve_victim_policy("greedy").select(candidates, table)
        assert [info.key for info in chosen] == [info.key for info in legacy]

    def test_cost_benefit_prefers_old_cold(self):
        # Same emptiness, different age: the older chunk wins.
        table = make_table([10, 10], write_seqs=[100, 900])
        order = CostBenefitVictimPolicy().select(
            table.gc_candidates(0), table)
        assert [info.write_seq for info in order] == [100, 900]

    def test_cost_benefit_age_beats_slight_emptiness(self):
        # A young, slightly emptier chunk loses to an old, slightly
        # fuller one — the anti-greedy case the policy exists for.
        table = make_table([10, 12], write_seqs=[990, 10])
        greedy = GreedyVictimPolicy().select(table.gc_candidates(0), table)
        assert greedy[0].valid_count == 10
        cb = CostBenefitVictimPolicy().select(table.gc_candidates(0), table)
        assert cb[0].valid_count == 12
        assert cb[0].write_seq == 10

    def test_age_partitioned_offers_cold_generation_first(self):
        # Youngest chunk is emptiest; it must still wait behind the
        # cold generation.
        table = make_table([20, 24, 4, 2],
                           write_seqs=[10, 20, 900, 950])
        order = AgePartitionedVictimPolicy().select(
            table.gc_candidates(0), table)
        # Cold half (write_seq 10, 20) greedily first, then young half.
        assert [info.valid_count for info in order] == [20, 24, 2, 4]

    def test_age_partitioned_cold_fraction_validated(self):
        with pytest.raises(ValueError):
            AgePartitionedVictimPolicy(cold_fraction=0.0)
        with pytest.raises(ValueError):
            AgePartitionedVictimPolicy(cold_fraction=1.5)

    def test_timed_wrapper_transparent_and_records(self):
        table = make_table([30, 10, 20])
        timed = TimedVictimPolicy(GreedyVictimPolicy())
        plain = GreedyVictimPolicy().select(table.gc_candidates(0), table)
        wrapped = timed.select(table.gc_candidates(0), table)
        assert [i.key for i in wrapped] == [i.key for i in plain]
        assert len(timed.samples) == 1
        assert timed.percentile(99) >= 0.0

    def test_greedy_tie_break_is_linear(self):
        table = make_table([6, 6, 6, 6])
        order = GreedyVictimPolicy().select(table.gc_candidates(0), table)
        assert [info.key[2] for info in order] == [0, 1, 2, 3]

    def test_registry_rejects_unknown_names(self):
        with pytest.raises(ReproError) as excinfo:
            resolve_victim_policy("lifo")
        assert "cost_benefit" in str(excinfo.value)
        with pytest.raises(ReproError) as excinfo:
            resolve_placement_policy("diagonal")
        assert "stream_partitioned" in str(excinfo.value)


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


def _collect_one(pattern, policy_name):
    """Fill + invalidate with GC off, then collect exactly one victim
    under *policy_name*; returns (victim valid count, relocated)."""
    config = BlockConfig(wal_chunk_count=4, ckpt_chunks_per_slot=2,
                         gc_enabled=False, gc_policy=policy_name)
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
    chosen = ftl.gc.victims(group)
    first_valid = chosen[0].valid_count if chosen else None
    recycled = device.sim.run_until(device.sim.spawn(
        ftl.gc.collect_group_locked_proc(group, max_victims=1)))
    assert recycled == 1
    return first_valid, ftl.gc.stats.sectors_relocated


class TestVictimPoliciesLive:
    @pytest.mark.parametrize("pattern", ["uniform", "zipf", "sequential"])
    def test_greedy_minimizes_relocation_per_decision(self, pattern):
        results = {name: _collect_one(pattern, name)
                   for name in ("greedy", "cost_benefit",
                                "age_partitioned")}
        # One collection relocates exactly the victim's live sectors...
        for name, (first_valid, relocated) in results.items():
            assert relocated == first_valid, name
        # ...and greedy's choice is the cheapest of the three.
        greedy_cost = results["greedy"][1]
        for name, (__, relocated) in results.items():
            assert greedy_cost <= relocated, name

    def test_default_run_bit_identical_to_explicit_legacy(self):
        class LegacyVictimPolicy(VictimPolicy):
            """The pre-policy collector's exact ordering: a stable sort
            of the table-order candidates by valid count alone."""
            name = "legacy"

            def select(self, candidates, table):
                return sorted(candidates,
                              key=lambda info: info.valid_count)

        def hammer(policy):
            config = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1,
                                 gc_low_watermark=6, gc_high_watermark=10)
            device, __m, ftl, __c = make_stack(groups=2, pus=2, chunks=8,
                                               pages=6, config=config)
            if policy is not None:
                ftl.gc.victim_policy = policy
            for round_ in range(120):
                for lba in range(8):
                    ftl.write(lba, bytes([round_ % 251]) * SS)
            ftl.flush()
            device.sim.run()
            assert ftl.gc.stats.chunks_recycled > 0
            return (round(device.sim.now, 9), device.sim.events_processed,
                    ftl.gc.stats.chunks_recycled,
                    ftl.gc.stats.sectors_relocated)

        assert hammer(None) == hammer(LegacyVictimPolicy())

    def test_policies_change_victim_order_but_preserve_data(self):
        def run(policy_name):
            config = BlockConfig(wal_chunk_count=2, ckpt_chunks_per_slot=1,
                                 gc_low_watermark=6, gc_high_watermark=10,
                                 gc_policy=policy_name)
            device, __m, ftl, __c = make_stack(groups=2, pus=2, chunks=8,
                                               pages=6, config=config)
            for round_ in range(120):
                for lba in range(8):
                    ftl.write(lba, bytes([(round_ + lba) % 251]) * SS)
            ftl.flush()
            device.sim.run()
            assert ftl.gc.stats.chunks_recycled > 0
            for lba in range(8):
                assert ftl.read(lba, 1) == bytes([(119 + lba) % 251]) * SS
            return device.sim.events_processed

        run("cost_benefit")
        run("age_partitioned")


class TestPlacementPolicies:
    def _spec(self, placement_policy, host="none"):
        return StackSpec(
            name=f"place_{placement_policy}",
            geometry={"num_groups": 4, "pus_per_group": 2,
                      "chunks_per_pu": 8, "pages_per_block": 6},
            ftl="oxblock", host=host,
            placement_policy=placement_policy,
            workload={"kind": "raw_fill_read", "fill_ops": 40,
                      "read_ops": 60})

    def _mapped_groups(self, placement_policy, fill_units=12):
        config = BlockConfig(wal_chunk_count=4, ckpt_chunks_per_slot=1,
                             placement_policy=placement_policy)
        device, __m, ftl, __c = make_stack(groups=4, pus=2, chunks=8,
                                           pages=6, config=config)
        unit = device.geometry.ws_min
        payload = bytes(unit * SS)
        for index in range(fill_units):
            ftl.write(index * unit, payload)
        ftl.flush()
        device.sim.run()
        return {device.geometry.delinearize(linear).group
                for __, linear in ftl.page_map.items()}

    def test_alternative_placements_steer_allocation(self):
        # Striped round-robins every group; the partitioned policy pins
        # the user stream to its slot's groups (0 and 2 of 4); hotcold
        # fills its frontier group before advancing, so a small fill
        # stays wherever the frontier opened.
        assert self._mapped_groups("striped") == {0, 1, 2, 3}
        assert self._mapped_groups("stream_partitioned") <= {0, 2}
        assert len(self._mapped_groups("hotcold", fill_units=6)) == 1

    def test_preference_not_restriction(self):
        # Every policy must offer the full PU set (preferred first,
        # fallback after), or out-of-space semantics would change.
        device, __m, ftl, __c = make_stack(groups=2, pus=2)
        prov = ftl.provisioner
        state = prov._stream("user")
        for name in PLACEMENT_POLICIES:
            policy = resolve_placement_policy(name)
            cycle = policy.pu_cycle("user", state, None,
                                    prov._all_pus, prov)
            assert sorted(cycle) == sorted(prov._all_pus), name

    def test_gc_group_hint_always_wins(self):
        # Group-local GC is an invariant: with a group= hint, only that
        # group's PUs may appear, whatever the policy prefers.
        device, __m, ftl, __c = make_stack(groups=2, pus=2)
        prov = ftl.provisioner
        state = prov._stream("gc")
        for name in PLACEMENT_POLICIES:
            policy = resolve_placement_policy(name)
            cycle = policy.pu_cycle("gc", state, 1,
                                    prov._all_pus, prov)
            assert cycle and all(pu[0] == 1 for pu in cycle), name

    def test_data_survives_each_placement(self):
        for name in ("striped", "stream_partitioned", "hotcold"):
            config = BlockConfig(wal_chunk_count=4, ckpt_chunks_per_slot=2,
                                 placement_policy=name)
            device, __m, ftl, __c = make_stack(config=config)
            for lba in range(0, 64, 2):
                ftl.write(lba, bytes([lba % 251]) * SS)
            ftl.flush()
            device.sim.run()
            for lba in range(0, 64, 2):
                assert ftl.read(lba, 1) == bytes([lba % 251]) * SS, name


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
        with pytest.raises(ReproError) as excinfo:
            StackSpec(ftl="oxblock", gc_policy="fifo").validate()
        message = str(excinfo.value)
        assert "gc_policy" in message and "cost_benefit" in message
        with pytest.raises(ReproError) as excinfo:
            StackSpec(ftl="oxblock", placement_policy="fifo").validate()
        message = str(excinfo.value)
        assert "placement_policy" in message and "hotcold" in message

    def test_policies_require_oxblock(self):
        with pytest.raises(ReproError):
            StackSpec(ftl="lightlsm", gc_policy="cost_benefit").validate()
        with pytest.raises(ReproError):
            StackSpec(ftl="zns",
                      placement_policy="stream_partitioned").validate()
        with pytest.raises(ReproError):
            StackSpec(ftl="eleos", host="wlfc").validate()
        # The fields' defaults name what the other FTLs leave unused.
        StackSpec(ftl="lightlsm", gc_policy="greedy",
                  placement_policy="striped").validate()

    def test_one_name_per_policy(self):
        # "default" used to alias greedy / striped in all four menus.
        assert next(iter(VICTIM_POLICIES)) == StackSpec().gc_policy
        assert (next(iter(PLACEMENT_POLICIES))
                == StackSpec().placement_policy == "striped")
        for field in ("gc_policy", "placement_policy"):
            with pytest.raises(ReproError, match="default"):
                StackSpec(ftl="oxblock", **{field: "default"}).validate()

    def test_spec_round_trips_policy_fields(self):
        spec = StackSpec(ftl="oxblock", gc_policy="cost_benefit",
                         placement_policy="hotcold", host="wlfc",
                         wlfc={"cache_sectors": 128})
        clone = StackSpec.from_dict(spec.to_dict())
        assert clone.gc_policy == "cost_benefit"
        assert clone.placement_policy == "hotcold"
        assert clone.wlfc == {"cache_sectors": 128}

    def test_build_wires_gc_policy(self):
        stack = build_stack(StackSpec(
            ftl="oxblock", gc_policy="cost_benefit", host="none"))
        assert stack.ftl.gc.victim_policy.name == "cost_benefit"

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

    def test_ftl_config_override_beats_spec_passthrough(self):
        stack = build_stack(StackSpec(
            ftl="oxblock", gc_policy="greedy",
            ftl_config={"gc_policy": "age_partitioned"}, host="none"))
        assert stack.ftl.gc.victim_policy.name == "age_partitioned"


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
