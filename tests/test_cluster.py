"""The cluster layer: spec, routers, rebalancer, runner.

The load-bearing suites:

* **Determinism** — the same ``ClusterSpec`` merges to bit-identical
  metrics run after run (the cluster's reproducibility contract).
* **Router properties** — every key maps to exactly R distinct live
  replicas; membership changes move only keys whose replica set
  involves the added/removed shard (movement minimality).
* **Failover** — with R=2 and a power cut killing one shard, every
  read is still served, content-verified, by the surviving replica;
  with R=3, a cut on the replica serving the failover moves the rest
  of it to the third.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cluster import (
    WALL_KEYS, ClusterSpec, ClusterWorkloadSpec, HashRing, RangeRouter,
    Rebalancer, assert_minimal, build_router, payload_for, run_cluster)
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry

#: A tiny shard stack every cluster test reuses (perf_smoke geometry).
SHARD = {"ftl": "oxblock",
         "geometry": {"num_groups": 2, "pus_per_group": 2,
                      "chunks_per_pu": 16, "pages_per_block": 6},
         "ftl_config": {"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2}}


def tiny_cluster(**overrides) -> ClusterSpec:
    data = {"name": "test-cluster", "num_shards": 2, "template": SHARD,
            "workload": {"num_keys": 8, "read_ops": 24}}
    data.update(overrides)
    return ClusterSpec.from_dict(data)


# -- spec ------------------------------------------------------------------


def test_cluster_spec_round_trips_through_dict():
    spec = tiny_cluster(replication=2, router="range", vnodes=16)
    clone = ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone.to_dict() == spec.to_dict()


def test_cluster_spec_rejects_unknown_fields():
    with pytest.raises(ReproError, match="unknown field"):
        ClusterSpec.from_dict({"shard_count": 3})


def test_replication_cannot_exceed_shards():
    with pytest.raises(ReproError, match="replication"):
        tiny_cluster(num_shards=2, replication=3)


def test_unknown_router_raises():
    with pytest.raises(ReproError, match="router"):
        tiny_cluster(router="rendezvous")


def test_shards_must_be_raw_block_stacks():
    with pytest.raises(ReproError, match="raw block API"):
        tiny_cluster(template={"ftl": "lightlsm"})


def test_a_wlfc_shard_serves_reads_through_its_cache():
    """The shard rule is the personality table's ``block`` surface, and
    the runner drives ``Stack.block``: a ``wlfc`` shard's reads go
    through the cache and verify."""
    result = run_cluster(tiny_cluster(template=dict(SHARD, host="wlfc")))
    merged = result.merged
    assert result.reads_lost == 0
    assert (merged["cluster.reads_verified_total"]
            == merged["cluster.reads_attempted"] > 0)
    assert merged["cluster.shard0.sim_seconds"] != run_cluster(
        tiny_cluster()).merged["cluster.shard0.sim_seconds"]


def test_template_mode_derives_distinct_shard_seeds():
    shards = tiny_cluster(num_shards=4).shard_specs()
    assert [s.name for s in shards] == [
        f"test-cluster.shard{i}" for i in range(4)]
    seeds = [s.seed for s in shards]
    assert len(set(seeds)) == 4
    # Deriving again is stable (routing and replay depend on it).
    assert [s.seed for s in tiny_cluster(num_shards=4).shard_specs()] == seeds


def test_explicit_shards_set_num_shards_and_keep_seeds():
    spec = tiny_cluster(shards=[dict(SHARD, seed=3), dict(SHARD, seed=9),
                                dict(SHARD, seed=27)])
    assert spec.num_shards == 3
    assert [s.seed for s in spec.shard_specs()] == [3, 9, 27]


# -- routers ---------------------------------------------------------------

KEYS = range(300)


@pytest.mark.parametrize("kind", ["hash", "range"])
@pytest.mark.parametrize("replication", [1, 2, 3])
def test_every_key_maps_to_exactly_r_distinct_live_replicas(
        kind, replication):
    router = build_router(kind, range(5), replication=replication,
                          vnodes=32)
    for key in KEYS:
        replicas = router.replicas(key)
        assert len(replicas) == replication
        assert len(set(replicas)) == replication
        assert set(replicas) <= router.shards
        # Routing is a pure function of the key.
        assert router.replicas(key) == replicas


@pytest.mark.parametrize("kind", ["hash", "range"])
def test_all_shards_receive_some_primaries(kind):
    router = build_router(kind, range(4), replication=1, vnodes=64)
    primaries = {router.primary(key) for key in KEYS}
    assert primaries == set(range(4))


@pytest.mark.parametrize("kind", ["hash", "range"])
def test_add_shard_moves_only_keys_gaining_it(kind):
    router = build_router(kind, range(4), replication=2, vnodes=32)
    before = {key: router.replicas(key) for key in KEYS}
    plan = Rebalancer(router).add_shard(4, KEYS)
    after = {key: router.replicas(key) for key in KEYS}
    assert_minimal(plan, before, after)
    assert plan.moved_keys, "a new shard must take some keys"
    # Far less than everything moves: the new shard owns ~1/5 of the
    # space, so well under half the keys may see their set change.
    assert plan.moved_fraction() < 0.5
    for key in KEYS:
        assert len(set(after[key])) == 2


@pytest.mark.parametrize("kind", ["hash", "range"])
def test_remove_shard_moves_only_its_former_keys(kind):
    router = build_router(kind, range(4), replication=2, vnodes=32)
    before = {key: router.replicas(key) for key in KEYS}
    plan = Rebalancer(router).remove_shard(2, KEYS)
    after = {key: router.replicas(key) for key in KEYS}
    assert_minimal(plan, before, after)
    for key in KEYS:
        replicas = after[key]
        assert 2 not in replicas
        assert len(set(replicas)) == 2
    # Re-replication never sources from the shard being retired when a
    # surviving replica exists (it always does at R=2).
    assert all(move.source != 2 for move in plan.moves)


def test_duplicate_or_unknown_membership_changes_raise():
    ring = HashRing(range(3), vnodes=8)
    with pytest.raises(ReproError):
        ring.add_shard(1)
    with pytest.raises(ReproError):
        ring.remove_shard(7)
    router = RangeRouter(range(2))
    with pytest.raises(ReproError):
        router.remove_shard(0), router.remove_shard(1)


def test_replication_beyond_live_shards_raises():
    ring = HashRing(range(2), vnodes=8, replication=2)
    ring.remove_shard(1)
    with pytest.raises(ReproError, match="replication"):
        ring.replicas(11)


def test_range_router_stays_anchored_after_first_shard_leaves():
    router = RangeRouter(range(3), replication=1)
    before = {key: router.replicas(key) for key in KEYS}
    plan = Rebalancer(router).remove_shard(0, KEYS)
    after = {key: router.replicas(key) for key in KEYS}
    assert_minimal(plan, before, after)
    assert {router.primary(key) for key in KEYS} == {1, 2}


# -- registry merge --------------------------------------------------------


def test_registry_merge_counters_add_and_histograms_union():
    left, right, merged = (MetricsRegistry() for __ in range(3))
    left.counter("ops").increment(3)
    right.counter("ops").increment(4)
    left.histogram("lat").extend([1.0, 5.0])
    right.histogram("lat").extend([2.0, 4.0, 3.0])
    merged.merge(left.dump())
    merged.merge(right.dump())
    assert merged.counter("ops").value == 7
    assert merged.histogram("lat").count == 5
    # Percentiles come from the union of raw samples, exactly as one
    # registry recording everything would report.
    reference = MetricsRegistry()
    reference.histogram("lat").extend([1.0, 5.0, 2.0, 4.0, 3.0])
    assert (merged.histogram("lat").summary()
            == reference.histogram("lat").summary())


def test_registry_merge_prefix_namespaces_sources():
    source = MetricsRegistry()
    source.counter("reads").increment(2)
    source.gauge("depth").set(9)
    merged = MetricsRegistry()
    merged.merge(source.dump(), prefix="cluster.shard0.")
    merged.merge(source.dump(), prefix="cluster.shard1.")
    flat = merged.flat()
    assert flat["cluster.shard0.reads"] == 2
    assert flat["cluster.shard1.depth"] == 9


def test_registry_merge_kind_mismatch_raises():
    source = MetricsRegistry()
    source.counter("x").increment()
    merged = MetricsRegistry()
    merged.gauge("x").set(1)
    with pytest.raises(TypeError):
        merged.merge(source.dump())


# -- runner ----------------------------------------------------------------


def test_payload_is_deterministic_and_sized():
    assert payload_for(5, 4096) == payload_for(5, 4096)
    assert payload_for(5, 4096) != payload_for(6, 4096)
    assert len(payload_for(5, 1000)) == 1000


def test_serial_cluster_run_verifies_every_read():
    result = run_cluster(tiny_cluster(replication=2))
    merged = result.merged
    assert merged["cluster.reads_verified_total"] == 24
    assert merged["cluster.read_corruptions_total"] == 0
    assert merged["cluster.reads_lost"] == 0
    assert merged["cluster.writes_attempted"] == 8 * 2
    # Per-shard namespaces exist and carry the deterministic canaries.
    assert "cluster.shard0.sim_seconds" in merged
    assert "cluster.shard1.events_processed" in merged
    # Wall facts stay out of the deterministic view.
    assert not set(merged) & {"wall_seconds", "ops_per_sec"}
    assert set(result.wall) == set(WALL_KEYS)


def test_serial_cluster_is_self_deterministic():
    spec = tiny_cluster(replication=2, router="range")
    assert (run_cluster(spec).merged
            == run_cluster(spec).merged)


def test_obs_registries_merge_under_shard_namespaces():
    spec = tiny_cluster(template=dict(SHARD, obs=True))
    merged = run_cluster(spec).merged
    assert "cluster.shard0.ftl.read.latency_s.p99" in merged
    assert "cluster.shard1.nand.program.count" in merged


def test_failover_reads_survive_a_power_cut_on_one_shard():
    """R=2, one shard loses power mid-run: every read is still served
    and content-verified by the surviving replica; nothing is lost."""
    faulty = dict(SHARD, faults={"power_cut_at_op": 40})
    spec = tiny_cluster(shards=[SHARD, faulty], replication=2,
                        workload={"num_keys": 12, "read_ops": 60})
    merged = run_cluster(spec).merged
    assert merged["cluster.shard1.power_cuts"] == 1
    assert merged["cluster.reads_failed_over"] > 0
    assert merged["cluster.reads_lost"] == 0
    assert merged["cluster.read_corruptions_total"] == 0
    assert (merged["cluster.reads_verified_total"]
            == merged["cluster.reads_attempted"])
    assert not [key for key in merged if "retry" in key]


def test_a_cut_mid_failover_moves_the_rest_to_the_next_replica():
    """R=3: shard 0 loses power in its primary reads, and shard 1's cut
    lands a few media ops into the failover it serves.  Shard 1 serves
    that failover on the stack that served its primary reads, up to its
    cut; every read after the cut walks on to shard 2."""
    def fleet(shard0_faults, shard1_faults) -> ClusterSpec:
        return tiny_cluster(
            shards=[dict(SHARD, faults=shard0_faults),
                    dict(SHARD, faults=shard1_faults), SHARD],
            replication=3, router="range",
            workload={"num_keys": 12, "read_ops": 60})

    # Without cuts: shard 1's media ops through its primary reads.
    primary = run_cluster(fleet(None, {})).merged
    cut_at = primary["cluster.shard1.media_ops"] + 4
    merged = run_cluster(fleet({"power_cut_at_op": 40},
                               {"power_cut_at_op": cut_at})).merged

    def shard(index: int, name: str) -> int:
        return merged[f"cluster.shard{index}.{name}"]

    assert shard(0, "power_cuts") == shard(1, "power_cuts") == 1
    failed_over = merged["cluster.reads_failed_over"]
    assert failed_over == shard(0, "read_failures") > 0
    assert merged["cluster.reads_lost"] == 0
    assert merged["cluster.read_corruptions_total"] == 0
    assert (merged["cluster.reads_verified_total"]
            == merged["cluster.reads_attempted"])
    # One stack per shard: read_ops counts primary and failover reads.
    served = [shard(i, "read_ops") - primary[f"cluster.shard{i}.read_ops"]
              for i in range(3)]
    assert 0 < served[1] < failed_over == served[1] + served[2]
    assert shard(1, "reads_verified") == shard(1, "read_ops")


def test_live_shard_grep_pin():
    """A shard is one live stack: nothing under ``src/repro/cluster``
    turns a shard spec into a dict and back (a task a shard could be
    rebuilt from) or names a ``retry`` namespace (a replayed shard)."""
    pin = re.compile(r"\.(to|from)_dict\(|retry", re.IGNORECASE)
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "repro" / "cluster").glob("*.py"))
    assert len(paths) > 3
    hits = [f"{path.relative_to(root)}:{number}: {line.strip()}"
            for path in paths
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pin.search(line)]
    assert not hits, "\n".join(hits)


def test_unreplicated_cluster_loses_reads_when_its_shard_dies():
    faulty = dict(SHARD, faults={"power_cut_at_op": 1})
    spec = tiny_cluster(shards=[faulty], replication=1,
                        workload={"num_keys": 4, "read_ops": 10})
    result = run_cluster(spec)
    assert result.merged["cluster.reads_lost"] == 10
    assert result.merged["cluster.reads_verified_total"] == 0


def test_module_runner_executes_a_json_cluster_spec(tmp_path, capsys):
    from repro.cluster.__main__ import main
    spec_path = tmp_path / "cluster.json"
    spec_path.write_text(json.dumps(tiny_cluster().to_dict()))
    assert main([str(spec_path), "--name", "cluster-main-test"]) == 0
    out = capsys.readouterr().out
    assert "cluster.reads_verified_total" in out


def test_module_runner_rejects_a_bad_spec(tmp_path, capsys):
    from repro.cluster.__main__ import main
    spec_path = tmp_path / "cluster.json"
    spec_path.write_text(json.dumps({"num_shards": 0}))
    assert main([str(spec_path)]) == 2
    assert "num_shards" in capsys.readouterr().err


def test_workload_spec_bounds():
    with pytest.raises(ReproError, match="num_keys"):
        ClusterWorkloadSpec(num_keys=0).validate()
    with pytest.raises(ReproError, match="value_units"):
        ClusterWorkloadSpec(value_units=0).validate()
