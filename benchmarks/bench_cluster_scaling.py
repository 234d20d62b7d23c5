"""Cluster scaling bench: sharded fleets vs one big device.

Not a paper figure — the cluster layer extends the paper's "one host,
many device personalities" argument sideways (one router, many device
shards), and this bench measures what that buys:

* **Scale-out series** — total ops/sec as the shard count grows at a
  fixed per-shard workload (weak scaling): what routing + merge cost;
* **Wrapper overhead** — a 1-shard cluster against the bare stack
  running the identical op loop.

Shards run in-process, one after another (the spawn-pool worker series
this bench used to carry was measured at 0.13–0.35× of serial on the
shipped workload and deleted with the pool; DESIGN §9).

The headline ``cluster_macro`` entry (the widest fleet of the series)
appends to ``BENCH_perf.json`` like the other trajectory entries.

Run directly::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py
    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py --smoke --no-append
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.benchhelpers import append_trajectory, git_sha, report
from repro.cluster import ClusterSpec, payload_for, run_cluster
from repro.stack import StackSpec, build_stack
from repro.workloads import derive_stream_seed

# One shard of the fleet == the perf-smoke drive (2 groups x 2 PUs), so
# the scale-out series reads against a familiar baseline.
SHARD_TEMPLATE = {
    "geometry": {"num_groups": 2, "pus_per_group": 2,
                 "chunks_per_pu": 16, "pages_per_block": 6},
    "ftl": "oxblock",
    "ftl_config": {"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2},
}

MACRO = dict(name="cluster_macro", shard_counts=(1, 2, 4),
             keys_per_shard=40, reads_per_shard=300, replication=2)
SMOKE = dict(name="cluster_scaling_smoke", shard_counts=(1, 2),
             keys_per_shard=8, reads_per_shard=24, replication=1)


def cluster_spec(cfg: dict, shards: int) -> ClusterSpec:
    """A *shards*-wide fleet with the workload scaled per shard."""
    replication = min(cfg["replication"], shards)
    return ClusterSpec(
        name=cfg["name"], seed=0, num_shards=shards,
        replication=replication, router="hash",
        template=dict(SHARD_TEMPLATE),
        workload={"num_keys": cfg["keys_per_shard"] * shards,
                  "read_ops": cfg["reads_per_shard"] * shards,
                  "value_units": 1})


def run_scaling(cfg: dict) -> dict:
    """Run the scale-out series; return the metrics dict for the
    trajectory (``ops_per_sec``: the widest fleet)."""
    metrics: dict = {}
    # Shards grow, workload grows with them (weak scaling).
    for shards in cfg["shard_counts"]:
        started = time.perf_counter()
        result = run_cluster(cluster_spec(cfg, shards))
        wall = time.perf_counter() - started
        total_ops = (result.merged["cluster.writes_attempted"]
                     + result.merged["cluster.reads_attempted"])
        metrics[f"serial_ops_per_sec_{shards}shard"] = round(
            total_ops / wall, 1)
        assert result.reads_lost == 0, f"{shards}-shard run lost reads"
    fleet = max(cfg["shard_counts"])
    metrics["ops_per_sec"] = result.wall["ops_per_sec"]
    metrics["serial_wall_seconds"] = result.wall["wall_seconds"]
    metrics["shards"] = fleet
    metrics["keys"] = cfg["keys_per_shard"] * fleet
    metrics["read_ops"] = cfg["reads_per_shard"] * fleet
    return metrics


def format_lines(name: str, metrics: dict) -> list:
    lines = [f"Cluster scaling: {name} "
             f"({metrics['shards']} shards x {SHARD_TEMPLATE['geometry']})"]
    width = max(18, max(len(key) for key in metrics))
    lines.extend(f"  {key:>{width}s} = {metrics[key]}"
                 for key in sorted(metrics))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fleet / op counts (CI smoke run)")
    parser.add_argument("--no-append", action="store_true",
                        help="do not append this run to BENCH_perf.json")
    args = parser.parse_args(argv)

    cfg = SMOKE if args.smoke else MACRO
    metrics = run_scaling(cfg)
    report(cfg["name"], format_lines(cfg["name"], metrics))
    if not args.no_append:
        append_trajectory(cfg["name"], metrics, sha=git_sha())
    return 0


def test_cluster_scaling_smoke():
    """The smoke series runs end to end and loses no read."""
    metrics = run_scaling(SMOKE)
    assert metrics["ops_per_sec"] > 0
    assert metrics["serial_ops_per_sec_1shard"] > 0
    assert metrics["serial_ops_per_sec_2shard"] > 0


def bare_ops_per_sec(num_keys: int, read_ops: int) -> float:
    """The 1-shard cluster workload driven straight through
    ``build_stack``: same keys, payload verification and read sequence,
    timed from before the build because the cluster wall covers its
    shard builds too."""
    started = time.perf_counter()
    stack = build_stack(StackSpec.from_dict(
        dict(SHARD_TEMPLATE, name="cluster_bare", seed=0)))
    unit = stack.device.geometry.ws_min
    sector = stack.spec.geometry.sector_size
    payloads = {key: payload_for(key, unit * sector)
                for key in range(num_keys)}
    for key in range(num_keys):
        stack.ftl.write(key * unit, payloads[key])
    stack.ftl.flush()
    rng = random.Random(derive_stream_seed(0, "cluster:reads"))
    for __ in range(read_ops):
        key = rng.randrange(num_keys)
        assert stack.ftl.read(key * unit, 1) == payloads[key][:sector]
    return (num_keys + read_ops) / (time.perf_counter() - started)


def test_cluster_wrapper_overhead_smoke():
    """Routing, per-shard op counting and the merge cost a 1-shard
    cluster under 2 % over the bare stack running the identical op loop.

    Gated on the best cluster/bare *ratio* over five interleaved pairs:
    a shared box's absolute throughput drifts far more than 2 % between
    measurement blocks, but back-to-back pairs see near-identical
    conditions, and a wrapper that really cost more than 2 % could not
    produce one fair pair above the floor in five tries."""
    num_keys, read_ops = 40, 1200
    spec = ClusterSpec(
        name="cluster_overhead", seed=0, num_shards=1, replication=1,
        template=dict(SHARD_TEMPLATE),
        workload={"num_keys": num_keys, "read_ops": read_ops})
    ratios = []
    for __ in range(5):
        bare = bare_ops_per_sec(num_keys, read_ops)
        ratios.append(
            run_cluster(spec).wall["ops_per_sec"] / bare)
    assert max(ratios) >= 0.98, ratios


if __name__ == "__main__":
    sys.exit(main())
