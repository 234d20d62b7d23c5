"""Cluster scaling bench: sharded fleets vs one big device.

Not a paper figure — the cluster layer extends the paper's "one host,
many device personalities" argument sideways (one router, many device
shards), and this bench measures what that buys:

* **Scale-out series** — total ops/sec as the shard count grows at a
  fixed per-shard workload (weak scaling), all serial, so the series
  isolates routing + merge overhead from process-pool mechanics;
* **Worker series** — wall-clock for a fixed 4-shard fleet as the
  worker-process count grows.  The merged metrics are asserted
  bit-identical across the series (the cluster's reproducibility
  contract); only the wall clock may move.  ``cpu_count`` is stamped
  into the recorded entry because the speedup ceiling is the box, not
  the code: on a single-core container the parallel runs measure pool
  overhead, not parallelism.

The headline ``cluster_macro`` entry (4 shards, serial reference run)
appends to ``BENCH_perf.json`` like the other trajectory entries.

Run directly::

    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py
    PYTHONPATH=src python benchmarks/bench_cluster_scaling.py --smoke --no-append
"""

from __future__ import annotations

import argparse
import os
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
             worker_counts=(0, 1, 2, 4), keys_per_shard=40,
             reads_per_shard=300, replication=2)
SMOKE = dict(name="cluster_scaling_smoke", shard_counts=(1, 2),
             worker_counts=(0, 1), keys_per_shard=8,
             reads_per_shard=24, replication=1)


def cluster_spec(cfg: dict, shards: int, workers: int = 0) -> ClusterSpec:
    """A *shards*-wide fleet with the workload scaled per shard."""
    replication = min(cfg["replication"], shards)
    return ClusterSpec(
        name=cfg["name"], seed=0, num_shards=shards,
        replication=replication, router="hash", workers=workers,
        template=dict(SHARD_TEMPLATE),
        workload={"num_keys": cfg["keys_per_shard"] * shards,
                  "read_ops": cfg["reads_per_shard"] * shards,
                  "value_units": 1})


def run_scaling(cfg: dict) -> dict:
    """Run both series; return the metrics dict for the trajectory."""
    metrics: dict = {"cpu_count": os.cpu_count()}

    # -- scale-out: shards grow, workload grows with them (weak scaling)
    for shards in cfg["shard_counts"]:
        started = time.perf_counter()
        result = run_cluster(cluster_spec(cfg, shards), workers=0)
        wall = time.perf_counter() - started
        total_ops = (result.merged["cluster.writes_attempted"]
                     + result.merged["cluster.reads_attempted"])
        metrics[f"serial_ops_per_sec_{shards}shard"] = round(
            total_ops / wall, 1)
        assert result.reads_lost == 0, f"{shards}-shard run lost reads"

    # -- workers: fixed fleet, growing pool; merged metrics must not move
    fleet = max(cfg["shard_counts"])
    reference = None
    for workers in cfg["worker_counts"]:
        result = run_cluster(cluster_spec(cfg, fleet), workers=workers)
        if reference is None:
            reference = result.merged
            metrics["ops_per_sec"] = result.wall["ops_per_sec"]
            metrics["serial_wall_seconds"] = result.wall["wall_seconds"]
        else:
            assert result.merged == reference, (
                f"{workers}-worker merged metrics diverged from serial")
        metrics[f"wall_seconds_{workers}workers"] = (
            result.wall["wall_seconds"])
    serial_wall = metrics["serial_wall_seconds"]
    parallel_walls = [metrics[f"wall_seconds_{w}workers"]
                      for w in cfg["worker_counts"] if w > 0]
    if os.cpu_count() == 1:
        # One core: the worker series measures process-pool overhead,
        # not parallelism.  Recording a "speedup" here would read as a
        # regression (or a fluke win) on every multi-core box that
        # compares against it, so annotate instead of scoring.
        metrics["parallel_overhead_only"] = True
    elif parallel_walls and min(parallel_walls) > 0:
        metrics["best_parallel_speedup"] = round(
            serial_wall / min(parallel_walls), 2)
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
    """The smoke series runs end to end with bit-identical merges."""
    metrics = run_scaling(SMOKE)
    assert metrics["ops_per_sec"] > 0
    assert metrics["serial_ops_per_sec_1shard"] > 0
    assert metrics["serial_ops_per_sec_2shard"] > 0
    assert metrics["cpu_count"] >= 1
    if os.cpu_count() == 1:
        # Single-core boxes annotate instead of scoring a bogus speedup.
        assert metrics.get("parallel_overhead_only") is True
        assert "best_parallel_speedup" not in metrics


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
    """Routing, task dicts and the merge cost a 1-shard cluster under
    2 % over the bare stack running the identical op loop.

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
            run_cluster(spec, workers=0).wall["ops_per_sec"] / bare)
    assert max(ratios) >= 0.98, ratios


if __name__ == "__main__":
    sys.exit(main())
