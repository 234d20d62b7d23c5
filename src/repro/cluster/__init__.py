"""``repro.cluster``: sharded multi-device fleets behind a router.

One :class:`ClusterSpec` declares N message-isolated
:class:`~repro.stack.StackSpec` shards (each with its own simulator
kernel, OCSSD device and FTL), a routing policy (consistent-hash ring
or contiguous ranges) with R-way replication, and a cluster-level
workload.  :func:`run_cluster` keeps one live stack per shard, fails a
read over to the next live replica's running stack, and merges the
shards to metrics that are bit-identical run to run.
``python -m repro.cluster cluster.json`` runs a declared fleet and
writes the standard results files.
"""

from repro.cluster.router import (
    HashRing, RangeRouter, build_router, key_point, stable_hash)
from repro.cluster.runner import (
    ClusterResult, WALL_KEYS, payload_for, run_and_report_cluster,
    run_cluster)
from repro.cluster.spec import ClusterSpec, ClusterWorkloadSpec, ROUTERS

__all__ = [
    "ClusterResult",
    "ClusterSpec",
    "ClusterWorkloadSpec",
    "HashRing",
    "RangeRouter",
    "ROUTERS",
    "WALL_KEYS",
    "build_router",
    "key_point",
    "payload_for",
    "run_and_report_cluster",
    "run_cluster",
    "stable_hash",
]
