"""Execute a :class:`ClusterSpec`: route, run live shards, fail over.

The execution model:

1. The whole workload is planned up front: every key is routed to its
   R replicas (writes) and every read to its primary, producing one op
   list per shard.  Shards never talk to each other.
2. Each shard is one live stack (:func:`~repro.stack.build_stack`, one
   simulator kernel, nothing shared), built once.  In shard order it
   writes its keys in key order, flushes, then serves its primary reads
   in plan order.
3. Reads that fail (a shard lost power mid-run, a write never landed)
   fail over: each walks down its replica list to the next shard whose
   injector has not tripped and reads that shard's running stack, as
   it stands — a cut that lands during failover lands in the replica
   serving it, and the read moves on to the next one.
4. Per-shard counts and obs registries merge under ``cluster.shard<i>.``.
   The merged dict is bit-identical run to run; wall-clock facts (the
   only legitimately nondeterministic outputs) are kept apart in
   ``ClusterResult.wall``.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.router import build_router
from repro.cluster.spec import ClusterSpec
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.stack.build import build_stack
from repro.stack.runner import report_table
from repro.stack.spec import StackSpec
from repro.workloads import derive_stream_seed

#: Documented nondeterministic keys — everything else in a merged
#: result is part of the bit-identity contract.
WALL_KEYS = ("wall_seconds", "ops_per_sec")


def payload_for(key: int, size_bytes: int) -> bytes:
    """*key*'s deterministic value bytes (BLAKE2s seed, repeated)."""
    seed = hashlib.blake2s(f"key:{key}".encode(),
                           digest_size=32).digest()
    repeats = -(-size_bytes // len(seed))
    return (seed * repeats)[:size_bytes]


class _Shard:
    """One live shard: its stack, where its keys landed, its op counts."""

    def __init__(self, spec: StackSpec, value_units: int):
        self.stack = build_stack(spec)
        self.lane = self.stack.block
        self.faults = self.stack.faults
        self.sector_size = spec.geometry.sector_size
        self.unit_sectors = self.stack.device.geometry.ws_min * value_units
        self.counts = {"write_ops": 0, "write_failures": 0, "read_ops": 0,
                       "read_failures": 0, "reads_verified": 0,
                       "read_corruptions": 0}
        #: The replica's per-key metadata: only keys whose write landed.
        self.lba_of: Dict[int, int] = {}
        self._payloads: Dict[int, bytes] = {}

    @property
    def dead(self) -> bool:
        return self.faults is not None and self.faults.tripped

    def payload(self, key: int) -> bytes:
        cached = self._payloads.get(key)
        if cached is None:
            cached = self._payloads[key] = payload_for(
                key, self.unit_sectors * self.sector_size)
        return cached

    def write(self, key: int) -> None:
        lba = self.counts["write_ops"] * self.unit_sectors
        self.counts["write_ops"] += 1
        if not self.dead:
            try:
                self.lane.write(lba, self.payload(key))
                self.lba_of[key] = lba
                return
            except ReproError:
                pass
        self.counts["write_failures"] += 1

    def flush(self) -> None:
        if not self.dead:
            try:
                self.lane.flush()
            except ReproError:
                pass

    def read(self, key: int) -> bool:
        """Read and verify *key*; False when the read failed (a key
        whose write never landed here fails too, never a silent read of
        unmapped zeroes) and the caller fails over."""
        self.counts["read_ops"] += 1
        lba = self.lba_of.get(key)
        data = None
        if lba is not None and not self.dead:
            try:
                data = self.lane.read(lba, 1)
            except ReproError:
                pass
        if data is None:
            self.counts["read_failures"] += 1
            return False
        if data == self.payload(key)[:self.sector_size]:
            self.counts["reads_verified"] += 1
        else:
            self.counts["read_corruptions"] += 1
        return True

    def metrics(self) -> Dict[str, object]:
        metrics: Dict[str, object] = dict(self.counts)
        metrics["sim_seconds"] = round(self.stack.sim.now, 9)
        metrics["events_processed"] = self.stack.sim.events_processed
        if self.faults is not None:
            metrics["media_ops"] = self.faults.stats.media_ops
            metrics["power_cuts"] = self.faults.stats.power_cuts
        return metrics


@dataclass
class ClusterResult:
    """One cluster run: the deterministic view and the wall-clock one."""

    spec: ClusterSpec
    #: Bit-identical run to run.
    merged: Dict[str, object]
    #: Wall-clock facts (:data:`WALL_KEYS`) — honest, not deterministic.
    wall: Dict[str, object]

    @property
    def reads_lost(self) -> int:
        return self.merged["cluster.reads_lost"]


def _plan_keys(spec: ClusterSpec) -> Tuple[List[int], List[int]]:
    """The cluster-boundary op streams: write keys then read keys.

    Generated from the workload spec, or — when ``workload.trace``
    names a recorded cluster trace — replayed from it verbatim, so a
    re-run routes the exact captured key sequences through whatever
    sharding the current spec declares.
    """
    workload = spec.workload
    if workload.trace:
        from repro.trace.format import read_trace
        __, ops = read_trace(workload.trace)
        write_keys: List[int] = []
        read_keys: List[int] = []
        for op in ops:
            if op.layer != "cluster":
                raise ReproError(
                    f"cluster replay: trace {workload.trace!r} carries a "
                    f"{op.layer!r}-layer op; cluster traces only")
            if op.kind == "write":
                write_keys.append(int(op.key))
            elif op.kind == "read":
                read_keys.append(int(op.key))
            else:
                raise ReproError(
                    f"cluster replay: op kind {op.kind!r} is not "
                    f"replayable at the cluster boundary")
        unknown = set(read_keys) - set(write_keys)
        if unknown:
            raise ReproError(
                f"cluster replay: trace reads {len(unknown)} key(s) it "
                f"never wrote (e.g. {sorted(unknown)[:3]})")
        return write_keys, read_keys
    write_keys = list(range(workload.num_keys))
    rng = random.Random(derive_stream_seed(spec.seed, "cluster:reads"))
    read_keys = [rng.randrange(workload.num_keys)
                 for __ in range(workload.read_ops)]
    return write_keys, read_keys


def run_cluster(spec: ClusterSpec,
                trace_out: Optional[str] = None) -> ClusterResult:
    """Route the workload, run the shards, fail over, merge.

    With *trace_out*, the cluster-boundary workload (the routed key
    streams, before sharding) is written as a ``repro.trace`` file that
    ``workload.trace`` replays — through this spec or a differently
    sharded one.
    """
    spec.validate()
    count = spec.num_shards
    router = build_router(spec.router, range(count),
                          replication=spec.replication,
                          vnodes=spec.vnodes)
    workload = spec.workload
    write_keys, read_keys = _plan_keys(spec)

    # -- plan: route every op -----------------------------------------------
    replica_sets: Dict[int, Tuple[int, ...]] = {}
    writes_by_shard: List[List[int]] = [[] for __ in range(count)]
    for key in write_keys:
        replicas = router.replicas(key)
        replica_sets[key] = replicas
        for shard in replicas:
            writes_by_shard[shard].append(key)
    reads_by_shard: List[List[int]] = [[] for __ in range(count)]
    for key in read_keys:
        reads_by_shard[replica_sets[key][0]].append(key)

    if trace_out:
        from repro.trace.format import TraceOp, write_trace
        # The cluster plan has no simulated clock (shards own their own
        # kernels), so issue times are the plan order itself.
        ops = [TraceOp(t=float(index), layer="cluster", kind="write",
                       key=str(key))
               for index, key in enumerate(write_keys)]
        base = len(ops)
        ops.extend(TraceOp(t=float(base + index), layer="cluster",
                           kind="read", key=str(key))
                   for index, key in enumerate(read_keys))
        write_trace(trace_out, ops,
                    meta={"cluster": spec.name,
                          "value_units": workload.value_units})

    # -- execute: writes and primary reads, shard by shard ------------------
    started = time.perf_counter()
    shards: List[_Shard] = []
    failed: List[int] = []
    for index, shard_spec in enumerate(spec.shard_specs()):
        shard = _Shard(shard_spec, workload.value_units)
        shards.append(shard)
        for key in writes_by_shard[index]:
            shard.write(key)
        shard.flush()
        for key in reads_by_shard[index]:
            if not shard.read(key):
                failed.append(key)

    # -- fail over: each failed read to the next live replica ---------------
    failed_over = lost = 0
    for key in failed:
        for replica in replica_sets[key][1:]:
            target = shards[replica]
            if not target.dead and target.read(key):
                failed_over += 1
                break
        else:
            lost += 1
    wall_seconds = time.perf_counter() - started

    # -- merge --------------------------------------------------------------
    merged: Dict[str, object] = {}
    registry = MetricsRegistry()
    per_shard = [shard.metrics() for shard in shards]
    for index, (shard, metrics) in enumerate(zip(shards, per_shard)):
        prefix = f"cluster.shard{index}."
        merged.update((prefix + name, value)
                      for name, value in metrics.items())
        if shard.stack.obs is not None:
            registry.merge(shard.stack.obs.metrics.dump(), prefix=prefix)
    merged.update(registry.flat())

    def total(name: str) -> int:
        return sum(metrics[name] for metrics in per_shard)

    merged["cluster.shards"] = count
    merged["cluster.replication"] = spec.replication
    merged["cluster.writes_attempted"] = total("write_ops")
    merged["cluster.writes_failed"] = total("write_failures")
    merged["cluster.reads_attempted"] = len(read_keys)
    merged["cluster.reads_verified_total"] = total("reads_verified")
    merged["cluster.read_corruptions_total"] = total("read_corruptions")
    merged["cluster.reads_failed_over"] = failed_over
    merged["cluster.reads_lost"] = lost
    merged["cluster.sim_seconds_total"] = round(total("sim_seconds"), 9)
    merged = dict(sorted(merged.items()))

    total_ops = total("write_ops") + len(read_keys)
    wall = {
        "wall_seconds": round(wall_seconds, 3),
        "ops_per_sec": (round(total_ops / wall_seconds, 1)
                        if wall_seconds else 0.0),
    }
    return ClusterResult(spec=spec, merged=merged, wall=wall)


def run_and_report_cluster(spec: ClusterSpec,
                           name: Optional[str] = None,
                           trace_out: Optional[str] = None) -> ClusterResult:
    """:func:`run_cluster` plus the standard results files."""
    result = run_cluster(spec, trace_out=trace_out)
    label = name or spec.name
    report_table(label, f"Cluster run: {label} ({spec.num_shards} shards, "
                        f"router={spec.router}, "
                        f"replication={spec.replication})",
                 {**result.merged, **result.wall})
    return result
