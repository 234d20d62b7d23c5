"""Execute a :class:`ClusterSpec`: route, run shards, merge.

The execution model:

1. The parent plans the whole workload up front: every key is routed to
   its R replicas (writes) and every read to its primary, producing one
   op list per shard.  Routing happens only in the parent — shards
   never talk to each other, and a shard task is a plain dict (spec
   dict + op lists).
2. Shards execute their op lists independently, one after another
   in-process: one simulator kernel per shard, nothing shared.  (A
   spawn-pool executor was measured and deleted; DESIGN §9 "Process
   model" has the numbers.)
3. Reads that fail (a shard lost power mid-run, a write never landed)
   fail over: the parent re-routes them to the next live replica in a
   retry round.  A retry task replays the shard's writes first — the
   stacks are deterministic, so a replayed shard reaches the exact
   state of its round-0 twin before serving the retried reads.
4. Results merge in the parent (:mod:`repro.cluster.merge`).  The
   merged dict is bit-identical run to run; wall-clock facts (the only
   legitimately nondeterministic outputs) are kept apart in
   ``ClusterResult.wall``.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.merge import merge_shard_results
from repro.cluster.router import build_router
from repro.cluster.spec import ClusterSpec
from repro.errors import ReproError
from repro.stack.build import build_stack
from repro.stack.runner import report_table
from repro.stack.spec import StackSpec
from repro.workloads import derive_stream_seed

#: Documented nondeterministic keys — everything else in a merged
#: result is part of the bit-identity contract.
WALL_KEYS = ("wall_seconds", "ops_per_sec", "shard_wall_seconds_max")


def payload_for(key: int, size_bytes: int) -> bytes:
    """*key*'s deterministic value bytes (BLAKE2s seed, repeated)."""
    seed = hashlib.blake2s(f"key:{key}".encode(),
                           digest_size=32).digest()
    repeats = -(-size_bytes // len(seed))
    return (seed * repeats)[:size_bytes]


def _run_shard(task: dict) -> dict:
    """Run one shard's op list.

    Everything in the returned dict except ``wall_seconds`` is a pure
    function of *task* — no wall clock, no process identity, no
    unordered iteration — because the run-to-run metric identity rests
    on this function.
    """
    spec = StackSpec.from_dict(task["spec"])
    started = time.perf_counter()
    stack = build_stack(spec)
    lane = stack.block
    faults = stack.faults
    sector_size = spec.geometry.sector_size
    unit_sectors = stack.device.geometry.ws_min * task["value_units"]
    unit_bytes = unit_sectors * sector_size

    payload_cache: Dict[int, bytes] = {}

    def payload(key: int) -> bytes:
        cached = payload_cache.get(key)
        if cached is None:
            cached = payload_cache[key] = payload_for(key, unit_bytes)
        return cached

    def dead() -> bool:
        return faults is not None and faults.tripped

    counts = {"write_ops": 0, "write_failures": 0, "read_ops": 0,
              "read_failures": 0, "reads_verified": 0,
              "read_corruptions": 0}
    failed_reads: List[int] = []
    lba_of: Dict[int, int] = {}
    stored: set = set()
    next_lba = 0

    for key in task["writes"]:
        lba_of[key] = next_lba
        next_lba += unit_sectors
        counts["write_ops"] += 1
        if dead():
            counts["write_failures"] += 1
            continue
        try:
            lane.write(lba_of[key], payload(key))
            stored.add(key)
        except ReproError:
            counts["write_failures"] += 1
    if not dead():
        try:
            lane.flush()
        except ReproError:
            pass

    for key in task["reads"]:
        counts["read_ops"] += 1
        # The lba map *is* this replica's per-key metadata: a key whose
        # write never landed here reports a failed read (and the parent
        # fails over), never a silent read of unmapped zeroes.
        if key not in stored or dead():
            counts["read_failures"] += 1
            failed_reads.append(key)
            continue
        data = None
        try:
            data = lane.read(lba_of[key], 1)
        except ReproError:
            data = None
        if data is None:
            counts["read_failures"] += 1
            failed_reads.append(key)
        elif data == payload(key)[:sector_size]:
            counts["reads_verified"] += 1
        else:
            counts["read_corruptions"] += 1

    metrics: Dict[str, object] = dict(counts)
    metrics["sim_seconds"] = round(stack.sim.now, 9)
    metrics["events_processed"] = stack.sim.events_processed
    if faults is not None:
        metrics["media_ops"] = faults.stats.media_ops
        metrics["power_cuts"] = faults.stats.power_cuts
    return {
        "shard": task["shard"],
        "round": task["round"],
        "metrics": metrics,
        "registry": (stack.obs.metrics.dump()
                     if stack.obs is not None else None),
        "failed_reads": failed_reads,
        "dead": dead(),
        "wall_seconds": time.perf_counter() - started,
    }


@dataclass
class ClusterResult:
    """One cluster run: the deterministic view and the wall-clock one."""

    spec: ClusterSpec
    #: Bit-identical run to run.
    merged: Dict[str, object]
    #: Wall-clock facts (:data:`WALL_KEYS`) — honest, not deterministic.
    wall: Dict[str, object]
    #: Raw per-shard worker results, by round then shard.
    rounds: List[List[dict]] = field(default_factory=list)

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
    """Route the workload, execute the shards, merge the results.

    With *trace_out*, the cluster-boundary workload (the routed key
    streams, before sharding) is written as a ``repro.trace`` file that
    ``workload.trace`` replays — through this spec or a differently
    sharded one.
    """
    spec.validate()
    shard_specs = [s.to_dict() for s in spec.shard_specs()]
    count = spec.num_shards
    router = build_router(spec.router, range(count),
                          replication=spec.replication,
                          vnodes=spec.vnodes)
    workload = spec.workload
    write_keys, read_keys = _plan_keys(spec)

    # -- plan: route every op in the parent ---------------------------------
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

    def task_for(shard: int, round_no: int, reads: List[int]) -> dict:
        return {"shard": shard, "round": round_no,
                "spec": shard_specs[shard],
                "value_units": workload.value_units,
                "writes": writes_by_shard[shard], "reads": reads}

    # -- execute: round 0 plus failover retry rounds ------------------------
    started = time.perf_counter()
    rounds = [[_run_shard(task_for(shard, 0, reads_by_shard[shard]))
               for shard in range(count)]]
    dead_shards = {r["shard"] for r in rounds[0] if r["dead"]}
    pending: List[Tuple[int, int]] = [
        (key, 1) for result in rounds[0]
        for key in result["failed_reads"]]
    failed_over = 0
    lost = 0
    round_no = 1
    while pending:
        batch: Dict[int, List[Tuple[int, int]]] = {}
        for key, cursor in pending:
            replicas = replica_sets[key]
            while (cursor < len(replicas)
                   and replicas[cursor] in dead_shards):
                cursor += 1
            if cursor >= len(replicas):
                lost += 1
                continue
            batch.setdefault(replicas[cursor], []).append(
                (key, cursor))
        if not batch:
            break
        results = [_run_shard(task_for(shard, round_no,
                                       [key for key, __ in batch[shard]]))
                   for shard in sorted(batch)]
        rounds.append(results)
        pending = []
        for result in results:
            if result["dead"]:
                dead_shards.add(result["shard"])
            failed = set(result["failed_reads"])
            for key, cursor in batch[result["shard"]]:
                if key in failed:
                    pending.append((key, cursor + 1))
                else:
                    failed_over += 1
        round_no += 1
    wall_seconds = time.perf_counter() - started

    # -- merge --------------------------------------------------------------
    flat_results = [result for round_results in rounds
                    for result in round_results]
    merged = merge_shard_results(flat_results)
    round0 = rounds[0]
    merged["cluster.shards"] = count
    merged["cluster.replication"] = spec.replication
    merged["cluster.rounds"] = len(rounds)
    merged["cluster.writes_attempted"] = sum(
        r["metrics"]["write_ops"] for r in round0)
    merged["cluster.writes_failed"] = sum(
        r["metrics"]["write_failures"] for r in round0)
    merged["cluster.reads_attempted"] = len(read_keys)
    merged["cluster.reads_verified_total"] = sum(
        r["metrics"]["reads_verified"] for r in flat_results)
    merged["cluster.read_corruptions_total"] = sum(
        r["metrics"]["read_corruptions"] for r in flat_results)
    merged["cluster.reads_failed_over"] = failed_over
    merged["cluster.reads_lost"] = lost
    merged["cluster.sim_seconds_total"] = round(
        sum(r["metrics"]["sim_seconds"] for r in round0), 9)
    merged = dict(sorted(merged.items()))

    total_ops = (merged["cluster.writes_attempted"]
                 + merged["cluster.reads_attempted"])
    wall = {
        "wall_seconds": round(wall_seconds, 3),
        "ops_per_sec": (round(total_ops / wall_seconds, 1)
                        if wall_seconds else 0.0),
        "shard_wall_seconds_max": round(
            max(r["wall_seconds"] for r in flat_results), 3),
    }
    return ClusterResult(spec=spec, merged=merged, wall=wall,
                         rounds=rounds)


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
