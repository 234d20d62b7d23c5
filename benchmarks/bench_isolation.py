"""Noisy-neighbor isolation bench: victim read tail latency vs placement
and scheduling policy (the repro.qos acceptance experiment).

Two tenants share one drive.  The *victim* issues closed-loop 4 KB random
reads against pre-filled chunks; the *aggressor* runs a sustained
write/erase churn (fill a chunk, move on, erase once durable) that keeps
chips busy with 900 us programs and 3.5 ms erases.  Four scenarios:

* ``solo``            — victim alone, no scheduler (the baseline p99);
* ``shared_fifo``     — both tenants striped over every PU, stock FIFO
  resource acquisition (what PR 1..3 shipped);
* ``shared_drr``      — same striping, QosScheduler attached (DRR +
  read priority; informative — chips still finish in-flight programs);
* ``partitioned_drr`` — ``plan_placement(PARTITIONED)`` gives each
  tenant disjoint groups, scheduler attached.

All p99s come from the per-tenant obs histogram
``qos.tenant.victim.read.latency_s`` recorded in ``device.submit``, so
the number is the same end-to-end latency the traced stack reports.

Acceptance (printed as PASS/FAIL, exit 1 on FAIL):

* partitioned_drr p99 <= 2x solo p99  (isolation holds);
* shared_fifo   p99 >= 4x solo p99  (the problem is real).

Run directly::

    PYTHONPATH=src python benchmarks/bench_isolation.py [--smoke]
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Dict, List, Tuple

from repro.benchhelpers import report
from repro.ocssd import ChunkReset, OpenChannelSSD, Ppa, VectorRead, \
    VectorWrite
from repro.qos import TenantContext
from repro.stack import StackSpec, build_stack
from repro.workloads import derive_stream_seed

SECTOR = 4096

# The drive: 4 groups x 2 PUs of TLC (8 chunks/PU, 48 sectors/chunk).
# Small enough that a four-scenario run is a few wall seconds, large
# enough that partitioning can hand each tenant two whole groups.
FULL = dict(name="bench_isolation", groups=4, pus=2, chunks=8, pages=6,
            victim_reads=400, warmup_s=2e-3, seed=11)
SMOKE = dict(FULL, name="bench_isolation_smoke", victim_reads=120)


def build_scenario(cfg: dict, policy: str, with_scheduler: bool):
    """A raw-device stack with obs + two tenants, scheduler optional."""
    return build_stack(StackSpec(
        name=cfg["name"],
        geometry={"num_groups": cfg["groups"], "pus_per_group": cfg["pus"],
                  "chunks_per_pu": cfg["chunks"],
                  "pages_per_block": cfg["pages"]},
        ftl="none", obs=True,
        tenants=[{"name": "victim", "weight": 3.0},
                 {"name": "aggressor", "weight": 1.0}],
        qos_policy=policy, qos_scheduler=with_scheduler))


def fill_victim_chunks(device: OpenChannelSSD,
                       pus: List[Tuple[int, int]],
                       tenant: TenantContext) -> None:
    """Write chunk 0 of every victim PU full (tenant-tagged), then flush
    so the measured reads hit NAND rather than the write-back cache."""
    g = device.geometry
    unit = g.ws_min
    payload = bytes(SECTOR * unit)
    for group, pu in pus:
        for start in range(0, g.sectors_per_chunk, unit):
            ppas = [Ppa(group=group, pu=pu, chunk=0, sector=start + i)
                    for i in range(unit)]
            device.execute(VectorWrite(ppas=ppas, data=payload,
                                       tenant=tenant))
    device.flush()


def victim_proc(device: OpenChannelSSD, pus: List[Tuple[int, int]],
                reads: int, seed: int, tenant: TenantContext):
    """Closed-loop single-sector random reads over the filled chunks."""
    g = device.geometry
    rng = random.Random(derive_stream_seed(seed, "victim"))
    for __ in range(reads):
        group, pu = pus[rng.randrange(len(pus))]
        sector = rng.randrange(g.sectors_per_chunk)
        ppa = Ppa(group=group, pu=pu, chunk=0, sector=sector)
        yield from device.submit(VectorRead(ppas=[ppa], tenant=tenant))


def aggressor_proc(device: OpenChannelSSD, group: int, pu: int,
                   tenant: TenantContext):
    """Endless write/erase churn on chunks 1.. of one PU.

    Fills each chunk through the write-back cache (channel-transfer
    pressure), then erases every chunk once its flush is durable (chip
    pressure: one 3.5 ms erase per chunk, back to back)."""
    g = device.geometry
    unit = g.ws_min
    payload = bytes(SECTOR * unit)
    while True:
        for chunk in range(1, g.chunks_per_pu):
            for start in range(0, g.sectors_per_chunk, unit):
                ppas = [Ppa(group=group, pu=pu, chunk=chunk,
                            sector=start + i) for i in range(unit)]
                yield from device.submit(VectorWrite(
                    ppas=ppas, data=payload, tenant=tenant))
        for chunk in range(1, g.chunks_per_pu):
            probe = Ppa(group=group, pu=pu, chunk=chunk, sector=0)
            while (device.chunk_info(probe).flushed_pointer
                   < g.sectors_per_chunk):
                yield device.sim.timeout(200e-6)
            yield from device.submit(ChunkReset(ppa=probe, tenant=tenant))


def run_scenario(cfg: dict, policy: str, with_scheduler: bool,
                 with_aggressor: bool) -> Dict[str, float]:
    """One fresh device + obs stack; returns victim read stats."""
    stack = build_scenario(cfg, policy, with_scheduler)
    device, sim = stack.device, stack.sim
    victim = stack.tenant("victim")
    aggressor = stack.tenant("aggressor")
    victim_pus = stack.placement_plan[victim]
    fill_victim_chunks(device, victim_pus, victim)

    if with_aggressor:
        for group, pu in stack.placement_plan[aggressor]:
            sim.spawn(aggressor_proc(device, group, pu, aggressor))
        sim.run_until(sim.timeout(cfg["warmup_s"]))

    victim_done = sim.spawn(victim_proc(device, victim_pus,
                                        cfg["victim_reads"], cfg["seed"],
                                        victim))
    sim.run_until(victim_done)

    latency = stack.obs.metrics.histogram(
        "qos.tenant.victim.read.latency_s")
    stats = latency.summary()
    return {"reads": stats["count"], "mean_s": stats["mean"],
            "p50_s": stats["p50"], "p99_s": stats["p99"],
            "max_s": stats["max"]}


def run_all(cfg: dict) -> Dict[str, Dict[str, float]]:
    return {
        "solo": run_scenario(cfg, "shared", with_scheduler=False,
                             with_aggressor=False),
        "shared_fifo": run_scenario(cfg, "shared", with_scheduler=False,
                                    with_aggressor=True),
        "shared_drr": run_scenario(cfg, "shared", with_scheduler=True,
                                   with_aggressor=True),
        "partitioned_drr": run_scenario(cfg, "partitioned",
                                        with_scheduler=True,
                                        with_aggressor=True),
    }


def verdicts(results: Dict[str, Dict[str, float]]) -> List[Tuple[str, bool]]:
    solo = results["solo"]["p99_s"]
    part = results["partitioned_drr"]["p99_s"]
    fifo = results["shared_fifo"]["p99_s"]
    return [
        (f"partitioned_drr p99 <= 2x solo "
         f"({part * 1e6:.0f} us vs {2 * solo * 1e6:.0f} us)",
         part <= 2 * solo),
        (f"shared_fifo p99 >= 4x solo "
         f"({fifo * 1e6:.0f} us vs {4 * solo * 1e6:.0f} us)",
         fifo >= 4 * solo),
    ]


def format_lines(name: str, results: Dict[str, Dict[str, float]]) -> list:
    solo = results["solo"]["p99_s"]
    lines = [f"Isolation: victim 4 KB read latency vs noisy neighbor "
             f"({name})",
             f"  {'scenario':>16s} {'mean':>9s} {'p50':>9s} {'p99':>9s} "
             f"{'p99/solo':>9s}"]
    for scenario, stats in results.items():
        lines.append(
            f"  {scenario:>16s} {stats['mean_s'] * 1e6:7.0f}us "
            f"{stats['p50_s'] * 1e6:7.0f}us {stats['p99_s'] * 1e6:7.0f}us "
            f"{stats['p99_s'] / solo:8.2f}x")
    for label, ok in verdicts(results):
        lines.append(f"  {'PASS' if ok else 'FAIL'}: {label}")
    return lines


def flat_metrics(results: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    flat = {}
    for scenario, stats in results.items():
        for key, value in stats.items():
            flat[f"{scenario}.{key}"] = value
    solo = results["solo"]["p99_s"]
    flat["degradation_shared_fifo"] = results["shared_fifo"]["p99_s"] / solo
    flat["degradation_partitioned_drr"] = (
        results["partitioned_drr"]["p99_s"] / solo)
    return flat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer victim reads (CI smoke run)")
    args = parser.parse_args(argv)
    cfg = SMOKE if args.smoke else FULL
    results = run_all(cfg)
    report(cfg["name"], format_lines(cfg["name"], results),
           metrics=flat_metrics(results))
    return 0 if all(ok for __, ok in verdicts(results)) else 1


def test_isolation_smoke():
    """The acceptance bounds hold even at smoke op counts."""
    results = run_all(SMOKE)
    solo = results["solo"]["p99_s"]
    assert results["partitioned_drr"]["p99_s"] <= 2 * solo
    assert results["shared_fifo"]["p99_s"] >= 4 * solo
    assert results["solo"]["reads"] == SMOKE["victim_reads"]


if __name__ == "__main__":
    sys.exit(main())
