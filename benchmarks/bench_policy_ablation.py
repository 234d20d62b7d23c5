"""WAF ablation over the FTL policy lab (repro.policies).

The policy plane exists to answer one question the paper's fixed FTL
cannot: *how much write amplification is policy, not physics?*  This
bench sweeps GC victim-selection policy x overwrite workload x
over-provisioning level on a small OX-Block device and reports, per
cell:

* ``waf`` — flash write amplification, ``(flash sectors programmed +
  GC-relocated sectors) / host sectors written``;
* ``victim_p99_us`` — wall-clock p99 of one victim-selection decision
  (the policy's own CPU cost, measured bench-side by
  :class:`repro.policies.TimedVictimPolicy` so the obs registry stays
  deterministic);
* ``gc_stall_s`` — total simulated time user writes spent blocked on
  foreground space reclamation (the ``ftl.gc.stall_s`` histogram);
* ``relocated`` / ``recycled`` — raw GC effort.

Two extra rows run the WLFC-style write-less cache host
(``host="wlfc"``) over the greedy collector: the RAM stage absorbs
re-writes before they reach flash, so its WAF undercuts every bare
policy on skewed workloads — the "measurably lower WAF than greedy"
acceptance row.

The device is deliberately small (4 groups x 2 PUs) and filled past the
GC watermark, so every overwrite pays for space reclamation and policy
differences are visible in minutes-of-CPU, not hours.

Run directly::

    PYTHONPATH=src python benchmarks/bench_policy_ablation.py
    PYTHONPATH=src python benchmarks/bench_policy_ablation.py --smoke
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Dict, List, Optional

from repro.benchhelpers import append_trajectory, git_sha, report
from repro.policies import TimedVictimPolicy
from repro.stack import StackSpec, build_stack
from repro.workloads import ZipfianKeyChooser

GC_POLICIES = ("greedy", "cost_benefit", "age_partitioned")
WORKLOADS = ("uniform", "zipf")
#: Fill fractions of the data region -> over-provisioning levels
#: (0.60 leaves 40 % spare; 0.80 leaves 20 %).
FILL_FRACTIONS = (0.60, 0.80)

#: 4 groups x 2 PUs x 8 chunks; 6 chunks of group 0 go to metadata.
GEOMETRY = dict(num_groups=4, pus_per_group=2, chunks_per_pu=8,
                pages_per_block=6)
#: Eager background collection: the daemon reclaims toward 14 free
#: chunks so sustained overwrites at 80 % utilization never corner the
#: foreground reclaim path (whose zero-gain tolerance is two rounds).
FTL_CONFIG = dict(gc_low_watermark=8, gc_high_watermark=14)

FULL = dict(name="policy_ablation", overwrite_ops=1_500)
SMOKE = dict(name="policy_ablation_smoke", overwrite_ops=300)


def _spec(gc_policy: str, fill: float, *, host: str = "none",
          wlfc_sectors: int = 0, seed: int = 0) -> StackSpec:
    wlfc = {"cache_sectors": wlfc_sectors} if host == "wlfc" else {}
    return StackSpec(
        name=f"ablate_{gc_policy}_{fill}",
        seed=seed,
        geometry=dict(GEOMETRY),
        ftl="oxblock",
        ftl_config=dict(FTL_CONFIG),
        gc_policy=gc_policy,
        host=host,
        wlfc=wlfc,
        obs=True)


def run_cell(gc_policy: str, workload: str, fill: float,
             overwrite_ops: int, *, host: str = "none",
             seed: int = 0) -> Dict[str, object]:
    """One sweep cell: fill to *fill*, overwrite with *workload*, and
    account for every flash write the combination caused."""
    cache = 0
    if host == "wlfc":
        # A small stage: ~10 % of the overwritten span, so absorption
        # is earned by locality, not by caching the whole device.
        cache = 256
    stack = build_stack(_spec(gc_policy, fill, host=host,
                              wlfc_sectors=cache, seed=seed))
    ftl = stack.ftl
    timed = TimedVictimPolicy(ftl.gc.victim_policy)
    ftl.gc.victim_policy = timed
    surface = stack.wlfc if stack.wlfc is not None else ftl

    geometry = stack.device.geometry
    unit = geometry.ws_min
    data_sectors = (ftl.provisioner.free_chunks()
                    * geometry.sectors_per_chunk)
    span_units = int(data_sectors * fill) // unit
    payload = bytes(unit * geometry.sector_size)

    for index in range(span_units):
        surface.write(index * unit, payload)

    if workload == "uniform":
        rng = random.Random(seed + 1)
        choose = lambda: rng.randrange(span_units)
    elif workload == "zipf":
        zipf = ZipfianKeyChooser(span_units, theta=0.99, seed=seed,
                                 stream="policy_ablation")
        choose = zipf.next
    else:   # seq_overwrite: keep re-writing the first quarter of the span
        hot = max(1, span_units // 4)
        cursor = [0]

        def choose() -> int:
            cursor[0] = (cursor[0] + 1) % hot
            return cursor[0]

    for __ in range(overwrite_ops):
        surface.write(choose() * unit, payload)
    surface.flush()
    stack.sim.run()

    flash = ftl.stats.sectors_written
    relocated = ftl.gc.stats.sectors_relocated
    if stack.wlfc is not None:
        host_sectors = stack.wlfc.stats.host_sectors_written
    else:
        host_sectors = flash
    stall = stack.obs.metrics.histogram("ftl.gc.stall_s")
    return {
        "policy": gc_policy if host != "wlfc" else f"wlfc+{gc_policy}",
        "workload": workload,
        "fill": fill,
        "host_sectors": host_sectors,
        "flash_sectors": flash,
        "relocated": relocated,
        "recycled": ftl.gc.stats.chunks_recycled,
        "waf": round((flash + relocated) / host_sectors, 4),
        "victim_p99_us": round(timed.percentile(99) * 1e6, 2),
        "gc_stall_s": round(stall.total(), 6),
        "sim_seconds": round(stack.sim.now, 9),
        "events_processed": stack.sim.events_processed,
    }


def run_sweep(cfg: dict, *, policies=GC_POLICIES, workloads=WORKLOADS,
              fills=FILL_FRACTIONS, wlfc: bool = True,
              seed: int = 0) -> List[Dict[str, object]]:
    rows = []
    for fill in fills:
        for workload in workloads:
            for policy in policies:
                rows.append(run_cell(policy, workload, fill,
                                     cfg["overwrite_ops"], seed=seed))
            if wlfc:
                rows.append(run_cell("greedy", workload, fill,
                                     cfg["overwrite_ops"], host="wlfc",
                                     seed=seed))
    return rows


def format_rows(rows: List[Dict[str, object]]) -> List[str]:
    header = (f"{'policy':>20s} {'workload':>9s} {'fill':>5s} "
              f"{'waf':>7s} {'victim_p99_us':>13s} {'gc_stall_s':>11s} "
              f"{'relocated':>9s}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['policy']:>20s} {row['workload']:>9s} "
            f"{row['fill']:>5.2f} {row['waf']:>7.4f} "
            f"{row['victim_p99_us']:>13.2f} {row['gc_stall_s']:>11.6f} "
            f"{row['relocated']:>9d}")
    return lines


def summarize(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Flat metrics for the results JSON / BENCH trajectory: per-cell
    WAF keyed by ``waf.<policy>.<workload>.<fill>``, plus the headline
    best-vs-greedy delta."""
    metrics: Dict[str, object] = {}
    greedy: Dict[tuple, float] = {}
    best_delta = 0.0
    for row in rows:
        key = (f"waf.{row['policy']}.{row['workload']}."
               f"{int(row['fill'] * 100)}")
        metrics[key] = row["waf"]
        if row["policy"] == "greedy":
            greedy[(row["workload"], row["fill"])] = row["waf"]
    for row in rows:
        base = greedy.get((row["workload"], row["fill"]))
        if base and row["policy"] != "greedy":
            best_delta = max(best_delta, base - row["waf"])
    metrics["best_waf_delta_vs_greedy"] = round(best_delta, 4)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="the same sweep at 300 overwrites per cell")
    parser.add_argument("--append", action="store_true",
                        help="append the summary to BENCH_perf.json")
    args = parser.parse_args(argv)
    cfg = SMOKE if args.smoke else FULL

    rows = run_sweep(cfg)
    metrics = summarize(rows)
    lines = [f"FTL policy ablation ({cfg['name']}, "
             f"{cfg['overwrite_ops']} overwrites per cell)"]
    lines.extend(format_rows(rows))
    lines.append("")
    lines.append(f"best WAF improvement vs greedy: "
                 f"{metrics['best_waf_delta_vs_greedy']}")
    report(cfg["name"], lines, metrics=metrics)
    if args.append:
        append_trajectory(cfg["name"], metrics, sha=git_sha())
    return 0


def test_policy_ablation_smoke():
    """One zipf cell per GC policy plus the write-less-cache row, 60 %
    fill: the overwrite phase still exercises GC under every policy, and
    the WLFC row keeps the bench's "measurably lower WAF than greedy"
    claim honest."""
    ops = SMOKE["overwrite_ops"]
    waf = {policy: run_cell(policy, "zipf", 0.60, ops)["waf"]
           for policy in GC_POLICIES}
    assert all(value > 1.0 for value in waf.values()), waf
    wlfc = run_cell("greedy", "zipf", 0.60, ops, host="wlfc")
    assert wlfc["waf"] < waf["greedy"]


if __name__ == "__main__":
    sys.exit(main())
