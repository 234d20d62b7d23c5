"""WAF of OX-Block's greedy collector, bare and behind a write-less cache.

The paper's §2.3 claim is that a host-side FTL lets the application
bring its own knowledge.  This bench measures how much write
amplification that knowledge removes when it sits *above* the FTL: each
cell fills a small OX-Block device to a fraction of its data region,
overwrites it with a uniform or zipf workload, and reports

* ``waf`` — flash write amplification, ``(flash sectors programmed +
  GC-relocated sectors) / host sectors written``;
* ``gc_stall_s`` — total simulated time user writes spent blocked on
  foreground space reclamation (the ``ftl.gc.stall_s`` histogram);
* ``relocated`` — raw GC effort;

for the bare greedy collector (``greedy``) and for the same device
behind the WLFC-style write-less cache host (``wlfc+greedy``), whose
RAM stage absorbs re-writes before they reach flash.  Victim order and
placement inside the FTL were swept too and removed: they landed within
a few percent of greedy/striped (EXPERIMENTS "Sweeping FTL policies").

The device is deliberately small (4 groups x 2 PUs) and filled past the
GC watermark, so every overwrite pays for space reclamation.

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
from repro.stack import StackSpec, build_stack
from repro.workloads import ZipfianKeyChooser

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


def _spec(fill: float, *, host: str = "none", wlfc_sectors: int = 0,
          seed: int = 0) -> StackSpec:
    wlfc = {"cache_sectors": wlfc_sectors} if host == "wlfc" else {}
    return StackSpec(
        name=f"ablate_{host}_{fill}",
        seed=seed,
        geometry=dict(GEOMETRY),
        ftl="oxblock",
        ftl_config=dict(FTL_CONFIG),
        host=host,
        wlfc=wlfc,
        obs=True)


def run_cell(workload: str, fill: float, overwrite_ops: int, *,
             host: str = "none", seed: int = 0) -> Dict[str, object]:
    """One sweep cell: fill to *fill*, overwrite with *workload*, and
    account for every flash write the combination caused."""
    cache = 0
    if host == "wlfc":
        # A small stage: ~10 % of the overwritten span, so absorption
        # is earned by locality, not by caching the whole device.
        cache = 256
    stack = build_stack(_spec(fill, host=host, wlfc_sectors=cache,
                              seed=seed))
    ftl = stack.ftl
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
    else:
        zipf = ZipfianKeyChooser(span_units, theta=0.99, seed=seed,
                                 stream="policy_ablation")
        choose = zipf.next

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
        "policy": "wlfc+greedy" if host == "wlfc" else "greedy",
        "workload": workload,
        "fill": fill,
        "host_sectors": host_sectors,
        "flash_sectors": flash,
        "relocated": relocated,
        "recycled": ftl.gc.stats.chunks_recycled,
        "waf": round((flash + relocated) / host_sectors, 4),
        "gc_stall_s": round(stall.total(), 6),
        "sim_seconds": round(stack.sim.now, 9),
        "events_processed": stack.sim.events_processed,
    }


def run_sweep(cfg: dict) -> List[Dict[str, object]]:
    return [run_cell(workload, fill, cfg["overwrite_ops"], host=host)
            for fill in FILL_FRACTIONS for workload in WORKLOADS
            for host in ("none", "wlfc")]


def format_rows(rows: List[Dict[str, object]]) -> List[str]:
    header = (f"{'policy':>20s} {'workload':>9s} {'fill':>5s} "
              f"{'waf':>7s} {'gc_stall_s':>11s} {'relocated':>9s}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['policy']:>20s} {row['workload']:>9s} "
            f"{row['fill']:>5.2f} {row['waf']:>7.4f} "
            f"{row['gc_stall_s']:>11.6f} {row['relocated']:>9d}")
    return lines


def summarize(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Flat metrics for the results JSON / BENCH trajectory: per-cell
    WAF keyed by ``waf.<policy>.<workload>.<fill>``, plus the headline:
    the most WAF the cache took off bare greedy in any cell."""
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


def format_report(cfg: dict, rows: List[Dict[str, object]],
                  metrics: Dict[str, object]) -> List[str]:
    lines = [f"Greedy vs write-less cache ({cfg['name']}, "
             f"{cfg['overwrite_ops']} overwrites per cell)"]
    lines.extend(format_rows(rows))
    lines.append("")
    lines.append(f"best WAF improvement vs greedy: "
                 f"{metrics['best_waf_delta_vs_greedy']}")
    return lines


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
    report(cfg["name"], format_report(cfg, rows, metrics), metrics=metrics)
    if args.append:
        append_trajectory(cfg["name"], metrics, sha=git_sha())
    return 0


def test_policy_ablation_smoke():
    """The smoke sweep rewrites its results table, so a change that moves
    a cell shows in ``git diff benchmarks/results`` (the JSON twin is
    written by ``--smoke`` only).  The zipf
    cell at 60 % fill, bare and cached: the overwrite phase still
    exercises GC, and the WLFC row keeps the bench's "measurably lower
    WAF than greedy" claim honest."""
    rows = run_sweep(SMOKE)
    report(SMOKE["name"], format_report(SMOKE, rows, summarize(rows)))
    waf = {(row["policy"], row["workload"], row["fill"]): row["waf"]
           for row in rows}
    greedy = waf["greedy", "zipf", 0.60]
    assert greedy > 1.0
    assert waf["wlfc+greedy", "zipf", 0.60] < greedy


if __name__ == "__main__":
    sys.exit(main())
