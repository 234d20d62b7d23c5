#!/usr/bin/env python3
"""Compare two ledger results files, metric by metric.

    python benchmarks/ledger/compare.py A.json B.json

A is the parent (baseline), B the change.  For every (workload,
end-to-end metric) the two medians and quartiles are printed with a
verdict, judged by the benchmark's own bounds (``BENCHMARK.json``):

* **regressed** — B's median is worse than A's by more than the bound;
* **unresolved** — not regressed, but the run-to-run spread (quartile
  distance over median, of either side) is wider than the bound, so
  "unchanged" cannot be claimed;
* **improved** — the files hold at least ten paired runs, B wins at
  least nine tenths of them (ties count for neither side) *and* the
  medians differ by more than the distance between A's own quartiles;
* **unchanged** — otherwise.

Sim-clock metrics of one (seed, scale) are deterministic, so for them
the rule is exact equality: any difference is *improved* or
*regressed* by its direction.  Exit status 1 on any regression or when
B failed more operations than A.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from run import HOST_CLOCK, load_contract, quartiles

#: Fewer paired runs than this cannot carry a claimed gain.
MIN_PAIRS = 10


def verdict(entry: dict, a: List[float], b: List[float],
            exact: bool) -> str:
    """*a*, *b*: one value per untraced run (one in all for sim clock)."""
    sign = 1.0 if entry["better"] == "higher" else -1.0
    a_low, a_mid, a_high = quartiles(a)
    b_low, b_mid, b_high = quartiles(b)
    gain = sign * (b_mid - a_mid)          # > 0: B is better
    if exact:
        return ("unchanged" if gain == 0
                else "improved" if gain > 0 else "regressed")
    if -gain > entry["bound"] * abs(a_mid):
        return "regressed"
    spread = max((a_high - a_low) / abs(a_mid),
                 (b_high - b_low) / abs(b_mid))
    if spread > entry["bound"]:
        return "unresolved"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and gain > a_high - a_low):
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, contract: dict) -> int:
    same_inputs = all(a["provenance"][key] == b["provenance"][key]
                      for key in ("seed", "scale"))
    for side, results in (("A", a), ("B", b)):
        origin = results["provenance"]
        print(f"{side}: sha {origin['git_sha']} dirty {origin['git_dirty']} "
              f"seed {origin['seed']} scale {origin['scale']} "
              f"kernel {origin['host']['sim.kernel_events_per_s']:.0f} ev/s")
    status = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        print(f"\n{name}")
        for entry in contract["end_to_end"]:
            metric = entry["name"]
            xs = left["end_to_end"][metric]
            ys = right["end_to_end"][metric]
            exact = same_inputs and metric not in HOST_CLOCK
            result = verdict(entry, xs, ys, exact)
            if result == "regressed":
                status = 1
            (a_low, a_mid, a_high) = quartiles(xs)
            (b_low, b_mid, b_high) = quartiles(ys)
            rule = "exact" if exact else f"bound {entry['bound']:.0%}"
            print(f"  {metric:>18s} [{entry['unit']}] "
                  f"A {a_mid:.6g} ({a_low:.6g}..{a_high:.6g})  "
                  f"B {b_mid:.6g} ({b_low:.6g}..{b_high:.6g})  "
                  f"{b_mid / a_mid - 1:+.2%}  {result} ({rule})")
        failed_a = left["failed"] / left["attempted"]
        failed_b = right["failed"] / right["attempted"]
        print(f"  {'failed_op_share':>18s} A {failed_a:.6g}  B {failed_b:.6g}")
        if failed_b > failed_a:
            print("  regressed: B failed more operations than A")
            status = 1
        if same_inputs:
            drift = [key for key, value in left["exact"].items()
                     if right["exact"].get(key) != value]
            if drift:
                print(f"  sim-clock metrics and exact counts that differ "
                      f"({len(drift)}): {', '.join(sorted(drift)[:12])}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    loaded = []
    for path in argv:
        with open(path) as handle:
            loaded.append(json.load(handle))
    return compare(loaded[0], loaded[1], load_contract())


if __name__ == "__main__":
    sys.exit(main())
