#!/usr/bin/env python
"""CI guard for the ``repro.policies`` lab (a ``scripts/check.sh`` step).

Three checks:

1. **Default-policy bit-identity** — the perf macro workload run with
   every policy knob at its default must land on the pinned pre-policy
   baseline exactly (``sim_seconds`` and ``events_processed``).  The
   policy plane is opt-in: merely *existing* must not move a single
   simulated event.  If a PR changes the timeline on purpose, re-pin
   ``PINNED`` here in the same commit and say why.
2. **Default == legacy victim order** — ``resolve_victim_policy
   ("greedy")`` must order a synthetic candidate pool exactly as the
   historical collector's stable ``sorted(key=valid_count)`` over
   table order did, tie-breaks included.
3. **Ablation smoke** — one cell per GC policy plus a write-less-cache
   row (zipf overwrites, 60 % fill) must complete, report WAF > 1 for
   every bare-FTL policy, and the WLFC row must undercut bare greedy —
   the bench's "measurably lower WAF than greedy" acceptance row, kept
   honest on every commit.

``--append`` records the smoke ablation summary as a sha-stamped
``policy_ablation`` entry in ``BENCH_perf.json``.

Run from the repo root: ``PYTHONPATH=src python scripts/policy_guard.py``.
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from bench_perf_trajectory import MACRO, run_macro      # noqa: E402
from bench_policy_ablation import (                     # noqa: E402
    GC_POLICIES,
    SMOKE,
    run_cell,
    summarize,
)
from repro.benchhelpers import append_trajectory, git_sha  # noqa: E402
from repro.ocssd.geometry import DeviceGeometry         # noqa: E402
from repro.nand import FlashGeometry                    # noqa: E402
from repro.ox.ftl.metadata import ChunkTable, FtlChunkState  # noqa: E402
from repro.policies import resolve_victim_policy        # noqa: E402

#: The perf_macro fingerprint of the pre-policy-plane collector.  The
#: default gc_policy/placement_policy must reproduce it bit-for-bit.
PINNED = {"sim_seconds": 9.744491, "events_processed": 78125}


def check_default_identity() -> str:
    metrics = run_macro(MACRO)
    got = {key: metrics[key] for key in PINNED}
    if got != PINNED:
        raise SystemExit(
            f"FAIL: default policies moved the perf_macro timeline: "
            f"expected {PINNED}, got {got}.  If this PR changes the "
            f"timeline on purpose, re-pin policy_guard.PINNED in the "
            f"same commit.")
    return (f"default-policy identity: perf_macro at pinned "
            f"{PINNED['sim_seconds']}s / "
            f"{PINNED['events_processed']} events")


def check_legacy_victim_order() -> str:
    geometry = DeviceGeometry(num_groups=2, pus_per_group=2,
                              flash=FlashGeometry(pages_per_block=6))
    keys = [(group, pu, chunk)
            for group in range(2) for pu in range(2) for chunk in range(8)]
    table = ChunkTable(geometry, iter(keys))
    capacity = geometry.sectors_per_chunk
    # A pool with plenty of ties: valid counts cycle through a few
    # values in table order, exactly where stable-sort order and an
    # accidental reordering would diverge.
    for index, (key, info) in enumerate(table.items()):
        info.state = FtlChunkState.FULL
        info.valid_count = (index * 7) % 5 * (capacity // 8)
    for group in (0, 1):
        candidates = table.gc_candidates(group)
        legacy = sorted(candidates, key=lambda info: info.valid_count)
        chosen = resolve_victim_policy("greedy").select(candidates, table)
        if [info.key for info in chosen] != [info.key for info in legacy]:
            raise SystemExit(
                f"FAIL: default victim order diverged from the legacy "
                f"stable sort in group {group}: "
                f"{[i.key for i in chosen]} != {[i.key for i in legacy]}")
    return ("legacy victim order: default policy == historical stable "
            "sort, ties included")


def check_ablation_smoke() -> tuple:
    rows = [run_cell(policy, "zipf", 0.60, SMOKE["overwrite_ops"])
            for policy in GC_POLICIES]
    rows.append(run_cell("greedy", "zipf", 0.60, SMOKE["overwrite_ops"],
                         host="wlfc"))
    by_policy = {row["policy"]: row for row in rows}
    for policy in GC_POLICIES:
        if by_policy[policy]["waf"] <= 1.0:
            raise SystemExit(
                f"FAIL: {policy} reported WAF "
                f"{by_policy[policy]['waf']} <= 1.0 — the overwrite "
                f"phase no longer exercises GC")
    greedy = by_policy["greedy"]["waf"]
    wlfc = by_policy["wlfc+greedy"]["waf"]
    if wlfc >= greedy:
        raise SystemExit(
            f"FAIL: write-less cache WAF {wlfc} did not undercut bare "
            f"greedy {greedy}")
    verdict = (f"ablation smoke: {len(rows)} cells, greedy WAF {greedy}, "
               f"wlfc {wlfc} "
               f"(-{(greedy - wlfc) / greedy:.0%})")
    return verdict, summarize(rows)


def main(argv=None) -> int:
    append = argv is not None and "--append" in argv
    print(check_default_identity())
    print(check_legacy_victim_order())
    verdict, summary = check_ablation_smoke()
    print(verdict)
    if append:
        append_trajectory("policy_ablation", summary, sha=git_sha())
        print("appended policy_ablation entry to BENCH_perf.json")
    print("policy guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
