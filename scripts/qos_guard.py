#!/usr/bin/env python
"""CI guard for the QoS subsystem (a ``scripts/check.sh`` step).

Two checks:

1. **No-QoS fast path** — with no scheduler attached, the hot paths pay
   one ``self.qos`` attribute load per command; the perf smoke (best of
   three, to damp scheduler noise) must stay within
   ``OVERHEAD_TOLERANCE`` of the ``ops_per_sec`` recorded in
   ``benchmarks/results/perf_smoke.txt``.  The perf-smoke step that runs
   moments earlier in the same check rewrites that file, so the
   comparison is same-machine/same-load and isolates the cost of the
   tenant plumbing and ``if qos is None`` guards.
2. **Isolation smoke** — the noisy-neighbor experiment at smoke op
   counts must still show both acceptance bounds: victim read p99 under
   partitioned placement + DRR within 2x its solo p99, and the shared
   FIFO baseline degrading it by at least 4x.

Run from the repo root: ``PYTHONPATH=src python scripts/qos_guard.py``.
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from bench_isolation import SMOKE as ISOLATION_SMOKE   # noqa: E402
from bench_isolation import run_all, verdicts           # noqa: E402
from bench_perf_trajectory import SMOKE, run_macro      # noqa: E402
from repro.benchhelpers import read_baseline_ops        # noqa: E402

OVERHEAD_TOLERANCE = 0.02
BASELINE_PATH = os.path.join(REPO_ROOT, "benchmarks", "results",
                             "perf_smoke.txt")


def check_fast_path() -> str:
    baseline = read_baseline_ops(BASELINE_PATH)
    best = max(run_macro(SMOKE)["ops_per_sec"] for __ in range(3))
    floor = (1.0 - OVERHEAD_TOLERANCE) * baseline
    verdict = (f"no-qos smoke: best-of-3 {best:.1f} ops/s vs "
               f"baseline {baseline:.1f} (floor {floor:.1f})")
    if best < floor:
        raise SystemExit(
            f"FAIL: {verdict} — qos plumbing costs more than "
            f"{OVERHEAD_TOLERANCE:.0%} with no scheduler attached")
    return verdict


def check_isolation() -> None:
    results = run_all(ISOLATION_SMOKE)
    failed = False
    for label, ok in verdicts(results):
        print(f"  {'PASS' if ok else 'FAIL'}: {label}")
        failed = failed or not ok
    if failed:
        raise SystemExit(
            "FAIL: isolation smoke lost an acceptance bound (see above)")


def main() -> int:
    print(check_fast_path())
    check_isolation()
    print("qos guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
