#!/usr/bin/env python
"""CI guard for the observability subsystem (a ``scripts/check.sh`` step).

Two checks:

1. **Overhead** — the tracing-*disabled* perf smoke (best of three, to
   damp scheduler noise) must stay within ``OVERHEAD_TOLERANCE`` of the
   ``ops_per_sec`` recorded in ``benchmarks/results/perf_smoke.txt``.
   The perf-smoke step that runs moments earlier in the same check
   rewrites that file, so the comparison is same-machine/same-load and
   isolates the cost of the ``if obs is not None`` hot-path guards.
2. **Trace validity** — a traced run of the same workload must export a
   Chrome trace that ``json.loads`` back, whose spans nest correctly
   and whose per-layer attribution is consistent (layer exclusive
   times sum to the end-to-end root durations).  The attribution table
   is printed, and the trace is left in ``benchmarks/results/`` as an
   inspectable artifact.

Run from the repo root: ``PYTHONPATH=src python scripts/obs_guard.py``.
"""

from __future__ import annotations

import json
import os
import random
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from bench_perf_trajectory import SMOKE, run_macro, stack_spec   # noqa: E402
from repro.benchhelpers import read_baseline_ops      # noqa: E402
from repro.obs import (                               # noqa: E402
    Obs,
    attribute,
    format_table,
    spans_from_chrome,
    validate_nesting,
    write_chrome_trace,
)
from repro.stack import build_stack                   # noqa: E402

SECTOR = 4096
OVERHEAD_TOLERANCE = 0.02
BASELINE_PATH = os.path.join(REPO_ROOT, "benchmarks", "results",
                             "perf_smoke.txt")
TRACE_PATH = os.path.join(REPO_ROOT, "benchmarks", "results",
                          "obs_smoke_trace.json")


def check_overhead() -> str:
    baseline = read_baseline_ops(BASELINE_PATH)
    best = max(run_macro(SMOKE)["ops_per_sec"] for __ in range(3))
    floor = (1.0 - OVERHEAD_TOLERANCE) * baseline
    verdict = (f"disabled-tracing smoke: best-of-3 {best:.1f} ops/s vs "
               f"baseline {baseline:.1f} (floor {floor:.1f})")
    if best < floor:
        raise SystemExit(
            f"FAIL: {verdict} — instrumentation overhead exceeds "
            f"{OVERHEAD_TOLERANCE:.0%} with tracing disabled")
    return verdict


def traced_smoke(cfg: dict, trace_path: str) -> Obs:
    """The perf-smoke workload with an Obs hub attached, trace exported."""
    stack = build_stack(stack_spec(cfg, obs=True))
    device, obs, ftl = stack.device, stack.obs, stack.ftl
    unit = device.geometry.ws_min
    payload = bytes(unit * SECTOR)
    for op in range(cfg["fill_ops"]):
        ftl.write(op * unit, payload)
    ftl.flush()
    rng = random.Random(17)
    lba_span = cfg["fill_ops"] * unit
    for __ in range(cfg["read_ops"]):
        ftl.read(rng.randrange(lba_span), 1)
    device.sim.run()
    write_chrome_trace(obs.tracer, trace_path)
    return obs


def check_trace_validity() -> None:
    obs = traced_smoke(SMOKE, TRACE_PATH)
    if not obs.tracer.spans:
        raise SystemExit("FAIL: traced smoke recorded no spans")
    with open(TRACE_PATH) as handle:
        document = json.loads(handle.read())   # must round-trip
    complete = [e for e in document["traceEvents"] if e.get("ph") == "X"]
    if len(complete) != len(obs.tracer.finished_spans()):
        raise SystemExit(
            f"FAIL: chrome trace has {len(complete)} complete events, "
            f"tracer finished {len(obs.tracer.finished_spans())} spans")
    spans = spans_from_chrome(TRACE_PATH)
    violations = validate_nesting(spans)
    if violations:
        for violation in violations[:10]:
            print(f"  {violation}", file=sys.stderr)
        raise SystemExit(
            f"FAIL: {len(violations)} span-nesting violation(s) in "
            f"the exported trace")
    result = attribute(spans)
    print("\n".join(format_table(result)))
    if not result.consistent:
        raise SystemExit(
            f"FAIL: attribution drift: layer exclusive sum "
            f"{result.exclusive_total:.9f} != end-to-end "
            f"{result.root_total:.9f}")
    print(f"traced smoke: {len(spans)} spans, nesting OK, "
          f"attribution consistent; trace at {TRACE_PATH}")


def main() -> int:
    print(check_overhead())
    check_trace_validity()
    print("obs guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
