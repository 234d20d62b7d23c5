#!/usr/bin/env python
"""CI guard for the ``repro.trace`` subsystem (a ``scripts/check.sh`` step).

Four checks:

1. **Schema round-trip** — a representative op list survives both
   codecs (JSONL and binary) byte-for-byte at the record level, and the
   reader rejects a version bump.
2. **Record → replay bit-identity** — the lightlsm smoke spec is
   captured and replayed, serially in-process *and* through the
   ``python -m repro.stack`` CLI; every non-wall metric the two runs
   share must match exactly, and capture itself must not perturb the
   unrecorded timeline.  The same trace then replays through a second
   FTL personality (zns) to prove traces are portable across the
   Figure-1 spectrum.
3. **Calibration recovery** — fitting a synthetic profile drawn around
   the TLC preset must recover the ground-truth latencies within
   ``CALIBRATION_TOLERANCE`` on a *held-out* profile (different seed,
   same device).
4. **Detached-recorder overhead** — the perf smoke without any recorder
   attached (best of three) must stay within ``OVERHEAD_TOLERANCE`` of
   the ``ops_per_sec`` in ``benchmarks/results/perf_smoke.txt``, which
   the perf-smoke step rewrote moments earlier in the same check.  This
   prices the ``sim.trace is None`` guards the capture hooks put on the
   host/block hot paths.

``--append`` records the overhead measurement as a sha-stamped
``trace_overhead`` entry in ``BENCH_perf.json``.

Run from the repo root: ``PYTHONPATH=src python scripts/trace_guard.py``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

from bench_perf_trajectory import SMOKE, run_macro    # noqa: E402
from repro.benchhelpers import (                      # noqa: E402
    append_trajectory,
    git_sha,
    read_baseline_ops,
)
from repro.nand import CellType, timing_for           # noqa: E402
from repro.stack import StackSpec                     # noqa: E402
from repro.stack.runner import run_spec               # noqa: E402
from repro.trace import (                             # noqa: E402
    TraceOp,
    evaluate,
    fit_profile,
    read_trace,
    synth_profile,
    write_trace,
)
from repro.errors import ReproError                   # noqa: E402

OVERHEAD_TOLERANCE = 0.02
CALIBRATION_TOLERANCE = 0.05
BASELINE_PATH = os.path.join(REPO_ROOT, "benchmarks", "results",
                             "perf_smoke.txt")

# The lightlsm trace smoke: two closed-loop clients fill, quiesce, then
# read — small enough for CI, busy enough to exercise streams, phases
# and compaction in the replayed timeline.
TRACE_SMOKE = {
    "name": "trace_smoke",
    "geometry": {"num_groups": 2, "pus_per_group": 2,
                 "chunks_per_pu": 16, "pages_per_block": 6},
    "ftl": "lightlsm",
    "ftl_config": {"chunks_per_sstable": 4},
    "workload": {"kind": "fill_then_read_random", "clients": 2,
                 "ops_per_client": 40, "read_ops_per_client": 60},
}

#: Metrics derived from the wall clock; everything else must replay
#: bit-identically.
WALL_KEYS = {"fill_ops_per_sec", "read_ops_per_sec", "ops_per_sec"}


def replay_spec_dict(trace_path: str, ftl: str = "lightlsm",
                     ftl_config=None) -> dict:
    data = copy.deepcopy(TRACE_SMOKE)
    data["name"] = f"trace_smoke_replay_{ftl}"
    data["ftl"] = ftl
    if ftl_config is not None:
        data["ftl_config"] = ftl_config
    data["workload"] = {"kind": "trace", "trace": trace_path}
    return data


def nonwall(metrics: dict) -> dict:
    return {key: value for key, value in metrics.items()
            if key not in WALL_KEYS}


def compare(label: str, captured: dict, replayed: dict) -> None:
    common = set(captured) & set(replayed) - WALL_KEYS
    diffs = {key: (captured[key], replayed[key])
             for key in sorted(common) if captured[key] != replayed[key]}
    if diffs:
        for key, (want, got) in diffs.items():
            print(f"  {key}: captured {want!r} != replayed {got!r}",
                  file=sys.stderr)
        raise SystemExit(
            f"FAIL: {label}: {len(diffs)} non-wall metric(s) diverged "
            f"between capture and replay")
    if "sim_seconds" not in common or "events_processed" not in common:
        raise SystemExit(
            f"FAIL: {label}: runs share no determinism fingerprint")


def check_schema_round_trip(workdir: str) -> str:
    ops = [
        TraceOp(t=0.0, layer="host", kind="put", stream="fill-0",
                key="k0001", size=1024, fill=65),
        TraceOp(t=0.001, layer="host", kind="barrier", stream="quiesce"),
        TraceOp(t=0.002, layer="host", kind="get", stream="readrand-1",
                key="k0001"),
        TraceOp(t=0.003, layer="block", kind="write", lba=48, sectors=24,
                fill=7),
        TraceOp(t=0.004, layer="block", kind="flush"),
        TraceOp(t=0.005, layer="cluster", kind="read", key="17"),
    ]
    for suffix in (".jsonl", ".trace"):
        path = os.path.join(workdir, f"schema{suffix}")
        meta = write_trace(path, ops, meta={"guard": True})
        got_meta, got_ops = read_trace(path)
        if got_ops != ops:
            raise SystemExit(
                f"FAIL: {suffix} codec did not round-trip the op list")
        if got_meta.get("op_count") != len(ops) != meta["op_count"]:
            raise SystemExit(f"FAIL: {suffix} meta lost the op count")
    bumped = os.path.join(workdir, "bumped.jsonl")
    with open(bumped, "w") as handle:
        handle.write('{"format":"repro.trace","version":99}\n')
    try:
        read_trace(bumped)
    except ReproError:
        pass
    else:
        raise SystemExit("FAIL: reader accepted an unsupported version")
    return "schema round-trip: JSONL + binary codecs OK, version gated"


def check_replay_identity(workdir: str) -> str:
    trace_path = os.path.join(workdir, "smoke.jsonl")

    # Capture must not perturb the simulated timeline.
    plain = run_spec(StackSpec.from_dict(copy.deepcopy(TRACE_SMOKE)))
    captured = run_spec(StackSpec.from_dict(copy.deepcopy(TRACE_SMOKE)),
                        trace_out=trace_path)
    trace_ops = captured.pop("trace_ops")
    if plain != captured:
        raise SystemExit(
            "FAIL: attaching the recorder changed the captured run's "
            f"metrics: {plain} != {captured}")

    # Serial in-process replay.
    replayed = run_spec(StackSpec.from_dict(
        replay_spec_dict(trace_path)))
    compare("serial replay", captured, replayed)
    if replayed["replay_ops"] != trace_ops - 1:   # minus the barrier
        raise SystemExit(
            f"FAIL: replay drove {replayed['replay_ops']} ops from a "
            f"{trace_ops}-record trace")

    # The same replay through the CLI (a fresh interpreter).
    spec_path = os.path.join(workdir, "replay.json")
    with open(spec_path, "w") as handle:
        json.dump(replay_spec_dict(trace_path), handle)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.stack", spec_path,
         "--name", "trace_guard_cli_replay"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("FAIL: python -m repro.stack replay exited "
                         f"{proc.returncode}")
    cli_json = os.path.join(REPO_ROOT, "benchmarks", "results",
                            "trace_guard_cli_replay.json")
    with open(cli_json) as handle:
        cli_metrics = json.load(handle)["metrics"]
    compare("CLI replay", captured, cli_metrics)

    # Portability: the identical trace through a second FTL personality.
    other = run_spec(StackSpec.from_dict(
        replay_spec_dict(trace_path, ftl="zns", ftl_config={})))
    if other["replay_ops"] != replayed["replay_ops"]:
        raise SystemExit(
            f"FAIL: zns replay drove {other['replay_ops']} ops, "
            f"lightlsm drove {replayed['replay_ops']}")
    return (f"replay identity: {trace_ops} records, serial + CLI replays "
            f"bit-identical (sim {captured['sim_seconds']}s, "
            f"{captured['events_processed']} events); "
            f"same trace replayed on zns")


def check_calibration() -> str:
    truth = timing_for(CellType.TLC)
    fit = fit_profile(synth_profile(truth, seed=11), jitter=True)
    held_out = synth_profile(truth, seed=12)
    errors = evaluate(fit.timing, held_out)
    if errors["max"] >= CALIBRATION_TOLERANCE:
        raise SystemExit(
            f"FAIL: calibration held-out error {errors['max']:.4f} "
            f">= {CALIBRATION_TOLERANCE} (per-op: {errors})")
    return (f"calibration: held-out max relative error "
            f"{errors['max']:.4f} < {CALIBRATION_TOLERANCE}")


def check_overhead() -> tuple:
    baseline = read_baseline_ops(BASELINE_PATH)
    best = max(run_macro(SMOKE)["ops_per_sec"] for __ in range(3))
    floor = (1.0 - OVERHEAD_TOLERANCE) * baseline
    verdict = (f"detached-recorder smoke: best-of-3 {best:.1f} ops/s vs "
               f"baseline {baseline:.1f} (floor {floor:.1f})")
    if best < floor:
        raise SystemExit(
            f"FAIL: {verdict} — the trace capture guards cost more than "
            f"{OVERHEAD_TOLERANCE:.0%} with no recorder attached")
    return verdict, {"ops_per_sec": round(best, 1),
                     "baseline_ops_per_sec": round(baseline, 1),
                     "overhead_tolerance": OVERHEAD_TOLERANCE}


def main(argv=None) -> int:
    append = argv is not None and "--append" in argv
    # Overhead first: the measurement wants a fresh heap, before the
    # replay checks churn it with stack builds and subprocess runs.
    verdict, overhead = check_overhead()
    print(verdict)
    with tempfile.TemporaryDirectory(prefix="trace_guard_") as workdir:
        print(check_schema_round_trip(workdir))
        print(check_replay_identity(workdir))
    print(check_calibration())
    if append:
        append_trajectory("trace_overhead", overhead, sha=git_sha())
        print("appended trace_overhead entry to BENCH_perf.json")
    print("trace guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
