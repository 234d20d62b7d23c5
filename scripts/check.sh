#!/bin/sh
# Tier-1 gate: the full test suite plus a perf smoke run with the
# regression check (>30% ops/sec drop vs the committed BENCH_perf.json
# entry fails the build).  No tox, no extra deps — plain pytest.
#
# Usage: scripts/check.sh   (or `make check`)
set -e
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
# The suite must leave benchmarks/results alone (tests/conftest.py points
# report() at tmp_path).  Judged against the state before the run, not a
# clean tree: the guards below rewrite perf_smoke.txt, and a second
# `make check` starts from that.
results_state() {
    git status --porcelain -- benchmarks/results
    git diff -- benchmarks/results | cksum
}
results_before=$(results_state)
python -m pytest -x -q
if [ "$results_before" != "$(results_state)" ]; then
    echo "FAIL: the tier-1 tests wrote into benchmarks/results"
    git status --short -- benchmarks/results
    exit 1
fi

echo "== ledger smoke (the benchmark harness itself) =="
python -m pytest benchmarks/ledger -q

echo "== perf smoke (regression gate) =="
# --repeat 3: the median run becomes the perf_smoke.txt baseline the
# obs/qos overhead guards compare against moments later — a single
# lucky-fast run would fail their 2% floors on pure measurement noise.
python benchmarks/bench_perf_trajectory.py --smoke --check --no-append --repeat 3

echo "== obs guard (tracing overhead + trace validity) =="
python scripts/obs_guard.py

echo "== qos guard (no-qos fast path + isolation smoke) =="
python scripts/qos_guard.py

echo "== stack guard (no inline wiring + spec smoke) =="
python scripts/stack_guard.py

echo "== cluster guard (serial/parallel identity + wrapper overhead) =="
python scripts/cluster_guard.py

echo "== trace guard (record/replay identity + calibration + overhead) =="
python scripts/trace_guard.py

echo "== policy guard (default-policy identity + WAF ablation smoke) =="
python scripts/policy_guard.py

echo "== lsm guard (default bit-identity + concurrency plane smoke) =="
python scripts/lsm_guard.py

echo "== crash-consistency smoke (randomized power cuts) =="
python -m repro.faults.checker --seeds 20

echo "check: OK"
