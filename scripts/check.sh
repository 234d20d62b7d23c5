#!/bin/sh
# The gate, three steps; pytest is the only check registry.  No tox, no
# extra deps.
#
# Usage: scripts/check.sh   (or `make check`)
set -e
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
tree_before=$(git status --porcelain)

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== the ledger harness, the bench smokes and every paper figure =="
python -m pytest benchmarks -q
# Each figure bench rewrites its tracked results file: same bytes, or fail.
git diff --exit-code benchmarks/results

echo "== crash-consistency smoke (randomized power cuts) =="
# Base seed 300: tests/test_crash_consistency.py already ran 36 of the
# default seeds' cut points per FTL (oxblock, eleos) in step 1; these
# 120 (2 FTLs x 3 profiles x 20 seeds) are new ones.
python -m repro.faults.checker --seeds 20 --base-seed 300

# Tests report into tmp_path (tests/conftest.py): from a clean tree the
# tree is clean afterwards, and work in progress is not mistaken for a
# leak.
if [ "$tree_before" != "$(git status --porcelain)" ]; then
    echo "FAIL: the check wrote into the tree"
    git status --short
    exit 1
fi

echo "check: OK"
