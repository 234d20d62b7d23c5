#!/bin/sh
# Adjudicate a host-clock ledger row against an older commit on interleaved
# runs: scripts/ab.sh <base-sha> <workload> [seed=1] [pairs=10]
# A = <base-sha> in a temporary git worktree, B = this tree.  Each pair is
# one `run.py --repeats 5` per side, order alternating (A B, B A, ...); a
# side's runs are pooled in order, so compare.py pairs children that ran
# minutes apart.  Results land in benchmarks/ledger/out/ (git-ignored).
set -eu
base=$1 workload=$2 seed=${3:-1} pairs=${4:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/benchmarks/ledger/out
tree=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$tree"; rm -rf "$tree"' EXIT
git -C "$root" worktree add --quiet --detach "$tree" "$base"
mkdir -p "$out"
run() {   # run <side> <tree> <pair>
    python3 "$2/benchmarks/ledger/run.py" --workload "$workload" \
        --seed "$seed" --repeats 5 --out "$out/ab-$1-$3.json" >/dev/null
}
pair=0
while [ "$pair" -lt "$pairs" ]; do
    if [ $((pair % 2)) -eq 0 ]; then
        run A "$tree" "$pair"; run B "$root" "$pair"
    else
        run B "$root" "$pair"; run A "$tree" "$pair"
    fi
    pair=$((pair + 1))
done
python3 - "$out" "$pairs" <<'EOF'
import json, sys
out, pairs = sys.argv[1], int(sys.argv[2])
for side in "AB":
    runs = [json.load(open(f"{out}/ab-{side}-{n}.json")) for n in range(pairs)]
    for name, row in runs[0]["workloads"].items():
        for metric, values in row["end_to_end"].items():
            for later in runs[1:]:
                values.extend(later["workloads"][name]["end_to_end"][metric])
    json.dump(runs[0], open(f"{out}/ab-{side}.json", "w"))
EOF
python3 "$root/benchmarks/ledger/compare.py" "$out/ab-A.json" "$out/ab-B.json"
