"""``python -m repro.cluster <spec.json|spec.toml>``: run a declared fleet.

Loads the cluster spec (JSON by content, TOML by ``.toml`` suffix),
validates it, runs the cluster, and writes the standard results files
(``benchmarks/results/<name>.txt`` + JSON twin).  Exit code 0 on
success; spec errors print the offending field and exit 2; a run that
loses reads (no live replica) exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cluster.runner import run_and_report_cluster
from repro.cluster.spec import ClusterSpec
from repro.errors import ReproError


def load_cluster_spec(path: str) -> ClusterSpec:
    if path.endswith(".toml"):
        import tomllib
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    else:
        with open(path) as handle:
            data = json.load(handle)
    return ClusterSpec.from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description=__doc__.split("\n")[0])
    parser.add_argument("spec", help="path to a JSON or TOML ClusterSpec")
    parser.add_argument("--name", default=None,
                        help="override the results-file name")
    parser.add_argument("--trace-out", default=None,
                        help="record the routed cluster workload to this "
                             "trace file (replayable via workload.trace)")
    args = parser.parse_args(argv)
    try:
        spec = load_cluster_spec(args.spec)
    except ReproError as exc:
        print(f"invalid spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_and_report_cluster(spec, name=args.name,
                                        trace_out=args.trace_out)
    except ReproError as exc:
        print(f"run failed for {args.spec}: {exc}", file=sys.stderr)
        return 2
    if result.reads_lost:
        print(f"{result.reads_lost} read(s) lost "
              f"(no live replica)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
