"""``python -m repro.cluster <spec.json|spec.toml>``: run a declared fleet.

Loads the cluster spec (JSON by content, TOML by ``.toml`` suffix),
validates it, runs the cluster, and writes the standard results files
(``benchmarks/results/<name>.txt`` + JSON twin).  Exit code 0 on
success; spec errors print the offending field and exit 2; a run that
loses reads (no live replica) exits 1.
"""

from __future__ import annotations

import sys

from repro.cluster.runner import run_and_report_cluster
from repro.cluster.spec import ClusterSpec
from repro.stack.runner import cli


def main(argv=None) -> int:
    result = cli(argv, ClusterSpec, __doc__,
                 "record the routed cluster workload to this trace file "
                 "(replayable via workload.trace)", run_and_report_cluster)
    if result is None:
        return 2
    if result.reads_lost:
        print(f"{result.reads_lost} read(s) lost "
              f"(no live replica)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
