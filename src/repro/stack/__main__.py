"""``python -m repro.stack <spec.json|spec.toml>``: run a declared stack.

Loads the spec (JSON by content, TOML by ``.toml`` suffix), validates
it, builds and runs the stack, and writes the standard results files
(``benchmarks/results/<name>.txt`` + JSON twin).  Exit code 0 on
success; spec errors print the offending field and exit 2.
"""

from __future__ import annotations

import sys

from repro.stack.runner import cli, run_and_report
from repro.stack.spec import StackSpec


def main(argv=None) -> int:
    metrics = cli(argv, StackSpec, __doc__,
                  "record the run's workload-boundary ops to this JSONL "
                  "trace file", run_and_report)
    return 2 if metrics is None else 0


if __name__ == "__main__":
    sys.exit(main())
