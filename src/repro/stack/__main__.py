"""``python -m repro.stack <spec.json|spec.toml>``: run a declared stack.

Loads the spec (JSON by content, TOML by ``.toml`` suffix), validates
it, builds and runs the stack, and writes the standard results files
(``benchmarks/results/<name>.txt`` + JSON twin; an ``obs`` spec's ends
with the attribution table).  Exit code 0 on success; a bad spec prints
one line and exits 2; attribution drift prints ``FAIL`` and exits 1.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.stack.runner import AttributionDrift, run_and_report
from repro.stack.spec import load_spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.stack",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("spec", help="path to a JSON or TOML StackSpec")
    parser.add_argument("--name", default=None,
                        help="override the results-file name")
    args = parser.parse_args(argv)
    try:
        spec = load_spec(args.spec)
    except ReproError as exc:
        print(f"invalid spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    try:
        run_and_report(spec, name=args.name)
    except AttributionDrift as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"run failed for {args.spec}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
