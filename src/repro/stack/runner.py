"""Execute a :class:`StackSpec`'s workload and emit the results files.

``run_spec`` builds the stack, drives the declared workload, and
returns a flat metrics dict; ``python -m repro.stack spec.json`` (see
``__main__``) additionally persists the usual harness artifacts —
``benchmarks/results/<name>.txt`` plus its JSON twin — through
:func:`repro.benchhelpers.report`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Mapping, Optional

from repro.errors import ReproError
from repro.stack import personality
from repro.stack.build import build_stack
from repro.stack.spec import StackSpec, load_spec


def run_spec(spec: StackSpec,
             trace_out: Optional[str] = None) -> Dict[str, object]:
    """Build the stack, run its workload, return the metrics.

    With *trace_out*, a :class:`repro.trace.TraceRecorder` rides along
    and the captured trace is written there.  Recording appends to a
    list outside the event loop, so the captured run's simulated
    timeline is identical to an unrecorded one.
    """
    stack = build_stack(spec)
    recorder = None
    if trace_out:
        from repro.trace.recorder import TraceRecorder
        recorder = TraceRecorder(boundary=personality.capture_boundary(
            spec)).attach(stack.device)
    metrics = personality.run_workload(stack)
    metrics["sim_seconds"] = round(stack.sim.now, 9)
    metrics["events_processed"] = stack.sim.events_processed
    if stack.wlfc is not None:
        wstats = stack.wlfc.stats
        metrics["wlfc_host_sectors"] = wstats.host_sectors_written
        metrics["wlfc_flash_sectors"] = wstats.flash_sectors_written
        metrics["wlfc_absorbed_rewrites"] = wstats.absorbed_rewrites
        metrics["wlfc_write_reduction"] = round(wstats.write_reduction, 4)
    if stack.faults is not None:
        metrics["media_ops"] = stack.faults.stats.media_ops
        metrics["power_cuts"] = stack.faults.stats.power_cuts
    if recorder is not None:
        recorder.write(trace_out, meta={"spec": spec.to_dict()})
        metrics["trace_ops"] = len(recorder.ops)
    return metrics


def report_table(label: str, header: str,
                 table: Mapping[str, object]) -> None:
    """*header* over one aligned ``key = value`` line per metric, printed
    and written as the standard results files."""
    # Imported here: benchhelpers itself builds stacks from specs.
    from repro.benchhelpers import report
    # Align on the longest key, at least the historical 18 columns.
    width = max(18, max((len(key) for key in table), default=0))
    report(label, [header, *(f"  {key:>{width}s} = {value}"
                             for key, value in table.items())],
           metrics=table)


def run_and_report(spec: StackSpec,
                   name: Optional[str] = None,
                   trace_out: Optional[str] = None) -> Dict[str, object]:
    """``run_spec`` + the standard results files; returns the metrics."""
    metrics = run_spec(spec, trace_out=trace_out)
    label = name or spec.name
    report_table(label, f"Stack run: {label} (ftl={spec.ftl}, "
                        f"host={spec.resolved_host}, workload="
                        f"{spec.workload.kind if spec.workload else 'none'})",
                 metrics)
    return metrics


def cli(argv, cls, doc: str, trace_help: str, run: Callable):
    """``python -m repro.stack`` / ``repro.cluster``: load the *cls*
    spec file named in *argv*, return ``run(spec, name=, trace_out=)``;
    a spec or run error prints the file and returns None (exit 2)."""
    parser = argparse.ArgumentParser(
        prog=f"python -m {cls.__module__.rpartition('.')[0]}",
        description=doc.split("\n")[0])
    parser.add_argument("spec", help=f"path to a JSON or TOML {cls.__name__}")
    parser.add_argument("--name", default=None,
                        help="override the results-file name")
    parser.add_argument("--trace-out", default=None, help=trace_help)
    args = parser.parse_args(argv)
    try:
        spec = load_spec(args.spec, cls)
    except ReproError as exc:
        print(f"invalid spec {args.spec}: {exc}", file=sys.stderr)
        return None
    try:
        return run(spec, name=args.name, trace_out=args.trace_out)
    except ReproError as exc:
        print(f"run failed for {args.spec}: {exc}", file=sys.stderr)
        return None
