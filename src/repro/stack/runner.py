"""Execute a :class:`StackSpec`'s workload and emit the results files.

``run_spec`` builds the stack, drives the declared workload, and
returns a flat metrics dict; ``python -m repro.stack spec.json`` (see
``__main__``) additionally persists the usual harness artifacts —
``benchmarks/results/<name>.txt`` plus its JSON twin — through
:func:`repro.benchhelpers.report`; an ``obs`` run's ``.txt`` file ends
with the latency-attribution table of its spans.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ReproError
from repro.obs.report import attribute, format_table
from repro.stack import personality
from repro.stack.build import Stack, build_stack
from repro.stack.spec import StackSpec


class AttributionDrift(ReproError):
    """An ``obs`` run whose per-layer critical-path seconds do not sum to
    its roots' total."""


def run_spec(spec: StackSpec) -> Dict[str, object]:
    """Build the stack, run its workload, return the metrics."""
    return _run(spec)[0]


def _run(spec: StackSpec) -> Tuple[Dict[str, object], Stack]:
    """:func:`run_spec`'s metrics, and the stack that ran."""
    stack = build_stack(spec)
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
    return metrics, stack


def run_and_report(spec: StackSpec,
                   name: Optional[str] = None) -> Dict[str, object]:
    """``run_spec`` + the standard results files; returns the metrics.

    An ``obs`` run's ``.txt`` file ends with the attribution table of
    every span the run began; if its layer rows do not sum to the
    end-to-end row, :class:`AttributionDrift` follows the files."""
    # Imported here: benchhelpers itself builds stacks from specs.
    from repro.benchhelpers import report
    metrics, stack = _run(spec)
    label = name or spec.name
    # Align on the longest key, at least the historical 18 columns.
    width = max(18, max((len(key) for key in metrics), default=0))
    header = (f"Stack run: {label} (ftl={spec.ftl}, "
              f"host={spec.resolved_host}, workload="
              f"{spec.workload.kind if spec.workload else 'none'})")
    lines = [header, *(f"  {key:>{width}s} = {value}"
                       for key, value in metrics.items())]
    if stack.obs is None:
        report(label, lines, metrics=metrics)
        return metrics
    attribution = attribute(stack.obs.tracer.spans)
    report(label, [*lines, "", *format_table(attribution)], metrics=metrics)
    if not attribution.consistent:
        raise AttributionDrift(
            f"layer exclusive sum {attribution.exclusive_total:.9f} != "
            f"end-to-end {attribution.root_total:.9f}")
    return metrics
