#!/usr/bin/env python
"""Profile any declared stack: cProfile + per-layer exclusive time.

Runs a :class:`repro.stack.StackSpec` workload (a spec file, or the
timed phase of a ``benchmarks/ledger`` workload) under ``cProfile`` and
reports where the wall time actually goes, twice over:

1. **Per-layer attribution** — every profiled function is charged to the
   stack layer that owns its source file, by the ledger's own table
   (``benchmarks/ledger/layers.py::layer_of``: ``sim``, ``nand``,
   ``ocssd``, ``ox.ftl``, ``ox.block``, ``policies``, ... and ``python``
   for the rest), so a row here and a ``<layer>.host_share`` there mean
   the same files.  Exclusive (tottime) seconds, so the table answers
   "which layer is hot", not "which layer is on the call path" — a
   question cumtime cannot answer through ``yield from`` chains.
2. **Top functions** — the usual cProfile top-N by tottime, for drilling
   into the hot layer.

``--ledger W --sim`` asks the other clock: the workload runs with
``repro.obs`` attached (``workload.spec(seed, obs=True)``, the ledger's
own sim-clock pass; tracing does not move the sim clock) and the spans
its timed phase began are folded by one
:func:`repro.obs.report.attribute` call and printed by
:func:`repro.obs.report.format_table` — the table ``python -m
repro.stack`` prints for an ``obs`` spec — under a header naming the
commit profiled.
``--tree PATH`` profiles another checkout (a clone of the parent
commit, say; its header reads "parent clone" and its commit, never
PATH) and ``--append`` adds the report to the results file
instead of replacing it, so one file carries both sides of an A/B.

``--sample`` swaps cProfile for a SIGPROF sampler (1 kHz of CPU time):
cProfile's per-call cost inflates call-heavy Python and charges C-level
work (namedtuple construction, a slab ``join``'s memcpy) to nobody, so
shares read off it are skewed; samples see the process as it runs
unprofiled.  Same layer buckets, self and cumulative share per function.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/profile_stack.py examples/specs/lightlsm_smoke.json
    PYTHONPATH=src python scripts/profile_stack.py --ledger oxblock_fill_read --top 40
    PYTHONPATH=src python scripts/profile_stack.py --ledger oxblock_gc_zipf --sample
    python scripts/profile_stack.py --ledger oxblock_gc_zipf --sim --tree ../parent
    python scripts/profile_stack.py --ledger oxblock_gc_zipf --sim --append
    python scripts/profile_stack.py --ledger eleos_llama --sim

The report prints and is also written to
``benchmarks/results/profile_<name>.txt``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import signal
import sys
from collections import Counter
from typing import Callable, Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def use_tree(root: str) -> None:
    """Import ``repro`` and the ledger (its workloads and its attribution
    table ``layers.layer_of``) from the checkout at *root*."""
    for sub in ("src", os.path.join("benchmarks", "ledger")):
        sys.path.insert(0, os.path.join(root, sub))


def layer_table(stats: pstats.Stats) -> List[Tuple[str, float, int]]:
    """``(layer, exclusive_seconds, calls)`` rows, hottest first."""
    from layers import layer_of
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (filename, _line, _func), row in stats.stats.items():
        cc, nc, tt, ct, callers = row
        layer = layer_of(filename)
        seconds[layer] = seconds.get(layer, 0.0) + tt
        calls[layer] = calls.get(layer, 0) + nc
    return sorted(((layer, seconds[layer], calls[layer])
                   for layer in seconds),
                  key=lambda item: item[1], reverse=True)


def run_profiled(run: Callable[[], dict]) -> Tuple[dict, pstats.Stats]:
    profiler = cProfile.Profile()
    profiler.enable()
    metrics = run()
    profiler.disable()
    return metrics, pstats.Stats(profiler)


def run_sampled(name: str, run: Callable[[], dict], top: int) -> str:
    """Run under a 1 kHz ``ITIMER_PROF`` and report where the samples
    fell: *self* is the running frame, *cumulative* every frame on its
    stack (``yield from`` chains included), once per function."""
    from layers import layer_of
    self_hits: Counter = Counter()
    cum_hits: Counter = Counter()

    def on_tick(_signum, frame) -> None:
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append((code.co_filename, code.co_firstlineno,
                          code.co_qualname))
            frame = frame.f_back
        self_hits[stack[0]] += 1
        cum_hits.update(set(stack))

    signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
    try:
        metrics = run()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
    total = sum(self_hits.values()) or 1
    layers: Counter = Counter()
    for (filename, _line, _func), hits in self_hits.items():
        layers[layer_of(filename)] += hits
    lines = [f"Sampled profile: {name} ({total} samples, 1 kHz asked)", "",
             *(f"  {key:>18s} = {value}" for key, value in metrics.items()),
             "", "Self share by layer:",
             *(f"  {layer:>12s}  {100.0 * hits / total:5.1f}%"
               for layer, hits in layers.most_common())]
    for title, table in (("self", self_hits), ("cumulative", cum_hits)):
        lines += ["", f"Top {top} functions by {title} share:"]
        lines += [f"  {100.0 * hits / total:5.1f}%  {func}  "
                  f"({os.path.relpath(filename, REPO_ROOT)}:{line})"
                  for (filename, line, func), hits in table.most_common(top)]
    return "\n".join(lines)


def format_report(name: str, metrics: dict, stats: pstats.Stats,
                  top: int) -> str:
    total = sum(tt for (_f, _l, _fn), (cc, nc, tt, ct, cl)
                in stats.stats.items())
    lines = [f"Profile: {name}", "",
             "Workload metrics:"]
    lines.extend(f"  {key:>18s} = {value}"
                 for key, value in metrics.items())
    lines += ["", f"Per-layer exclusive time (total {total:.3f}s):"]
    for layer, seconds, ncalls in layer_table(stats):
        share = 100.0 * seconds / total if total else 0.0
        lines.append(f"  {layer:>12s}  {seconds:8.3f}s  {share:5.1f}%"
                     f"  ({ncalls} calls)")
    buffer = io.StringIO()
    stats.stream = buffer
    stats.sort_stats("tottime").print_stats(top)
    lines += ["", f"Top {top} functions by exclusive time:",
              buffer.getvalue().rstrip()]
    return "\n".join(lines)


def ledger_run(name: str, obs: bool = False, scale: str = "full"):
    """The timed phase of a ledger workload (seed 1), set up and prefilled
    outside the profile as the ledger does; returns ``(stack, run)``."""
    from repro.stack import build_stack
    from workloads import WORKLOADS, Tally
    workload = WORKLOADS[name]
    stack = build_stack(workload.spec(1, obs))
    plan = workload.prepare(stack, 1, scale)
    tally = Tally()

    def run() -> dict:
        started = stack.sim.now
        workload.run(stack, plan, tally)
        return {"attempted": tally.attempted, "raised": tally.raised,
                "mismatched": tally.mismatched,
                "sim_seconds": round(stack.sim.now - started, 6)}
    return stack, run


def sim_table(name: str, scale: str = "full"):
    """The traced timed phase of ledger workload *name*: its metrics and
    the :func:`repro.obs.report.attribute` of the spans it began."""
    from repro.obs.report import attribute
    stack, run = ledger_run(name, obs=True, scale=scale)
    tracer = stack.obs.tracer
    first = len(tracer.spans)
    metrics = run()
    metrics["spans_dropped"] = tracer.dropped
    return metrics, attribute(tracer.spans[first:])


def format_sim_report(name: str, tree: str, metrics: dict, table) -> str:
    import subprocess
    from repro.benchhelpers import git_sha
    from repro.obs.report import format_table
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                           cwd=tree, capture_output=True).stdout.strip()
    # Another checkout is named by its commit alone: its path is local to
    # the machine and must not land in a tracked results file.
    where = (f"{'this tree' if tree == REPO_ROOT else 'parent clone'}, "
             f"{git_sha(tree)}{' + uncommitted src/ changes' if dirty else ''}")
    return "\n".join([f"Sim-time split: {name} ({where})", "",
                      *(f"  {key:>18s} = {value}"
                        for key, value in metrics.items()),
                      "", *format_table(table)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("spec", nargs="?", default=None,
                        help="path to a JSON or TOML StackSpec to profile")
    parser.add_argument("--ledger", default=None, metavar="WORKLOAD",
                        help="profile the timed phase of a "
                             "benchmarks/ledger workload instead")
    parser.add_argument("--sample", action="store_true",
                        help="SIGPROF sampling at 1 kHz instead of cProfile")
    parser.add_argument("--sim", action="store_true",
                        help="with --ledger: inclusive and critical-path "
                             "simulated seconds per (layer, span) from a "
                             "traced run")
    parser.add_argument("--tree", default=REPO_ROOT, metavar="PATH",
                        help="profile the src/ and benchmarks/ of another "
                             "checkout (default: this one)")
    parser.add_argument("--append", action="store_true",
                        help="append the report to the results file")
    parser.add_argument("--top", type=int, default=25, metavar="N",
                        help="functions to list after the layer table "
                             "(default 25)")
    args = parser.parse_args(argv)

    if (args.spec is None) == (args.ledger is None):
        parser.error("give one of: a spec file, --ledger WORKLOAD")
    if args.sim and args.ledger is None:
        parser.error("--sim needs --ledger WORKLOAD")
    tree = os.path.abspath(args.tree)
    use_tree(tree)
    if args.ledger is not None:
        from workloads import WORKLOADS
        if args.ledger not in WORKLOADS:
            parser.error(f"unknown ledger workload {args.ledger!r}; "
                         f"choose from {sorted(WORKLOADS)}")
        name = f"ledger_{args.ledger}"
        run = None if args.sim else ledger_run(args.ledger)[1]
    else:
        from repro.errors import ReproError
        from repro.stack.runner import run_spec
        from repro.stack.spec import load_spec
        try:
            spec = load_spec(args.spec)
        except ReproError as exc:
            print(f"invalid spec {args.spec}: {exc}", file=sys.stderr)
            return 2
        name = spec.name
        run = lambda: run_spec(spec)   # noqa: E731

    if args.sim:
        text = format_sim_report(name, tree, *sim_table(args.ledger))
    elif args.sample:
        text = run_sampled(name, run, max(1, args.top))
    else:
        metrics, stats = run_profiled(run)
        text = format_report(name, metrics, stats, max(1, args.top))
    print(text)
    results_dir = os.path.join(REPO_ROOT, "benchmarks", "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"profile_{name}.txt")
    with open(path, "a" if args.append else "w") as handle:
        handle.write(("\n" if args.append else "") + text + "\n")
    print(f"\nreport written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
