#!/usr/bin/env python
"""Profile any declared stack: cProfile + per-layer exclusive time.

Runs a :class:`repro.stack.StackSpec` workload (a spec file, or the
perf-trajectory macro/smoke shapes) under ``cProfile`` and reports where
the wall time actually goes, twice over:

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

``--ledger W --sim`` asks the other clock: simulated seconds (and
entries) inside the FTL's generators during the workload's timed phase —
on an OX-Block stack the collector's entry points, the phases of a GC
round, the checkpoint and its WAL truncation; on an OX-ELEOS stack the
LLAMA engine's flush / read / clean, the FTL's append / read / free /
checkpoint, the WAL flush and the chunk resets.  The generators are
wrapped on the built stack and ``sim.now`` differenced; nothing under
``src/`` changes and the sim clock is the unprofiled one.  ``--tree PATH``
profiles another checkout (a clone of the parent commit, say) and
``--append`` adds the report to the results file instead of replacing it,
so one file carries both sides of an A/B.

``--sample`` swaps cProfile for a SIGPROF sampler (1 kHz of CPU time):
cProfile's per-call cost inflates call-heavy Python and charges C-level
work (namedtuple construction, a slab ``join``'s memcpy) to nobody, so
shares read off it are skewed; samples see the process as it runs
unprofiled.  Same layer buckets, self and cumulative share per function.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/profile_stack.py --bench macro
    PYTHONPATH=src python scripts/profile_stack.py --bench smoke --top 40
    PYTHONPATH=src python scripts/profile_stack.py examples/specs/lightlsm_smoke.json
    PYTHONPATH=src python scripts/profile_stack.py --ledger oxblock_gc_zipf --sample
    python scripts/profile_stack.py --ledger oxblock_gc_zipf --sim --tree /root/scratch/parent
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
    """Import ``repro``, the benches and the ledger's attribution table
    (``layers.layer_of``) from the checkout at *root*."""
    for sub in ("src", "benchmarks", os.path.join("benchmarks", "ledger")):
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


def bench_spec(shape: str):
    """The perf-trajectory stack (macro or smoke) as a profiling target,
    including its workload, so `--bench macro` profiles exactly what the
    recorded BENCH_perf.json numbers measure."""
    from bench_perf_trajectory import MACRO, SMOKE, stack_spec

    cfg = {"macro": MACRO, "smoke": SMOKE}[shape]
    overrides = {"workload": {"kind": "raw_fill_read",
                              "fill_ops": cfg["fill_ops"],
                              "read_ops": cfg["read_ops"]}}
    if cfg.get("qos"):
        overrides["tenants"] = [{"name": "bench"}]
    return stack_spec(cfg, **overrides)


def ledger_run(name: str, sim_rows=None) -> Callable[[], dict]:
    """The timed phase of a ledger workload (seed 1, full scale), set up
    and prefilled outside the profile as the ledger does.  With
    *sim_rows* (a dict to fill), the FTL's generators are wrapped after
    the prefill: see :func:`watch_sim_time`."""
    from repro.stack import build_stack
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[name]
    stack = build_stack(workload.spec(1, False))
    plan = workload.prepare(stack, 1, "full")
    tally = Tally()

    def run() -> dict:
        if sim_rows is not None:
            watch_sim_time(stack, sim_rows)
        started = stack.sim.now
        workload.run(stack, plan, tally)
        return {"attempted": tally.attempted, "raised": tally.raised,
                "mismatched": tally.mismatched,
                "sim_seconds": round(stack.sim.now - started, 6)}
    return run


#: The collector's entry points, as either tree names them.
COLLECT = ("collect_until_locked_proc", "collect_round_locked_proc",
           "collect_once_locked_proc", "collect_group_locked_proc")


def watch_sim_time(stack, rows: Dict[str, list]) -> None:
    """Wrap the stack's FTL generators (OX-Block's background work, or
    LLAMA's and OX-ELEOS's every entry point) so *rows* fills with
    ``label -> [entries, active, since, seconds]``: *seconds* is the
    simulated time during which at least one instance was running (side
    by side children count once; a nested row is inside its caller's
    time, as in any cumulative profile).  A tree without a method has no
    row for it."""
    ftl = getattr(stack, "ftl", None)
    sim = stack.sim
    # The durability plane: a tree from before the journal keeps the ring
    # on the FTL and has no row for the checkpoint it does not wrap.
    journal = getattr(ftl, "journal", ftl)

    def running(labels) -> bool:
        return any(rows[label][1] for label in labels if label in rows)

    def watch(owner, method, label, within=(), outside=()):
        proc = getattr(owner, method, None)
        if proc is None:
            return
        row = rows.setdefault(label, [0, 0, 0.0, 0.0])

        def watched(*args, **kwargs):
            if (within and not running(within)) or running(outside):
                return (yield from proc(*args, **kwargs))
            row[0] += 1
            if not row[1]:
                row[2] = sim.now
            row[1] += 1
            try:
                return (yield from proc(*args, **kwargs))
            finally:
                row[1] -= 1
                if not row[1]:
                    row[3] += sim.now - row[2]

        setattr(owner, method, watched)

    if hasattr(ftl, "free_segment_proc"):       # OX-ELEOS under LLAMA
        for method in ("flush_proc", "read_proc", "clean_once_proc"):
            watch(stack.engine, method, f"LlamaEngine.{method}")
        for method in ("append_buffer_proc", "read_page_proc",
                       "free_segment_proc", "_do_checkpoint_proc"):
            watch(ftl, method, f"OXEleos.{method}")
        watch(journal, "checkpoint_proc", "  Journal.checkpoint_proc")
        watch(journal.wal, "flush_proc", "wal.flush_proc")
        watch(ftl.media, "reset_proc", "media.reset_proc")
        return
    if not hasattr(ftl, "gc"):
        raise SystemExit(
            "--sim needs a workload on an OX-Block or OX-ELEOS stack")
    gc, media, wal = ftl.gc, ftl.media, journal.wal
    checkpoint = ("OXBlock._do_checkpoint_proc",)
    for name in COLLECT:
        watch(gc, name, name)
    watch(gc, "_find_live_sectors_proc", "  round: scan")
    watch(media, "copy_proc", "  round: copy")
    watch(media, "flush_proc", "  round: device flush", COLLECT, checkpoint)
    watch(wal, "flush_proc", "  round: commit", COLLECT)
    watch(media, "reset_proc", "  round: reset", COLLECT, checkpoint)
    watch(ftl, "_do_checkpoint_proc", checkpoint[0])
    watch(journal, "checkpoint_proc", "  Journal.checkpoint_proc")
    watch(wal, "truncate_proc", "    WalAppender.truncate_proc")
    watch(wal, "flush_proc", "WalAppender.flush_proc")


def format_sim_report(name: str, tree: str, metrics: dict,
                      rows: Dict[str, list]) -> str:
    import subprocess
    from repro.benchhelpers import git_sha
    total = metrics["sim_seconds"] or 1.0
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                           cwd=tree, capture_output=True).stdout.strip()
    where = (f"{'this tree' if tree == REPO_ROOT else tree}, "
             f"{git_sha(tree)}{' + uncommitted src/ changes' if dirty else ''}")
    lines = [f"Sim-time split: {name} ({where})", "",
             *(f"  {key:>18s} = {value}" for key, value in metrics.items()),
             "", f"  {'simulated s':>12s} {'share':>6s} {'entries':>8s}  "
                 "generator (indented: inside the row above it)"]
    lines += [f"  {seconds:12.3f} {100.0 * seconds / total:5.1f}% "
              f"{entries:8d}  {label}"
              for label, (entries, __, __, seconds) in rows.items()
              if entries]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("spec", nargs="?", default=None,
                        help="path to a JSON or TOML StackSpec to profile")
    parser.add_argument("--bench", choices=("macro", "smoke"), default=None,
                        help="profile the perf-trajectory stack instead "
                             "of a spec file")
    parser.add_argument("--ledger", default=None, metavar="WORKLOAD",
                        help="profile the timed phase of a "
                             "benchmarks/ledger workload instead")
    parser.add_argument("--sample", action="store_true",
                        help="SIGPROF sampling at 1 kHz instead of cProfile")
    parser.add_argument("--sim", action="store_true",
                        help="with --ledger: simulated seconds inside "
                             "the FTL's generators (OX-Block background "
                             "work, or LLAMA over OX-ELEOS)")
    parser.add_argument("--tree", default=REPO_ROOT, metavar="PATH",
                        help="profile the src/ and benchmarks/ of another "
                             "checkout (default: this one)")
    parser.add_argument("--append", action="store_true",
                        help="append the report to the results file")
    parser.add_argument("--top", type=int, default=25, metavar="N",
                        help="functions to list after the layer table "
                             "(default 25)")
    args = parser.parse_args(argv)

    if sum(x is not None for x in (args.spec, args.bench, args.ledger)) != 1:
        parser.error("give one of: a spec file, --bench macro|smoke, "
                     "--ledger WORKLOAD")
    if args.sim and args.ledger is None:
        parser.error("--sim needs --ledger WORKLOAD")
    tree = os.path.abspath(args.tree)
    use_tree(tree)
    sim_rows: Dict[str, list] = {}
    if args.ledger is not None:
        run = ledger_run(args.ledger, sim_rows if args.sim else None)
        name = f"ledger_{args.ledger}"
    else:
        from repro.stack.runner import run_spec
        if args.bench is not None:
            spec = bench_spec(args.bench)
            name = f"perf_{args.bench}"
        else:
            from repro.stack.__main__ import load_spec
            spec = load_spec(args.spec)
            name = spec.name
        run = lambda: run_spec(spec)   # noqa: E731

    if args.sim:
        text = format_sim_report(name, tree, run(), sim_rows)
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
