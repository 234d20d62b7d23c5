"""Shared builders and reporting for the benchmark harness.

Each benchmark regenerates one of the paper's figures.  Results are
printed and also written to ``benchmarks/results/<name>.txt`` so the
series survive pytest's output capture; EXPERIMENTS.md indexes them.
"""

from __future__ import annotations

import datetime
import json
import os
import re
from typing import Iterable, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.lsm import DB, LightLSMEnv, PlacementPolicy
from repro.ocssd import OpenChannelSSD
from repro.stack import StackSpec, build_stack
from repro.units import KIB, MIB

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")
TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_perf.json")

_SLUG_BAD = re.compile(r"[^A-Za-z0-9._-]+")


def result_slug(name: str) -> str:
    """*name* reduced to a filesystem-safe results-file slug.

    Spec names come straight from user JSON; a ``/`` (or ``..``) must
    not escape ``benchmarks/results/``, and an empty name would write
    ``.txt``.  Runs of unsafe characters collapse to one ``-``; edge
    dots and dashes are stripped so the slug can never be a dotfile or
    a path traversal.  Raises :class:`ReproError` when nothing safe
    remains.
    """
    slug = _SLUG_BAD.sub("-", name or "").strip("-.")
    if not slug:
        raise ReproError(
            f"result name {name!r} has no filesystem-safe characters; "
            f"give the spec a non-empty name")
    return slug


def report(name: str, lines: Iterable[str],
           metrics: Optional[Mapping[str, object]] = None) -> str:
    """Print *lines* and persist them under benchmarks/results/.

    *name* is sanitized via :func:`result_slug` before touching the
    filesystem.  With *metrics*, a machine-readable JSON twin is
    written next to the ``.txt`` via :func:`report_json`.
    """
    slug = result_slug(name)
    text = "\n".join(lines)
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{slug}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    if metrics is not None:
        report_json(name, metrics)
    return path


def git_sha(repo_root: str = REPO_ROOT) -> Optional[str]:
    """The repo's short HEAD SHA, or None outside git / without git."""
    try:
        import subprocess
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=repo_root,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def report_json(name: str, metrics: Mapping[str, object]) -> str:
    """Persist *metrics* as ``benchmarks/results/<name>.json``:
    ``{"name", "metrics"}`` only, so a rerun that changes no number
    rewrites the same bytes (the BENCH_perf.json trajectory's entries
    keep their date and sha)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{result_slug(name)}.json")
    with open(path, "w") as handle:
        json.dump({"name": name, "metrics": dict(metrics)}, handle,
                  indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_trajectory(path: str = TRAJECTORY_PATH) -> List[dict]:
    """Read the perf trajectory (a JSON list of entries); [] if absent."""
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        entries = json.load(handle)
    if not isinstance(entries, list):
        raise ValueError(f"{path} must hold a JSON list of entries")
    return entries


def append_trajectory(name: str, metrics: Mapping[str, object],
                      path: str = TRAJECTORY_PATH,
                      sha: Optional[str] = None) -> dict:
    """Append one ``{"name", "date", "metrics", "sha"}`` entry to the perf
    trajectory file and return it.

    Every new entry is stamped with the measured commit's ``sha`` (the
    current HEAD unless the caller passes one; none outside git); legacy
    entries without the key keep loading fine."""
    entries = load_trajectory(path)
    entry = {"name": name, "date": datetime.date.today().isoformat(),
             "metrics": dict(metrics)}
    sha = sha or git_sha()
    if sha:
        entry["sha"] = sha
    entries.append(entry)
    with open(path, "w") as handle:
        json.dump(entries, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return entry


def evaluation_spec(chunks_per_pu: int = 160, **overrides) -> StackSpec:
    """The Figure 4 drive, scaled, as a stack spec: 8 groups x 4 PUs,
    dual-plane TLC, 96 KB write unit; chunks scaled from 24 MB to 192 KB
    (factor 128) so a pure-Python run stays tractable.  SSTable = one
    chunk per PU, as in the paper."""
    return StackSpec(
        geometry={"num_groups": 8, "pus_per_group": 4,
                  "chunks_per_pu": chunks_per_pu, "pages_per_block": 6},
        **overrides)


def lightlsm_db(placement: PlacementPolicy,
                chunks_per_pu: int = 160,
                write_buffer_bytes: int = 4 * MIB,
                flush_workers: int = 1,
                compaction_workers: int = 1,
                dispatch_workers: int = 1,
                dispatch_cpu: float = 0.0) -> Tuple[OpenChannelSSD,
                                                    LightLSMEnv, DB]:
    """The Figure 5/6 stack: RocksDB-lite over LightLSM over the scaled
    evaluation drive, 96 KB blocks, no compression, no block cache.

    The worker counts are the PR-10 concurrency axes; the defaults are
    the paper's configuration (one flush daemon, one compaction daemon,
    one dispatch thread with free submissions)."""
    stack = build_stack(evaluation_spec(
        chunks_per_pu, ftl="lightlsm", placement=placement.name,
        ftl_config={"dispatch_cpu": dispatch_cpu,
                    "dispatch_workers": dispatch_workers},
        db={"block_size": 96 * KIB,
            "write_buffer_bytes": write_buffer_bytes,
            "flush_workers": flush_workers,
            "compaction_workers": compaction_workers}))
    return stack.device, stack.env, stack.db


def format_kops(value: float) -> str:
    return f"{value / 1e3:8.3f}"
