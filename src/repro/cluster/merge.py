"""Deterministic merge of per-shard worker results into one view.

Shard runs hand back plain dicts (scalar metrics plus an optional
:meth:`~repro.obs.metrics.MetricsRegistry.dump`).  The merge is pure
data-plumbing — sort, prefix, fold — so the merged metrics of a run are
a function of the shard results alone: two runs of one spec produce
bit-identical merged dicts, which is the property ``tests/test_cluster.py::
test_serial_cluster_is_self_deterministic`` pins.

Metric names follow the obs convention with the shard as the leading
namespace: ``cluster.shard3.read_ops``, and for failover retry rounds
``cluster.shard3.retry1.read_ops``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.metrics import MetricsRegistry


def shard_prefix(shard: int, round_no: int) -> str:
    """The metric namespace for one shard execution."""
    if round_no == 0:
        return f"cluster.shard{shard}."
    return f"cluster.shard{shard}.retry{round_no}."


def merge_shard_results(results: List[dict]) -> Dict[str, object]:
    """Fold worker result dicts into one sorted, deterministic dict.

    Scalar metrics land under their shard prefix verbatim; registry
    dumps merge through a fresh :class:`MetricsRegistry` (so histogram
    percentiles are computed over the union of raw samples, exactly as
    a single-process registry would have).
    """
    merged: Dict[str, object] = {}
    registry = MetricsRegistry()
    any_dump = False
    for result in sorted(results,
                         key=lambda r: (r["round"], r["shard"])):
        prefix = shard_prefix(result["shard"], result["round"])
        for key in sorted(result["metrics"]):
            merged[prefix + key] = result["metrics"][key]
        dump = result.get("registry")
        if dump:
            registry.merge(dump, prefix=prefix)
            any_dump = True
    if any_dump:
        merged.update(registry.flat())
    return dict(sorted(merged.items()))
