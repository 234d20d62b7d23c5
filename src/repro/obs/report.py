"""Per-layer latency attribution: where did the simulated time go?

``python -m repro.obs.report trace.jsonl`` reads an event log exported
by :func:`repro.obs.export.write_jsonl` (or, with ``--chrome``, a Chrome
trace JSON) and prints one row per layer:

* **spans** — finished spans recorded on the layer;
* **total_s** — sum of span durations (inclusive of children);
* **excl_s** — *exclusive* time: duration minus time covered by child
  spans, i.e. the layer's own contribution.  Summed over all layers
  this equals the summed duration of the root spans, which is the
  consistency check the paper's §4.3 attribution figures rely on —
  every simulated second of a traced command is claimed by exactly one
  layer;
* **p50/p95/p99** — nearest-rank percentiles of span duration.

The same computation is importable (:func:`attribute`) so tests and the
ledger's ``obs.identity_ok`` row assert the sum identity instead of
eyeballing the table.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import percentile_of
from repro.obs.trace import Span


@dataclass
class LayerAttribution:
    layer: str
    spans: int = 0
    total: float = 0.0
    exclusive: float = 0.0
    durations: List[float] = field(default_factory=list)

    def percentile(self, q: float) -> float:
        return percentile_of(sorted(self.durations), q)


@dataclass
class Attribution:
    """The per-layer breakdown plus the end-to-end reference."""

    layers: Dict[str, LayerAttribution]
    root_spans: int
    root_total: float          # end-to-end: summed root span durations
    exclusive_total: float     # must equal root_total (the identity)
    unfinished: int
    #: The same fold per ``(layer, name)``: what each kind of span costs.
    names: Dict[Tuple[str, str], LayerAttribution]

    @property
    def consistent(self) -> bool:
        tolerance = max(1e-9, 1e-6 * max(self.root_total, 1e-12))
        return abs(self.exclusive_total - self.root_total) <= tolerance


def attribute(spans: List[Span]) -> Attribution:
    """Fold a span forest into per-layer (and per ``(layer, name)``)
    inclusive/exclusive time.

    Exclusive time is duration minus the duration of direct children;
    each span is subtracted from exactly one parent, so layer exclusive
    times sum to the root durations no matter how layers interleave.
    (Children of an *unfinished* span are excluded from the forest —
    they have no finished root to be consistent against.)
    """
    finished = [span for span in spans if span.end is not None]
    by_id = {span.span_id: span for span in finished}
    child_time: Dict[int, float] = {}
    rooted: List[Span] = []
    for span in finished:
        # Walk to the root; drop spans whose ancestry leaves the
        # finished set (unfinished or unknown parent).
        cursor = span
        while cursor.parent_id is not None:
            parent = by_id.get(cursor.parent_id)
            if parent is None:
                break
            cursor = parent
        else:
            rooted.append(span)
            if span.parent_id is not None:
                child_time[span.parent_id] = \
                    child_time.get(span.parent_id, 0.0) + span.duration

    layers: Dict[str, LayerAttribution] = {}
    names: Dict[Tuple[str, str], LayerAttribution] = {}
    root_total = 0.0
    root_spans = 0
    exclusive_total = 0.0
    for span in rooted:
        duration = span.duration
        exclusive = duration - child_time.get(span.span_id, 0.0)
        for table, key in ((layers, span.layer),
                           (names, (span.layer, span.name))):
            row = table.get(key)
            if row is None:
                row = table[key] = LayerAttribution(span.layer)
            row.spans += 1
            row.total += duration
            row.exclusive += exclusive
            row.durations.append(duration)
        exclusive_total += exclusive
        if span.parent_id is None:
            root_total += duration
            root_spans += 1
    return Attribution(layers=layers, root_spans=root_spans,
                       root_total=root_total,
                       exclusive_total=exclusive_total,
                       unfinished=len(spans) - len(finished), names=names)


def format_table(result: Attribution) -> List[str]:
    lines = [
        "Per-layer latency attribution (simulated seconds)",
        f"{'layer':<16s} {'spans':>7s} {'total_s':>12s} {'excl_s':>12s} "
        f"{'share':>7s} {'p50_s':>12s} {'p95_s':>12s} {'p99_s':>12s}",
    ]
    denominator = result.root_total or 1.0
    for name in sorted(result.layers,
                       key=lambda n: -result.layers[n].exclusive):
        layer = result.layers[name]
        lines.append(
            f"{name:<16s} {layer.spans:>7d} {layer.total:>12.6f} "
            f"{layer.exclusive:>12.6f} "
            f"{100 * layer.exclusive / denominator:>6.1f}% "
            f"{layer.percentile(50):>12.6f} {layer.percentile(95):>12.6f} "
            f"{layer.percentile(99):>12.6f}")
    lines.append(
        f"{'end-to-end':<16s} {result.root_spans:>7d} "
        f"{result.root_total:>12.6f} {result.exclusive_total:>12.6f} "
        f"{'100.0%' if result.consistent else 'DRIFT':>7s}")
    if result.unfinished:
        lines.append(f"  ({result.unfinished} unfinished span(s) excluded)")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Print the per-layer latency-attribution table "
                    "for a traced run.")
    parser.add_argument("trace", help="event log (JSONL from "
                        "repro.obs.export.write_jsonl, or a Chrome "
                        "trace JSON with --chrome)")
    parser.add_argument("--chrome", action="store_true",
                        help="input is Chrome trace-event JSON")
    args = parser.parse_args(argv)

    if args.chrome:
        from repro.obs.export import spans_from_chrome
        spans = spans_from_chrome(args.trace)
    else:
        from repro.obs.export import read_jsonl
        spans, __, __ = read_jsonl(args.trace)
    if not spans:
        print("no spans in trace", file=sys.stderr)
        return 1
    result = attribute(spans)
    print("\n".join(format_table(result)))
    if not result.consistent:
        print(f"FAIL: layer exclusive sum {result.exclusive_total:.9f} != "
              f"end-to-end {result.root_total:.9f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
