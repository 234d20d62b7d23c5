"""Per-layer latency attribution: where did the simulated time go?

:func:`attribute` folds a run's span forest into one row per layer (and
one per ``(layer, name)``):

* **spans** — finished spans recorded on the layer;
* **total_s** — sum of span durations (inclusive of children, and of
  instances that run side by side);
* **excl_s** — *critical-path* time: each root's interval is split along
  its critical path (what gated the root, layer by layer), and a span is
  charged the stretches of that path none of its children covers.  It
  is never negative, a span off the path gets 0, and summed over all
  layers it equals the summed duration of the root spans by
  construction — the consistency check the paper's §4.3 attribution
  figures rely on: every simulated second of a traced command is
  claimed by exactly one layer, the one it waited on;
* **p50/p95/p99** — nearest-rank percentiles of span duration.

:func:`format_table` ends the results file of a spec with ``"obs":
true`` run through ``python -m repro.stack`` (which exits 1 if the
identity drifts) and the report of ``scripts/profile_stack.py --sim``.
"""

from __future__ import annotations

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
    inclusive and critical-path time.

    Each root is walked back from its end with a cursor: of the children
    starting before the cursor, the one that ends last (ties: the one
    traced first) gated the span from ``min(end, cursor)``, the gap after
    that is the span's own, and the child is walked the same way on
    ``[max(start, lo), min(end, cursor)]`` before the cursor moves to
    that start.  What no child covers is the span's own, so exclusive
    time is >= 0 and sums to the root durations by construction; a span
    off the path charges 0.  (Children of an *unfinished* span are
    excluded from the forest — they have no finished root to be
    consistent against.)
    """
    finished = [span for span in spans if span.end is not None]
    children: Dict[int, List[int]] = {}
    work: List[Tuple[int, float, float]] = []
    for index, span in enumerate(finished):
        parent = span.parent_id
        if parent is None:
            work.append((index, span.start, span.end))
        else:
            kids = children.get(parent)
            if kids is None:
                children[parent] = [index]
            else:
                kids.append(index)

    # The walk, on an explicit stack: a span and the stretch of its
    # parent's critical path it covers (empty when it is off the path).
    exclusive: List[Optional[float]] = [None] * len(finished)
    while work:
        index, lo, hi = work.pop()
        if exclusive[index] is not None:   # reached twice: duplicate ids
            continue
        kids = children.get(finished[index].span_id, ())
        path: Dict[int, Tuple[float, float]] = {}
        cursor = hi
        own = 0.0
        while cursor > lo:
            best, best_end = -1, lo
            for kid in kids:
                span = finished[kid]
                if span.start < cursor and span.end > best_end:
                    best, best_end = kid, span.end
            if best < 0:
                break
            end = best_end if best_end < cursor else cursor
            own += cursor - end
            start = finished[best].start
            cursor = start if start > lo else lo
            path[best] = (cursor, end)
        exclusive[index] = own + cursor - lo if cursor > lo else own
        for kid in kids:
            start, end = path.get(kid, (0.0, 0.0))
            if finished[kid].span_id in children:
                work.append((kid, start, end))
            else:   # a leaf settles here, without a trip through the stack
                exclusive[kid] = end - start

    layers: Dict[str, LayerAttribution] = {}
    names: Dict[Tuple[str, str], LayerAttribution] = {}
    root_total = 0.0
    root_spans = 0
    exclusive_total = 0.0
    for span, own in zip(finished, exclusive):
        if own is None:
            continue
        duration = span.end - span.start
        for table, key in ((layers, span.layer),
                           (names, (span.layer, span.name))):
            row = table.get(key)
            if row is None:
                row = table[key] = LayerAttribution(span.layer)
            row.spans += 1
            row.total += duration
            row.exclusive += own
            row.durations.append(duration)
        exclusive_total += own
        if span.parent_id is None:
            root_total += duration
            root_spans += 1
    return Attribution(layers=layers, root_spans=root_spans,
                       root_total=root_total,
                       exclusive_total=exclusive_total,
                       unfinished=len(spans) - len(finished), names=names)


def format_table(result: Attribution) -> List[str]:
    """The per-layer rows, the end-to-end row (``100.0%`` when the
    identity holds, else ``DRIFT``), then one row per ``(layer, name)``:
    inclusive and critical seconds, critical share, entries."""
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
    lines += ["", "Per-span attribution (simulated seconds)",
              f"  {'inclusive s':>12s} {'critical s':>11s} {'share':>6s} "
              f"{'entries':>8s}  layer/span"]
    lines += [f"  {row.total:12.3f} {row.exclusive:11.3f} "
              f"{100.0 * row.exclusive / denominator:5.1f}% "
              f"{row.spans:8d}  {layer}/{span}"
              for (layer, span), row in sorted(
                  result.names.items(),
                  key=lambda item: (-item[1].exclusive, -item[1].total))]
    return lines
