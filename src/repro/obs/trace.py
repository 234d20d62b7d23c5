"""The span tracer: what happened, when, inside what.

A :class:`Span` is one timed interval on one *layer* (``lsm``, ``ftl``,
``ftl.gc``, ``ftl.wal``, ``ocssd``, ``nand``, ``zns``, ...), keyed on
simulated time.  Parentage is explicit — call sites thread the parent
span down the layer stack (host → FTL → controller → chip) — because a
discrete-event simulator interleaves dozens of processes and an ambient
"current span" would attribute one command's wait to another's work.

The tracer records three event kinds:

* spans (``begin``/``end`` or ``complete`` for intervals whose duration
  is known up front, like a NAND media operation);
* instants (errors, notifications — zero-duration marks);
* and nothing else: metrics live in the registry, not the trace.

Overhead discipline: the tracer exists only while an :class:`~
repro.obs.hub.Obs` hub is attached; instrumented hot paths guard with
``if self.obs is not None`` exactly like ``repro.faults``, so a
non-observed run pays one attribute load per operation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class Span:
    """One timed interval.  ``end`` is None until finished."""

    __slots__ = ("span_id", "parent_id", "layer", "name", "start", "end",
                 "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], layer: str,
                 name: str, start: float):
        self.span_id = span_id
        self.parent_id = parent_id
        self.layer = layer
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Instant:
    """A zero-duration mark (error events, notifications)."""

    __slots__ = ("layer", "name", "time", "attrs")

    def __init__(self, layer: str, name: str, time: float,
                 attrs: Optional[Dict[str, Any]] = None):
        self.layer = layer
        self.name = name
        self.time = time
        self.attrs = attrs


class Tracer:
    """Collects spans and instants against one simulated clock.

    ``max_events`` bounds memory on long traced runs: past the cap new
    spans/instants are counted in ``dropped`` instead of stored, so an
    accidental trace of a macro benchmark degrades instead of OOMing.
    """

    def __init__(self, max_events: int = 2_000_000):
        self.sim = None                 # set by Obs.attach
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.max_events = max_events
        self.dropped = 0
        self._next_id = 1

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)

    def begin(self, layer: str, name: str,
              parent: Optional[Span] = None) -> Span:
        """Open a span at the current simulated time.

        Past the event cap the span is counted in ``dropped`` and not
        stored: it still times its caller (latency histograms read their
        samples off spans), it is only missing from the trace.
        """
        span = Span(self._next_id,
                    parent.span_id if parent is not None else None,
                    layer, name, self.sim.now)
        self._next_id += 1
        if len(self.spans) < self.max_events:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def end(self, span: Optional[Span], **attrs: Any) -> None:
        if span is None:
            return
        span.end = self.sim.now
        if attrs:
            if span.attrs is None:
                span.attrs = attrs
            else:
                span.attrs.update(attrs)

    def complete(self, layer: str, name: str, start: float, end: float,
                 parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Record a span whose interval is already known."""
        span = self.begin(layer, name, parent)
        span.start = start
        span.end = end
        if attrs:
            span.attrs = attrs
        return span

    def instant(self, layer: str, name: str, **attrs: Any) -> None:
        if len(self.instants) >= self.max_events:
            self.dropped += 1
            return
        self.instants.append(
            Instant(layer, name, self.sim.now, attrs or None))

    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span.end is not None]


def validate_nesting(spans: List[Span]) -> List[str]:
    """Check every child span's interval lies within its parent's.

    Returns human-readable violations (empty = all nested correctly).
    Unfinished spans are skipped — they are in-flight work at export
    time, not errors.  A tiny epsilon absorbs float noise in simulated
    timestamps.
    """
    epsilon = 1e-12
    by_id = {span.span_id: span for span in spans}
    violations: List[str] = []
    for span in spans:
        if span.end is None or span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            violations.append(
                f"span {span.span_id} ({span.layer}/{span.name}) has "
                f"unknown parent {span.parent_id}")
            continue
        if parent.end is None:
            continue
        if span.start < parent.start - epsilon \
                or span.end > parent.end + epsilon:
            violations.append(
                f"span {span.span_id} ({span.layer}/{span.name}) "
                f"[{span.start:.9f}, {span.end:.9f}] escapes parent "
                f"{parent.span_id} ({parent.layer}/{parent.name}) "
                f"[{parent.start:.9f}, {parent.end:.9f}]")
    return violations
