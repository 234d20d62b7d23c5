"""Trace export: Chrome trace-event JSON for ``chrome://tracing`` and
Perfetto.

:func:`write_chrome_trace` emits the Trace Event Format those viewers
load directly: one complete ("X") event per finished span, timestamps
in microseconds of simulated time, one pseudo-thread per layer so the
per-layer lanes read like the paper's latency-attribution story.
Span/parent ids ride along in ``args``.  The attribution table itself
needs no file: a run with ``"obs": true`` folds its own spans
(``python -m repro.stack``, :func:`repro.obs.report.attribute`).
"""

from __future__ import annotations

import json
from typing import List

from repro.obs.trace import Tracer

_SECONDS_TO_US = 1e6


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write the Chrome trace JSON; returns *path*."""
    layers = sorted({span.layer for span in tracer.spans}
                    | {instant.layer for instant in tracer.instants})
    tids = {layer: tid for tid, layer in enumerate(layers, start=1)}
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 1,
        "args": {"name": "repro"},
    }]
    for layer, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": layer}})
    for span in tracer.spans:
        if span.end is None:
            continue
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        if span.attrs:
            args.update(span.attrs)
        events.append({
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": span.start * _SECONDS_TO_US,
            "dur": (span.end - span.start) * _SECONDS_TO_US,
            "pid": 1,
            "tid": tids[span.layer],
            "args": args,
        })
    for instant in tracer.instants:
        events.append({
            "name": instant.name,
            "cat": instant.layer,
            "ph": "i",
            "s": "t",
            "ts": instant.time * _SECONDS_TO_US,
            "pid": 1,
            "tid": tids[instant.layer],
            "args": dict(instant.attrs) if instant.attrs else {},
        })
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "spans": len(tracer.spans),
            "instants": len(tracer.instants),
            "dropped": tracer.dropped,
        },
    }
    with open(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return path
