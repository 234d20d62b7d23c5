"""Trace exporters: Chrome trace-event JSON and a JSONL event log.

* :func:`write_chrome_trace` emits the Trace Event Format that
  ``chrome://tracing`` and Perfetto load directly: one complete ("X")
  event per finished span, timestamps in microseconds of simulated
  time, one pseudo-thread per layer so the per-layer lanes read like
  the paper's latency-attribution story.  Span/parent ids ride along in
  ``args`` so tooling can rebuild the tree from the exported file.
* :func:`write_jsonl` / :func:`read_jsonl` round-trip the full event
  log (spans, instants, metric summaries) one JSON object per line —
  the format ``python -m repro.obs.report`` consumes.  Both readers
  raise a :class:`~repro.errors.ReproError` naming the file, the line
  (or event) and the field of a record they cannot use.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.errors import ReproError
from repro.obs.trace import Instant, Span, Tracer

if TYPE_CHECKING:
    from repro.obs.hub import Obs

_SECONDS_TO_US = 1e6


def _layer_tids(tracer: Tracer) -> Dict[str, int]:
    layers = sorted({span.layer for span in tracer.spans}
                    | {instant.layer for instant in tracer.instants})
    return {layer: tid for tid, layer in enumerate(layers, start=1)}


def chrome_trace_events(tracer: Tracer, pid: int = 1) -> List[dict]:
    """The ``traceEvents`` list for one tracer's finished spans."""
    tids = _layer_tids(tracer)
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": "repro"},
    }]
    for layer, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
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
            "pid": pid,
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
            "pid": pid,
            "tid": tids[instant.layer],
            "args": dict(instant.attrs) if instant.attrs else {},
        })
    return events


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write the Chrome trace JSON; returns *path*."""
    document = {
        "traceEvents": chrome_trace_events(tracer),
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


def write_jsonl(obs: "Obs", path: str) -> str:
    """Write the full event log (spans, instants, metrics) as JSONL."""
    with open(path, "w") as handle:
        for span in obs.tracer.spans:
            handle.write(json.dumps(span.to_dict()) + "\n")
        for instant in obs.tracer.instants:
            handle.write(json.dumps(instant.to_dict()) + "\n")
        for name, summary in obs.metrics.snapshot().items():
            # The summary's own "type" is the instrument kind; it must
            # not clobber the record discriminator read_jsonl switches on.
            record = dict(summary)
            record["kind"] = record.pop("type")
            record["type"] = "metric"
            record["name"] = name
            handle.write(json.dumps(record) + "\n")
    return path


def _open(path: str):
    try:
        return open(path, errors="replace")
    except OSError as error:
        raise ReproError(f"{path}: cannot read the trace "
                         f"({error.strerror})") from None


def _require(record: dict, key: str, where: str):
    """``record[key]``, or a ReproError naming *where* and the field."""
    if key not in record:
        raise ReproError(f"{where}: missing field {key!r}")
    return record[key]


def _number(record: dict, key: str, where: str) -> float:
    value = _require(record, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ReproError(f"{where}: field {key!r} is {value!r}, "
                         f"not a number")
    return value


def _span(where: str, span_id, parent_id, layer, name, start: float,
          end: Optional[float]) -> Span:
    if end is not None and end < start:
        raise ReproError(f"{where}: span ends at {end} before it starts "
                         f"at {start}")
    span = Span(span_id, parent_id, layer, name, start)
    span.end = end
    return span


def read_jsonl(path: str) -> Tuple[List[Span], List[Instant], List[dict]]:
    """Parse a JSONL event log back into spans, instants and metric rows."""
    spans: List[Span] = []
    instants: List[Instant] = []
    metrics: List[dict] = []
    with _open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{number}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(f"{where}: not JSON ({error.msg})") from None
            if not isinstance(record, dict):
                raise ReproError(f"{where}: not a JSON object")
            kind = record.get("type")
            if kind == "span":
                end = record.get("end")
                span = _span(where, _require(record, "id", where),
                             record.get("parent"),
                             _require(record, "layer", where),
                             _require(record, "name", where),
                             _number(record, "start", where),
                             None if end is None
                             else _number(record, "end", where))
                span.attrs = record.get("attrs")
                spans.append(span)
            elif kind == "instant":
                instants.append(Instant(_require(record, "layer", where),
                                        _require(record, "name", where),
                                        _number(record, "time", where),
                                        record.get("attrs")))
            elif kind == "metric":
                metrics.append(record)
    return spans, instants, metrics


def spans_from_chrome(path: str) -> List[Span]:
    """Rebuild spans from an exported Chrome trace (ids live in args)."""
    with _open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise ReproError(f"{path}:{error.lineno}: not JSON "
                             f"({error.msg})") from None
    events = document.get("traceEvents") if isinstance(document, dict) \
        else document
    if not isinstance(events, list):
        raise ReproError(f"{path}: no traceEvents list")
    spans: List[Span] = []
    for index, event in enumerate(events):
        where = f"{path}: traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ReproError(f"{where}: not a JSON object")
        if event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        start = _number(event, "ts", where)
        spans.append(_span(
            where, args.get("span_id", 0), args.get("parent_id"),
            event.get("cat", "?"), _require(event, "name", where),
            start / _SECONDS_TO_US,
            (start + _number(event, "dur", where)) / _SECONDS_TO_US))
    return spans
