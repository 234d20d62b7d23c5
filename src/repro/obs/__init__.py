"""End-to-end tracing, metrics and latency attribution (``repro.obs``).

The paper's §4.3 claims are about *where* time goes — channel
interference, controller copy cost, GC-vs-compaction overlap.  This
subsystem makes that visible for any run:

* :class:`Obs` — the hub: attach it to a device *before* building the
  FTL/LSM stack and every layer starts tracing spans and recording
  metrics; leave it off and the hot paths pay one ``is None`` check.
* :class:`MetricsRegistry` — latency and wait histograms (p50/p95/p99)
  under per-layer namespaces (``nand.*``, ``ocssd.*``, ``ftl.gc.*``,
  ``lsm.*``) and the error and spawn counters; every other count lives
  in its layer's ``stats``.
* Exporters — Chrome trace-event JSON (``chrome://tracing``/Perfetto)
  and a JSONL event log.
* ``python -m repro.obs.report run.jsonl`` — the per-layer latency
  attribution table: inclusive time and critical-path time, which splits
  each root span along what gated it, so the layer rows sum to the
  end-to-end root durations by construction (checked).
"""

from repro.obs.export import (
    chrome_trace_events,
    read_jsonl,
    spans_from_chrome,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.hub import Obs
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    percentile_of,
)
from repro.obs.report import Attribution, attribute, format_table
from repro.obs.trace import Instant, Span, Tracer, validate_nesting

__all__ = [
    "Attribution",
    "Counter",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "Obs",
    "Span",
    "Tracer",
    "attribute",
    "chrome_trace_events",
    "format_table",
    "percentile_of",
    "read_jsonl",
    "spans_from_chrome",
    "validate_nesting",
    "write_chrome_trace",
    "write_jsonl",
]
