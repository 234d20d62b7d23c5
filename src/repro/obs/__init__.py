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
* :func:`write_chrome_trace` — Chrome trace-event JSON for
  ``chrome://tracing`` / Perfetto.
* :func:`attribute` / :func:`format_table` — the per-layer latency
  attribution table: inclusive time and critical-path time, which
  splits each root span along what gated it, so the layer rows sum to
  the end-to-end root durations by construction (checked).  A spec
  with ``"obs": true`` run through ``python -m repro.stack`` prints it.
"""

from repro.obs.export import write_chrome_trace
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
    "format_table",
    "percentile_of",
    "validate_nesting",
    "write_chrome_trace",
]
