"""``repro.trace``: deterministic workload capture and replay.

The paper's evaluation hinges on running the *same* workload across the
Figure-1 abstraction spectrum.  Seeded generators get most of the way,
but production-shaped traffic (bursty diurnal mixes, Zipf hotspots) has
to be captured once and replayed faithfully.  This package is that
evaluation layer, in two pillars:

* **Capture** — :class:`TraceRecorder`, a sidecar (slot ``trace``, same
  zero-cost-when-detached contract as faults/obs/qos) that records every
  op crossing the host/workload boundary into a versioned JSONL trace
  (:mod:`repro.trace.format`).  ``python -m repro.stack --trace-out``
  emits one.
* **Replay** — :class:`TraceWorkload`, a workload that plugs into
  ``StackSpec.workload`` (``kind="trace"``) and replays a recorded
  trace deterministically: the same trace through the same spec yields
  bit-identical non-wall metrics, and one trace replays across FTL
  personalities for apples-to-apples comparisons.
  Pacing is ``afap`` (closed loop) or ``recorded`` (open loop at the
  captured inter-arrival times).

A replayed trace runs against a device calibrated to measured latencies
through ``StackSpec.timing.profile`` (:func:`repro.nand.load_profile`).
"""

from repro.trace.format import (
    TRACE_VERSION,
    TraceOp,
    read_trace,
    write_trace,
)
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import TraceWorkload

__all__ = [
    "TRACE_VERSION",
    "TraceOp",
    "TraceRecorder",
    "TraceWorkload",
    "read_trace",
    "write_trace",
]
