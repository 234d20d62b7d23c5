"""The observability hub: one tracer + one metrics registry per stack.

Wiring follows the ``repro.faults`` pattern: every instrumented object
carries an ``obs`` attribute that is ``None`` in normal operation, so
the disabled hot path costs one attribute load and identity check.
:meth:`Obs.attach` wires the device, its controller and chips, and the
shared :class:`~repro.sim.core.Simulator` — layers built *afterwards*
(OX-Block, OX-ZNS, the LSM engine, the WAL appender, the collector)
inherit the hub from ``sim.obs`` at construction.  Attach first, build
the stack second::

    device = OpenChannelSSD(geometry=...)
    obs = Obs().attach(device)
    ftl = OXBlock.format(MediaManager(device), BlockConfig())
    ...run a workload...
    write_chrome_trace(obs.tracer, "trace.json")

The hub adds what no layer keeps: spans, latency and wait histograms,
``{layer}.errors.*`` and the spawn count.  What a layer did is counted
in its own ``stats``; the hub does not copy it.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.sidecar import OBS_SLOT, Sidecar

if TYPE_CHECKING:
    from repro.ocssd.device import OpenChannelSSD


class Obs(Sidecar):
    """Attaches tracing + metrics to one device stack."""

    slot = OBS_SLOT

    def __init__(self, max_events: int = 2_000_000):
        super().__init__()
        self.tracer = Tracer(max_events=max_events)
        self.metrics = MetricsRegistry()
        self.sim = None

    # -- wiring (Sidecar protocol) ------------------------------------------

    def sidecar_targets(self, device: "OpenChannelSSD"):
        # The simulator carries an obs slot too: layers built after attach
        # (FTLs, the LSM engine) inherit the hub from ``sim.obs``.
        return (device, device.controller, device.sim,
                *device.chips.values())

    def _sidecar_wire(self, device: "OpenChannelSSD") -> None:
        self.sim = device.sim
        self.tracer.sim = device.sim

    # -- tracing shortcuts ------------------------------------------------

    def begin(self, layer: str, name: str,
              parent: Optional[Span] = None) -> Span:
        return self.tracer.begin(layer, name, parent)

    def end(self, span: Optional[Span], **attrs) -> None:
        self.tracer.end(span, **attrs)

    def complete(self, layer: str, name: str, start: float, end: float,
                 parent: Optional[Span] = None, **attrs) -> Span:
        return self.tracer.complete(layer, name, start, end, parent, **attrs)

    def instant(self, layer: str, name: str, **attrs) -> None:
        self.tracer.instant(layer, name, **attrs)

    def close(self, span: Span, histogram: str, **attrs) -> None:
        """End *span* and record its duration in *histogram*: a latency
        or wait histogram is read off the span that timed it."""
        self.tracer.end(span, **attrs)
        self.metrics.histogram(histogram).record(span.duration)

    # -- cross-layer event vocabulary --------------------------------------

    def error(self, layer: str, name: str, detail: str = "") -> None:
        """An absorbed/background error: an instant in the trace plus a
        per-layer counter, so 'how many errors did the daemons swallow'
        is one metrics lookup instead of a log grep."""
        self.metrics.counter(f"{layer}.errors").increment()
        self.metrics.counter(f"{layer}.errors.{name}").increment()
        if detail:
            self.tracer.instant(layer, f"error:{name}", detail=detail)
        else:
            self.tracer.instant(layer, f"error:{name}")

    def on_media(self, kind: str, elapsed: float) -> None:
        """One NAND media operation (called by the chip; the controller
        records the corresponding span because it knows the parent).  The
        histogram's count is the operation count; page groups are
        counted in :class:`~repro.nand.chip.ChipStats`."""
        self.metrics.histogram(f"nand.{kind}.media_s").record(elapsed)

    def on_spawn(self, name: str) -> None:
        self.metrics.counter("sim.processes_spawned").increment()
