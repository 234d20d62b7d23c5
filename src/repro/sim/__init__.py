"""Minimal discrete-event simulation kernel.

The paper's evaluation ran on real hardware (a DFC card plus CNEX Labs
Open-Channel SSDs).  This package is the substitute substrate: a small,
deterministic, generator-based discrete-event simulator in the style of
simpy, plus the resource and statistics primitives the device and FTL
models are built on.

Public API::

    from repro.sim import Simulator, Interrupt, Resource, Store

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return "done"

    proc = sim.spawn(worker(sim))
    sim.run()
    assert proc.value == "done"
"""

from repro.sim.core import Event, Interrupt, Process, Simulator, Timeout
from repro.sim.resources import Resource, Store
from repro.sim.stats import ThroughputRecorder, UtilizationTracker

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Timeout",
    "Resource",
    "Store",
    "ThroughputRecorder",
    "UtilizationTracker",
]
