"""Performance contracts between a data system and an Open-Channel SSD.

§5: "When designing an application-specific FTL, it is essential to
either (a) precisely characterize the performance of the chosen
underlying Open-Channel SSD or (b) evaluate which Open-Channel SSD
actually complies with the performance requirements."  This module does
both: :func:`characterize_device` measures a device's latency envelope,
and :class:`PerformanceContract` declares requirements and checks a
measured device against them — including the wear dimension the paper
proposes ("performance contracts taking wear into account").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ContractViolation
from repro.obs.metrics import MetricsRegistry
from repro.ocssd.address import Ppa
from repro.ocssd.device import OpenChannelSSD


@dataclass(frozen=True)
class ContractTerm:
    """One clause: a named metric must respect a bound.

    ``kind`` is "max" (latency budgets: measured value must not exceed
    the bound) or "min" (endurance/throughput floors: measured value must
    reach the bound).
    """

    metric: str                 # e.g. "read_p99", "write_unit_mean"
    bound: float                # seconds, cycles, bytes/s ... per metric
    description: str = ""
    kind: str = "max"

    def __post_init__(self) -> None:
        if self.kind not in ("max", "min"):
            raise ValueError(f"kind must be 'max' or 'min', got {self.kind}")

    def violated_by(self, value: float) -> bool:
        if self.kind == "max":
            return value > self.bound
        return value < self.bound


@dataclass
class ContractReport:
    """Outcome of checking a contract against measurements."""

    passed: bool
    measurements: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    def require(self) -> "ContractReport":
        if not self.passed:
            raise ContractViolation("; ".join(self.violations))
        return self


class PerformanceContract:
    """A set of terms agreed between FTL and device teams."""

    def __init__(self, terms: List[ContractTerm]):
        if not terms:
            raise ValueError("a contract needs at least one term")
        names = [term.metric for term in terms]
        if len(names) != len(set(names)):
            raise ValueError("duplicate contract terms")
        self.terms = list(terms)

    def check(self, measurements: Dict[str, float]) -> ContractReport:
        """Evaluate every term; metrics missing from *measurements* are
        violations (an unmeasured clause is an unverified assumption —
        exactly the co-design risk §5 warns about)."""
        report = ContractReport(passed=True, measurements=dict(measurements))
        for term in self.terms:
            value = measurements.get(term.metric)
            if value is None:
                report.passed = False
                report.violations.append(
                    f"{term.metric}: not measured (bound {term.bound:g})")
            elif term.violated_by(value):
                report.passed = False
                comparison = "exceeds" if term.kind == "max" else "is below"
                report.violations.append(
                    f"{term.metric}: measured {value:g} {comparison} bound "
                    f"{term.bound:g} {term.description}")
        return report


def characterize_device(device: OpenChannelSSD, samples: int = 32,
                        registry: Optional[MetricsRegistry] = None
                        ) -> Dict[str, float]:
    """Measure a device's latency envelope on a scratch chunk.

    Returns metrics suitable for :meth:`PerformanceContract.check`:
    ``write_unit_mean``, ``write_unit_p99``, ``read_sector_mean``,
    ``read_sector_p99``, ``reset_mean`` and ``endurance`` (the cell's
    rated per-chunk erase budget, :attr:`CellType.endurance`).  No
    latency depends on wear: the device fails only a worn-out erase.

    The raw latency samples land in a :class:`MetricsRegistry` (pass one
    in to keep them — ``contract.{write_unit,read_sector,reset}.latency_s``
    histograms); the returned dict is derived from those instruments.
    """
    geometry = device.report_geometry()
    scratch = Ppa(geometry.num_groups - 1, geometry.pus_per_group - 1,
                  geometry.chunks_per_pu - 1, 0)
    registry = registry if registry is not None else MetricsRegistry()
    writes = registry.histogram("contract.write_unit.latency_s")
    reads = registry.histogram("contract.read_sector.latency_s")
    resets = registry.histogram("contract.reset.latency_s")
    ws_min = geometry.ws_min
    payload = b"\xA5" * (geometry.sector_size * ws_min)

    units_per_chunk = geometry.sectors_per_chunk // ws_min
    written_units = 0
    for __ in range(samples):
        if written_units == units_per_chunk:
            device.flush()
            completion = device.reset(scratch)
            resets.record(completion.latency)
            written_units = 0
        ppas = [scratch.with_sector(written_units * ws_min + i)
                for i in range(ws_min)]
        completion = device.write(ppas, payload)
        if completion.ok:
            writes.record(completion.latency)
        written_units += 1
        device.flush()   # measure media reads, not controller-cache hits
        read = device.read([ppas[0]])
        if read.ok:
            reads.record(read.latency)
    device.flush()
    if written_units:
        completion = device.reset(scratch)
        resets.record(completion.latency)

    return {
        "write_unit_mean": writes.mean(),
        "write_unit_p99": writes.percentile(99),
        "read_sector_mean": reads.mean(),
        "read_sector_p99": reads.percentile(99),
        "reset_mean": resets.mean(),
        "endurance": float(geometry.flash.cell.endurance),
    }
