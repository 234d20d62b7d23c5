"""repro.stack: declarative assembly of the whole storage stack.

One :class:`StackSpec` names a composition — geometry, FTL flavor,
host, sidecars, workload, seed — and :func:`build_stack` wires it
deterministically.  ``python -m repro.stack spec.json`` runs a spec
from a JSON or TOML file and writes the usual results files.
"""

from repro.stack.build import Stack, build_stack
from repro.stack.runner import run_and_report, run_spec
from repro.stack.spec import (
    GeometrySpec,
    StackSpec,
    TenantSpec,
    TimingSpec,
    WorkloadSpec,
)

__all__ = [
    "GeometrySpec",
    "Stack",
    "StackSpec",
    "TenantSpec",
    "TimingSpec",
    "WorkloadSpec",
    "build_stack",
    "run_and_report",
    "run_spec",
]
