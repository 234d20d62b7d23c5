"""Workload generators for the benchmarks."""

from repro.workloads.generators import (
    RandomWriteWorkload,
    WriteOp,
    ZipfianKeyChooser,
    derive_stream_seed,
)

__all__ = [
    "RandomWriteWorkload",
    "WriteOp",
    "ZipfianKeyChooser",
    "derive_stream_seed",
]
