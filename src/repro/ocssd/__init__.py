"""Open-Channel SSD device model (OCSSD 2.0-style interface, §2.2).

The device exposes its physical address space as *groups* (no interference
across groups) of *parallel units* (chips; operations sequential within a
chip) of *chunks* (sequential-write units that must be reset before
rewrite).  Vector read/write/copy commands, chunk reset, geometry discovery,
chunk metadata and asynchronous error notifications follow the Open-Channel
2.0 specification's shape.

Timing and interference come from the discrete-event simulation: one
channel resource per group, one resource per chip, NAND latencies from
:mod:`repro.nand`, plus an optional controller write-back cache.
"""

from repro.ocssd.address import Ppa, PpaRun
from repro.ocssd.geometry import DeviceGeometry
from repro.ocssd.chunk import Chunk, ChunkState
from repro.ocssd.commands import (
    ChunkReset,
    Completion,
    CommandStatus,
    VectorCopy,
    VectorRead,
    VectorWrite,
)
from repro.ocssd.device import ChunkNotification, OpenChannelSSD

__all__ = [
    "Ppa",
    "PpaRun",
    "DeviceGeometry",
    "Chunk",
    "ChunkState",
    "ChunkReset",
    "Completion",
    "CommandStatus",
    "VectorCopy",
    "VectorRead",
    "VectorWrite",
    "ChunkNotification",
    "OpenChannelSSD",
]
