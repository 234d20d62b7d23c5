"""The modular OX FTL: the components of Figure 2.

Each component is reusable across the OX-based FTLs (OX-Block, OX-ELEOS,
LightLSM): a page-granularity mapping table, chunk provisioning, a write
buffer, a write-ahead log and checkpointing (owned together by the
journal), group-local garbage collection and crash recovery.
"""

from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable, FtlChunkInfo, FtlChunkState
from repro.ox.ftl.provisioning import MetadataLayout, Provisioner
from repro.ox.ftl.wal import WalAppender
from repro.ox.ftl.checkpoint import CheckpointManager
from repro.ox.ftl.journal import Journal
from repro.ox.ftl.gc import GarbageCollector, GcStats
from repro.ox.ftl.writebuffer import WriteBuffer

__all__ = [
    "PageMap",
    "ChunkTable",
    "FtlChunkInfo",
    "FtlChunkState",
    "MetadataLayout",
    "Provisioner",
    "WalAppender",
    "CheckpointManager",
    "Journal",
    "GarbageCollector",
    "GcStats",
    "WriteBuffer",
]
