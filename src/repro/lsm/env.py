"""The storage environment abstraction under the LSM engine.

RocksDB reaches storage through an ``Env``; swapping the Env is how
LightLSM plugs in ("LightLSM exposes Open-Channel SSDs as a RocksDB
environment supporting SSTable flush and block reads", §4.2).  The engine
only ever:

* streams the blocks of a new SSTable and finishes it with a meta blob
  (**SSTable flush** — atomic: a table exists only once its meta is
  durable);
* reads single blocks of existing SSTables (**block read**);
* deletes whole SSTables (compaction inputs);
* lists the SSTables on the medium (recovery).

:class:`MemEnv` is the in-memory implementation (unit tests and a
POSIX-like baseline with an explicit MANIFEST);
:class:`repro.lsm.lightlsm.LightLSMEnv` maps the same interface straight
onto Open-Channel SSD chunks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError


def replay_manifest(
        manifest: List[Tuple[str, int, int]]) -> Dict[int, int]:
    """Replay ("add"/"del", sstable_id, level) version edits into the
    live table set, ``{sstable_id: level}``."""
    live: Dict[int, int] = {}
    for action, sstable_id, level in manifest:
        if action == "add":
            live[sstable_id] = level
        else:
            live.pop(sstable_id, None)
    return live


@dataclass(frozen=True)
class SSTableHandle:
    """An opaque reference to one on-medium SSTable."""

    sstable_id: int
    level: int


class SSTableWriter(abc.ABC):
    """Streams one SSTable onto the medium."""

    @abc.abstractmethod
    def append_block_proc(self, block: bytes):
        """Process generator: append one fixed-size data block."""

    @abc.abstractmethod
    def finish_proc(self, meta_blob: bytes):
        """Process generator: persist the meta blob and commit the table;
        returns the :class:`SSTableHandle`.  Before this completes the
        table does not exist (atomic flush)."""

    @abc.abstractmethod
    def abort_proc(self):
        """Process generator: discard a partially-written table."""


class StorageEnv(abc.ABC):
    """What the LSM engine requires from storage."""

    @property
    @abc.abstractmethod
    def min_block_size(self) -> int:
        """Smallest (and granularity of) legal SSTable block size."""

    @property
    @abc.abstractmethod
    def max_table_bytes(self) -> int:
        """Upper bound on one SSTable's data size (0 = unbounded)."""

    @abc.abstractmethod
    def create_writer_proc(self, sstable_id: int, level: int,
                           block_size: int):
        """Process generator returning an :class:`SSTableWriter`."""

    @abc.abstractmethod
    def read_block_proc(self, handle: SSTableHandle, block_index: int,
                        block_size: int):
        """Process generator returning the block's bytes."""

    def read_width(self, handle: SSTableHandle) -> int:
        """How many block reads of the table run side by side: the PUs
        its blocks are striped over.  1 where the env cannot tell (a
        generic block FTL hides where an extent lives)."""
        return 1

    def set_block_sectors(self, handle: SSTableHandle,
                          block_size: int) -> None:
        """Recovery hook: the DB hands over each recovered table's block
        size once it has parsed the meta.  No-op where the env's reads
        do not depend on it."""

    @abc.abstractmethod
    def read_meta_proc(self, handle: SSTableHandle):
        """Process generator returning the meta blob."""

    @abc.abstractmethod
    def delete_table_proc(self, handle: SSTableHandle):
        """Process generator: reclaim the table's space."""

    @abc.abstractmethod
    def list_tables_proc(self):
        """Process generator returning ``[(handle, meta_blob), ...]`` of
        every committed table (recovery entry point)."""

    def log_version_edit(self, edit: Tuple[str, int, int]) -> None:
        """Record a version edit ("add"/"del", sstable_id, level).

        POSIX-style envs append this to a MANIFEST; LightLSM overrides it
        as a no-op — atomic SSTable flush makes the MANIFEST unnecessary
        (§5, "with LightLSM, RocksDB does not need MANIFEST")."""


class _MemWriter(SSTableWriter):
    def __init__(self, env: "MemEnv", sstable_id: int, level: int):
        self.env = env
        self.sstable_id = sstable_id
        self.level = level
        self.blocks: List[bytes] = []

    def append_block_proc(self, block: bytes):
        if self.env.write_latency:
            yield self.env.sim.timeout(self.env.write_latency)
        self.blocks.append(block)

    def finish_proc(self, meta_blob: bytes):
        if self.env.write_latency:
            yield self.env.sim.timeout(self.env.write_latency)
        handle = SSTableHandle(self.sstable_id, self.level)
        self.env._tables[self.sstable_id] = (self.level, self.blocks,
                                             meta_blob)
        return handle

    def abort_proc(self):
        self.blocks = []
        return
        yield  # pragma: no cover - generator marker


class MemEnv(StorageEnv):
    """In-memory environment with optional fixed per-block latencies.

    Models a conventional block-device file system: SSTable visibility is
    governed by the MANIFEST (``manifest_required=True``), so recovery
    returns only tables whose version edits were logged — the behaviour
    LightLSM renders unnecessary.
    """

    def __init__(self, sim, read_latency: float = 0.0,
                 write_latency: float = 0.0, manifest_required: bool = True):
        self.sim = sim
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.manifest_required = manifest_required
        self._tables: Dict[int, Tuple[int, List[bytes], bytes]] = {}
        self.manifest: List[Tuple[str, int, int]] = []

    # -- StorageEnv ------------------------------------------------------------

    @property
    def min_block_size(self) -> int:
        return 1

    @property
    def max_table_bytes(self) -> int:
        return 0

    def create_writer_proc(self, sstable_id: int, level: int,
                           block_size: int):
        if sstable_id in self._tables:
            raise ReproError(f"sstable {sstable_id} already exists")
        return _MemWriter(self, sstable_id, level)
        yield  # pragma: no cover - generator marker

    def read_block_proc(self, handle: SSTableHandle, block_index: int,
                        block_size: int):
        if self.read_latency:
            yield self.sim.timeout(self.read_latency)
        __, blocks, __m = self._require(handle)
        if not 0 <= block_index < len(blocks):
            raise ReproError(
                f"block {block_index} out of range for {handle}")
        return blocks[block_index]

    def read_meta_proc(self, handle: SSTableHandle):
        if self.read_latency:
            yield self.sim.timeout(self.read_latency)
        __, __b, meta = self._require(handle)
        return meta

    def delete_table_proc(self, handle: SSTableHandle):
        if self.write_latency:
            yield self.sim.timeout(self.write_latency)
        self._tables.pop(handle.sstable_id, None)

    def list_tables_proc(self):
        if self.read_latency:
            yield self.sim.timeout(self.read_latency)
        if self.manifest_required:
            ids = replay_manifest(self.manifest)
        else:
            ids = {sstable_id: level
                   for sstable_id, (level, __, __m) in self._tables.items()}
        result = []
        for sstable_id, level in sorted(ids.items()):
            if sstable_id in self._tables:
                __, __b, meta = self._tables[sstable_id]
                result.append((SSTableHandle(sstable_id, level), meta))
        return result

    def log_version_edit(self, edit: Tuple[str, int, int]) -> None:
        self.manifest.append(edit)

    # -- internals ---------------------------------------------------------------

    def _require(self, handle: SSTableHandle):
        try:
            return self._tables[handle.sstable_id]
        except KeyError:
            raise ReproError(f"unknown sstable {handle.sstable_id}") from None
