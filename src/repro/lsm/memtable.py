"""The memtable: the in-memory write stage of the LSM tree.

A plain dict plus size accounting; iteration sorts on demand (flush is
rare relative to inserts, so sort-at-flush beats a skiplist in Python).
Deletes insert :data:`TOMBSTONE`, which flows through SSTables until
compaction to the last level drops it.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple


class _Tombstone:
    """Sentinel marking a deleted key."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<tombstone>"


TOMBSTONE = _Tombstone()

Value = object  # bytes | _Tombstone
_NODE_OVERHEAD = 16   # bytes of arena a skiplist node costs beside its data


class MemTable:
    """Sorted-on-demand in-memory key/value stage."""

    def __init__(self):
        self._entries: Dict[bytes, Value] = {}
        # RocksDB arena semantics: every insert consumes memtable space,
        # including overwrites of a key already present (each write is a
        # new sequenced entry in the skiplist).  Only the newest version
        # per key survives the flush, but the *flush trigger* tracks the
        # cumulative insert volume — which is what makes N clients writing
        # the same key sequence generate N times the flush pressure.
        self.approximate_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: bytes, value: bytes) -> None:
        self.approximate_bytes += len(key) + len(value) + _NODE_OVERHEAD
        self._entries[key] = value

    def delete(self, key: bytes) -> None:
        self.approximate_bytes += len(key) + _NODE_OVERHEAD
        self._entries[key] = TOMBSTONE

    def get(self, key: bytes) -> Optional[Value]:
        """The value, TOMBSTONE if deleted here, or None if absent."""
        return self._entries.get(key)

    def items_sorted(self) -> List[Tuple[bytes, Value]]:
        """All entries in key order (for flushing)."""
        entries = self._entries
        return [(key, entries[key]) for key in sorted(entries)]

    def freeze(self, seq: int) -> "ImmutableMemtable":
        """Snapshot this memtable as a frozen flush candidate."""
        return ImmutableMemtable(seq=seq, items=self.items_sorted())


class ImmutableMemtable:
    """A frozen memtable on the flush FIFO.

    LevelDB/RocksDB freeze the active memtable into an *immutable*
    memtable and hand it to a background flush; until the flush (and
    every older flush — installs are ordered) completes, reads must
    still see the frozen entries.  ``seq`` is the freeze order: the
    read path walks the queue newest-first, and a frozen memtable's L0
    output tables are ranked by this sequence so concurrent flushes
    can never let an older table shadow newer data.
    """

    __slots__ = ("seq", "items", "state")

    #: Lifecycle: queued -> flushing -> flushed (awaiting ordered
    #: removal from the FIFO front).
    QUEUED, FLUSHING, FLUSHED = "queued", "flushing", "flushed"

    def __init__(self, seq: int, items: List[Tuple[bytes, Value]]):
        self.seq = seq
        self.items = items
        self.state = ImmutableMemtable.QUEUED

    def __len__(self) -> int:
        return len(self.items)

    def get(self, key: bytes) -> Optional[Value]:
        """The value (or TOMBSTONE) for *key*, None if absent."""
        index = bisect.bisect_left(self.items, (key,))
        if index < len(self.items) and self.items[index][0] == key:
            return self.items[index][1]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ImmutableMemtable seq={self.seq} "
                f"entries={len(self.items)} state={self.state}>")
