"""Compaction: cursors, k-way merge, and the level-picking policy.

Leveled compaction in the RocksDB style: L0 holds whole memtable flushes
(overlapping key ranges, newest first); deeper levels are sorted runs of
non-overlapping tables.  When L0 reaches its trigger, all of L0 merges
with the overlapping part of L1; when a deeper level exceeds its size
budget, one table merges down.  In LightLSM "garbage collection is a
side-effect of compaction" (§4.3): deleting the input SSTables is pure
chunk erasing.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.lsm.sstable import SSTableMeta, decode_block, encode_entry


@dataclass
class TableRef:
    """An SSTable as the DB tracks it: handle + parsed meta + refcount."""

    handle: object            # SSTableHandle
    meta: SSTableMeta
    refs: int = 0
    obsolete: bool = False
    #: Freeze sequence of the source memtable (L0 only): L0 ranks by
    #: (l0_seq, meta.sequence) descending so concurrent flushes that
    #: install out of order still read newest-first.
    l0_seq: int = 0


class TableCursor:
    """One SSTable's entries in key order, a decoded block at a time, with
    up to *readahead* block reads in flight ahead of the block consumed
    (a compaction passes the table's ``env.read_width``, a scan 2).

    The cursor protocol, shared with :class:`MemCursor`: ``keys`` and
    ``entries`` are the current block as parallel lists (see
    :func:`~repro.lsm.sstable.decode_block`), ``pos`` indexes them; the
    consumer steps ``pos`` itself and awaits :meth:`load_proc` only when
    it runs off the block.  An exhausted cursor has empty ``keys``.
    """

    def __init__(self, env, table: TableRef, block_size: int, sim,
                 readahead: int = 1):
        self.env = env
        self.table = table
        self.block_size = block_size
        self.sim = sim
        self.readahead = readahead
        self._block_index = 0
        self._prefetch = deque()  # Processes reading the next blocks, in order
        self.keys = self.entries = []
        self.pos = 0

    def load_proc(self):
        """Move to the table's next block (the first, on a new cursor)."""
        self.pos = 0
        self.keys = self.entries = []
        num_blocks = self.table.meta.num_blocks
        prefetch = self._prefetch
        while not self.keys and self._block_index < num_blocks:
            if prefetch:
                block = yield prefetch.popleft()
            else:
                block = yield from self.env.read_block_proc(
                    self.table.handle, self._block_index, self.block_size)
            self.keys, self.entries = decode_block(block)
            self._block_index += 1
            ahead = self._block_index + len(prefetch)
            while len(prefetch) < self.readahead and ahead < num_blocks:
                prefetch.append(self.sim.spawn(
                    self.env.read_block_proc(self.table.handle, ahead,
                                             self.block_size),
                    name="readahead"))
                ahead += 1

    def start(self) -> None:
        """Begin reading the first block: a consumer of several cursors
        starts each before it waits on any, so their reads overlap."""
        self._prefetch.append(self.sim.spawn(self.env.read_block_proc(
            self.table.handle, 0, self.block_size), name="readahead"))

    def close(self) -> None:
        """For a consumer that stops early: nothing will wait on the reads
        still in flight, so a failure in one must not surface."""
        for read in self._prefetch:
            read.defuse()
        self._prefetch.clear()


class MemCursor:
    """Cursor over an in-memory sorted item list (memtable snapshots).
    A "block" is a run of *block_entries* items, encoded when loaded, so
    a flush or scan never holds a second copy of a memtable."""

    def __init__(self, items: List[Tuple[bytes, object]],
                 block_entries: int = 128):
        self._items = items
        self._next = 0
        self.block_entries = block_entries
        self.keys = self.entries = []
        self.pos = 0

    def load_proc(self):
        run = self._items[self._next:self._next + self.block_entries]
        self._next += len(run)
        self.pos = 0
        self.keys = [key for key, __ in run]
        self.entries = [encode_entry(key, value) for key, value in run]
        return
        yield  # pragma: no cover - generator marker


def merge_into_proc(cursors: List, sink, drop_tombstones: bool,
                    limit: int = 0):
    """Process generator: k-way merge of *cursors* (newest first) into
    ``sink(key, encoded)``, stopping after *limit* emissions (0 = all).

    It is awaited only where the sim clock can move: a cursor running off
    its block (a block read or readahead join) and whatever *sink* — a
    plain call — hands back: ``None``, or a process generator when the
    emission must wait (a block write, a table boundary, scan CPU).

    A heap of ``(key, cursor_index)`` keeps each emission O(log k).  Ties
    pop in cursor-index order, so the newest cursor supplies the entry
    and every holder of the key advances before the emission, in the
    order of :func:`merge_into_linear_proc`, the executable spec.

    Returns the number of entries emitted.
    """
    for cursor in cursors:
        yield from cursor.load_proc()
    heap: List[Tuple[bytes, int]] = [
        (cursor.keys[0], index)
        for index, cursor in enumerate(cursors) if cursor.keys]
    heapq.heapify(heap)
    heapreplace, heappop = heapq.heapreplace, heapq.heappop
    emitted = 0
    while heap:
        best_key, index = heap[0]
        encoded = cursors[index].entries[cursors[index].pos]
        while heap and heap[0][0] == best_key:
            # Step the holder on top of the heap, then re-key its entry.
            index = heap[0][1]
            cursor = cursors[index]
            cursor.pos += 1
            if cursor.pos == len(cursor.keys):
                yield from cursor.load_proc()
            if cursor.keys:
                heapreplace(heap, (cursor.keys[cursor.pos], index))
            else:
                heappop(heap)
        if drop_tombstones and encoded[0]:
            continue
        wait = sink(best_key, encoded)
        if wait is not None:
            yield from wait
        emitted += 1
        if emitted == limit:
            break
    return emitted


def merge_into_linear_proc(cursors: List, sink, drop_tombstones: bool,
                           limit: int = 0):
    """The original O(k)-per-entry merge over the same cursor and sink
    protocol, kept as the executable spec for :func:`merge_into_proc`'s
    bit-identity test."""
    for cursor in cursors:
        yield from cursor.load_proc()
    emitted = 0
    while emitted < limit or not limit:
        live = [cursor for cursor in cursors if cursor.keys]
        if not live:
            break
        best_key = min(cursor.keys[cursor.pos] for cursor in live)
        holders = [cursor for cursor in live
                   if cursor.keys[cursor.pos] == best_key]
        encoded = holders[0].entries[holders[0].pos]
        for cursor in holders:
            cursor.pos += 1
            if cursor.pos == len(cursor.keys):
                yield from cursor.load_proc()
        if drop_tombstones and encoded[0]:
            continue
        wait = sink(best_key, encoded)
        if wait is not None:
            yield from wait
        emitted += 1
    return emitted


@dataclass
class CompactionPick:
    """What to compact: inputs (newest first) and the target level."""

    inputs: List[TableRef]
    target_level: int
    reason: str

    @property
    def source_level(self) -> int:
        return self.target_level - 1

    def key_range(self) -> Optional[Tuple[bytes, bytes]]:
        """The key span this compaction reads and writes (None when every
        input is empty of keys)."""
        firsts = [t.meta.first_key for t in self.inputs
                  if t.meta.first_keys]
        lasts = [t.meta.last_key for t in self.inputs
                 if t.meta.first_keys]
        if not firsts:
            return None
        return min(firsts), max(lasts)


@dataclass
class CompactionLock:
    """One in-flight compaction's claim: its input tables plus the key
    range it reads at the source level and writes at the target level.

    ``tables`` keeps the inputs alive for the lock's lifetime: the busy
    set is keyed on ``id()``, which is only stable while the object is
    — a collected input's id could be reused and alias a fresh table.
    """

    levels: Tuple[int, int]            # (source, target)
    first_key: Optional[bytes]
    last_key: Optional[bytes]
    table_ids: frozenset
    tables: Tuple[TableRef, ...] = ()

    def covers_range(self, level: int, first: Optional[bytes],
                     last: Optional[bytes]) -> bool:
        if level not in self.levels:
            return False
        if self.first_key is None or first is None:
            # An empty-keyed pick still owns its level pair: without a
            # comparable range, be conservative and conflict.
            return True
        return self.first_key <= last and first <= self.last_key


class CompactionExecutor:
    """Admission control for up to *workers* concurrent compactions.

    A picked compaction pins its input tables and locks its key range on
    both the source and target level; :func:`pick_compaction` consults
    the executor (its ``busy`` parameter) so concurrent picks never
    share inputs and never write overlapping ranges into the same
    sorted-run level.  :meth:`acquire` re-asserts the invariant in the
    engine: two in-flight compactions holding overlapping inputs is a
    bug, not a scheduling outcome.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ReproError(
                f"CompactionExecutor: workers must be >= 1, got {workers}")
        self.workers = workers
        self._locks: List[CompactionLock] = []
        self._busy_tables: set = set()
        #: High-water mark of concurrent compactions (introspection).
        self.max_in_flight = 0

    @property
    def in_flight(self) -> int:
        return len(self._locks)

    @property
    def saturated(self) -> bool:
        return len(self._locks) >= self.workers

    def conflicts(self, pick: CompactionPick) -> bool:
        """Would *pick* overlap an in-flight compaction?"""
        if any(id(t) in self._busy_tables for t in pick.inputs):
            return True
        key_range = pick.key_range()
        first, last = key_range if key_range else (None, None)
        for lock in self._locks:
            for level in (pick.source_level, pick.target_level):
                if lock.covers_range(level, first, last):
                    return True
        return False

    def acquire(self, pick: CompactionPick) -> CompactionLock:
        if self.saturated:
            raise ReproError(
                f"CompactionExecutor: acquire beyond {self.workers} "
                f"workers")
        if self.conflicts(pick):
            raise ReproError(
                "CompactionExecutor: concurrent compactions would share "
                f"inputs or target ranges (reason={pick.reason!r}, "
                f"target={pick.target_level})")
        key_range = pick.key_range()
        first, last = key_range if key_range else (None, None)
        lock = CompactionLock(
            levels=(pick.source_level, pick.target_level),
            first_key=first, last_key=last,
            table_ids=frozenset(id(t) for t in pick.inputs),
            tables=tuple(pick.inputs))
        self._locks.append(lock)
        self._busy_tables |= lock.table_ids
        self.max_in_flight = max(self.max_in_flight, len(self._locks))
        return lock

    def release(self, lock: CompactionLock) -> None:
        self._locks.remove(lock)
        self._busy_tables -= lock.table_ids


def level_max_tables(level: int, multiplier: int) -> int:
    """Size budget of a level, in tables: L1 holds `multiplier`, L2
    `multiplier**2`, ..."""
    return multiplier ** level


def pick_compaction(levels: List[List[TableRef]], l0_trigger: int,
                    multiplier: int,
                    busy: Optional[CompactionExecutor] = None,
                    ) -> Optional[CompactionPick]:
    """RocksDB-style priority: L0 first, then the most oversized level.

    With *busy* (the in-flight lock table), candidates that would share
    inputs or key ranges with a running compaction are skipped, so up to
    M admissible compactions can run concurrently: an L0->L1 merge next
    to an L2->L3 merge, or two same-level merges over disjoint ranges.
    The bottom level is never a source — its tables have nowhere to go,
    so the level can exceed its budget silently (the engine counts it in
    ``DBStats.bottom_level_oversize``).
    """
    if len(levels[0]) >= l0_trigger:
        inputs = list(levels[0])                      # newest first already
        first = min(t.meta.first_key for t in inputs if t.meta.first_keys)
        last = max(t.meta.last_key for t in inputs if t.meta.first_keys)
        if len(levels) > 1:
            overlapping = [t for t in levels[1]
                           if t.meta.overlaps(first, last)]
        else:
            overlapping = []
        pick = CompactionPick(inputs=inputs + overlapping, target_level=1,
                              reason="l0")
        if busy is None or not busy.conflicts(pick):
            return pick
    for level in range(1, len(levels) - 1):
        if len(levels[level]) > level_max_tables(level, multiplier):
            for victim in levels[level]:              # oldest range first
                overlapping = [t for t in levels[level + 1]
                               if t.meta.overlaps(victim.meta.first_key,
                                                  victim.meta.last_key)]
                pick = CompactionPick(inputs=[victim] + overlapping,
                                      target_level=level + 1,
                                      reason=f"l{level}-size")
                if busy is None or not busy.conflicts(pick):
                    return pick
    return None
