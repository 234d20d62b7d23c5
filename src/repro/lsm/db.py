"""RocksDB-lite: the LSM engine tying memtable, SSTables, flush and
compaction together over a pluggable storage Env.

Matches the paper's evaluation configuration: no compression, no block
cache ("without any compression or caching enabled to put more stress on
SSD accesses"), leveled compaction ending up with "3 levels of SSTables
on disk (L0, L1, L2)".  Write stalls and the background-I/O rate limiter
produce the throughput fluctuation the paper attributes to "throttling
due to RocksDB rate limiter" (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import ReproError
from repro.lsm.backpressure import OK, SLOWDOWN, STOP, BackpressureState
from repro.lsm.compaction import (
    CompactionExecutor,
    MemCursor,
    TableCursor,
    TableRef,
    level_max_tables,
    merge_into_proc,
    pick_compaction,
)
from repro.lsm.env import StorageEnv
from repro.lsm.memtable import ImmutableMemtable, MemTable, _Tombstone
from repro.qos.tokenbucket import TokenBucket
from repro.lsm.sstable import (
    SSTableBuilder, SSTableMeta, decode_value, search_block)
from repro.sim.core import Interrupt, Simulator
from repro.units import KIB, MIB


@dataclass(frozen=True)
class DBConfig:
    """Engine tunables (RocksDB option names where they exist)."""

    block_size: int = 96 * KIB          # must suit the env's write unit
    write_buffer_bytes: int = 2 * MIB   # memtable flush threshold
    sstable_data_bytes: int = 0         # 0 = derive from env/write buffer
    l0_compaction_trigger: int = 4
    l0_slowdown_trigger: int = 6
    l0_stop_trigger: int = 10
    level_size_multiplier: int = 4
    max_levels: int = 4
    bits_per_key: int = 10
    put_cpu: float = 2e-6               # CPU cost per put
    get_cpu: float = 2e-6               # CPU cost per point lookup
    scan_cpu: float = 15e-6             # CPU cost per iterator step (merge
                                        # + value copy, no block cache)
    slowdown_delay: float = 1e-3        # extra latency per put in slowdown
    rate_limit_bytes_per_sec: Optional[float] = None
    readahead: bool = True              # iterator/compaction block prefetch
    # -- concurrency plane (defaults reproduce the single-daemon engine
    # bit-identically; tests/test_sim_identity.py pins that) -----------
    flush_workers: int = 1              # procs draining the frozen queue
    compaction_workers: int = 1         # max concurrent compactions
    max_immutable_memtables: int = 0    # frozen-queue depth (0 = workers)


@dataclass
class DBStats:
    puts: int = 0
    gets: int = 0
    deletes: int = 0
    flushes: int = 0
    compactions: int = 0
    stall_seconds: float = 0.0
    slowdown_puts: int = 0
    tables_written: int = 0
    blocks_read: int = 0
    #: Transitions of the bottom level into budget overrun (there is no
    #: deeper level to compact into, so the overrun is silent otherwise).
    bottom_level_oversize: int = 0
    #: High-water mark of the frozen-memtable FIFO.
    max_flush_queue_depth: int = 0
    #: (sim_time, concurrent_compactions) at every compaction start/end
    #: — the concurrency timeline bench_fig6 renders.
    compaction_timeline: List[Tuple[float, int]] = field(
        default_factory=list)


class DB:
    """An LSM key-value store over a :class:`StorageEnv`."""

    def __init__(self, env: StorageEnv, config: DBConfig, sim: Simulator):
        if config.block_size % max(1, env.min_block_size):
            raise ReproError(
                f"block_size {config.block_size} incompatible with the "
                f"env's minimum write unit {env.min_block_size}")
        if config.flush_workers < 1:
            raise ReproError(
                f"DBConfig.flush_workers must be >= 1, "
                f"got {config.flush_workers}")
        if config.compaction_workers < 1:
            raise ReproError(
                f"DBConfig.compaction_workers must be >= 1, "
                f"got {config.compaction_workers}")
        if config.max_immutable_memtables < 0:
            raise ReproError(
                f"DBConfig.max_immutable_memtables must be >= 0 "
                f"(0 = flush_workers), got {config.max_immutable_memtables}")
        self.env = env
        self.config = config
        self.sim = sim
        self.memtable = MemTable()
        #: The frozen-memtable FIFO: rotation appends, flush workers
        #: claim front-to-back, completed entries retire from the front
        #: in order (so reads walking newest-first never see an older
        #: frozen memtable shadow a newer, already-flushed one).
        self.immutable_queue: List[ImmutableMemtable] = []
        self._immutable_cap = (config.max_immutable_memtables
                               or config.flush_workers)
        self.levels: List[List[TableRef]] = [
            [] for __ in range(config.max_levels)]
        self.limiter = TokenBucket(sim, config.rate_limit_bytes_per_sec)
        self.stats = DBStats()
        # Observability (repro.obs): inherited from the simulator; None
        # unless a hub was attached before the DB was built.
        self.obs = sim.obs
        # QoS (repro.qos): inherited the same way; when present,
        # compaction yields to backlogged foreground reads block by block.
        self.qos = sim.qos
        #: Explicit write-controller state machine (OK/SLOWDOWN/STOP).
        self.backpressure = BackpressureState(config, obs=self.obs)
        #: Admission control for up to M concurrent compactions.
        self.executor = CompactionExecutor(config.compaction_workers)
        self._next_sstable_id = 1
        self._memtable_seq = 0
        self._alive = True
        self._flush_wanted = sim.event()
        self._compact_wanted = sim.event()
        self._write_ok = sim.event()
        self._write_ok.succeed()
        self._flushes_active = 0
        self._bottom_oversize = False
        self._pending_deletes = 0
        self._daemons = [
            sim.spawn(self._flush_worker(), name=f"lsm-flush-{worker}")
            for worker in range(config.flush_workers)]
        self._daemons.extend(
            sim.spawn(self._compaction_worker(), name=f"lsm-compact-{worker}")
            for worker in range(config.compaction_workers))

    # -- lifecycle ----------------------------------------------------------------

    @classmethod
    def open(cls, env: StorageEnv, config: DBConfig,
             sim: Simulator) -> "DB":
        """Open a DB, recovering any SSTables the env still holds."""
        db = cls(env, config, sim)
        tables = sim.run_until(sim.spawn(env.list_tables_proc()))
        for handle, meta_blob in tables:
            meta = SSTableMeta.deserialize(meta_blob)
            env.set_block_sectors(handle, meta.block_size)
            level = min(handle.level, config.max_levels - 1)
            db.levels[level].append(TableRef(handle=handle, meta=meta))
        for level_tables in db.levels:
            level_tables.sort(key=lambda t: -t.meta.sequence)
        for table in db.levels[0]:
            # Recovery has no freeze sequences; sstable sequence is the
            # same total order for tables written by one engine.
            table.l0_seq = table.meta.sequence
        for level in range(1, config.max_levels):
            db.levels[level].sort(key=lambda t: t.meta.first_key)
        return db

    def close(self) -> None:
        """Flush the memtable and stop background work."""
        self.flush()
        self._alive = False
        for daemon in self._daemons:
            daemon.interrupt("close")

    @property
    def sstable_data_bytes(self) -> int:
        if self.config.sstable_data_bytes:
            return self.config.sstable_data_bytes
        if self.env.max_table_bytes:
            return self.env.max_table_bytes
        return 2 * self.config.write_buffer_bytes

    # -- synchronous API -------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self.sim.run_until(self.sim.spawn(self.put_proc(key, value)))

    def get(self, key: bytes) -> Optional[bytes]:
        return self.sim.run_until(self.sim.spawn(self.get_proc(key)))

    def delete(self, key: bytes) -> None:
        self.sim.run_until(self.sim.spawn(self.delete_proc(key)))

    def flush(self) -> None:
        self.sim.run_until(self.sim.spawn(self.flush_proc()))

    def scan(self, limit: int = 0,
             on_entry: Optional[Callable] = None) -> int:
        return self.sim.run_until(self.sim.spawn(
            self.scan_proc(limit, on_entry)))

    # -- write path --------------------------------------------------------------------

    def put_proc(self, key: bytes, value: bytes, *, stream: str = ""):
        """Insert *key* -> *value* into the memtable.  *stream* (here, in
        ``get_proc`` and in ``scan_proc``) is ignored: it is kept because
        ``benchmarks/ledger/workloads.py`` passes it, until ROADMAP item 1
        rewrites that file."""
        if not key:
            raise ReproError("DB.put: key must not be empty")
        obs = self.obs
        if obs is not None:
            put_started = self.sim.now
        state = self._sample_backpressure()
        if state != OK:
            yield from self._write_gate_proc(state)
        if self.config.put_cpu:
            yield self.sim.timeout(self.config.put_cpu)
        self.memtable.put(key, value)
        self.stats.puts += 1
        self._maybe_rotate_memtable()
        if obs is not None:
            obs.metrics.histogram("lsm.put.latency_s").record(
                self.sim.now - put_started)

    def delete_proc(self, key: bytes):
        if not key:
            raise ReproError("DB.delete: key must not be empty")
        state = self._sample_backpressure()
        if state != OK:
            yield from self._write_gate_proc(state)
        if self.config.put_cpu:
            yield self.sim.timeout(self.config.put_cpu)
        self.memtable.delete(key)
        self.stats.deletes += 1
        self._maybe_rotate_memtable()

    def flush_proc(self):
        """Force the memtable to disk and wait for the queue to drain."""
        if len(self.memtable) == 0 and not self.immutable_queue:
            return
        if len(self.memtable) \
                and len(self.immutable_queue) < self._immutable_cap:
            self._rotate_memtable()
        while self.immutable_queue or self._flushes_active:
            yield self.sim.timeout(1e-4)

    def _write_gate_proc(self, state: str):
        """RocksDB write controller, for a write that sampled STOP (blocks
        on the write gate until a background completion reopens it) or
        SLOWDOWN (pays an extra delay so compaction can catch up)."""
        while state == STOP:
            started = self.sim.now
            gate = self._write_ok
            if gate.triggered:
                gate = self.sim.event()
                self._write_ok = gate
            yield gate
            self.stats.stall_seconds += self.sim.now - started
            if self.obs is not None:
                self.obs.metrics.histogram("lsm.stall_s").record(
                    self.sim.now - started)
            state = self._sample_backpressure()
        if state == SLOWDOWN:
            self.stats.slowdown_puts += 1
            yield self.sim.timeout(self.config.slowdown_delay)

    def _sample_backpressure(self) -> str:
        """Classify the write controller's regime now and record it."""
        backpressure = self.backpressure
        return backpressure.observe(backpressure.classify(
            len(self.immutable_queue) >= self._immutable_cap,
            self.memtable.approximate_bytes
            >= self.config.write_buffer_bytes,
            len(self.levels[0])), self.sim.now)

    def _open_write_gate(self) -> None:
        # Background completions re-sample the controller so residency
        # reflects the release, not just the next gated put.
        self._sample_backpressure()
        if not self._write_ok.triggered:
            self._write_ok.succeed()

    def _maybe_rotate_memtable(self) -> None:
        if (self.memtable.approximate_bytes >= self.config.write_buffer_bytes
                and len(self.immutable_queue) < self._immutable_cap):
            self._rotate_memtable()

    def _rotate_memtable(self) -> None:
        self._memtable_seq += 1
        self.immutable_queue.append(self.memtable.freeze(self._memtable_seq))
        self.stats.max_flush_queue_depth = max(
            self.stats.max_flush_queue_depth, len(self.immutable_queue))
        self.memtable = MemTable()
        if not self._flush_wanted.triggered:
            self._flush_wanted.succeed()

    # -- read path ---------------------------------------------------------------------

    def get_proc(self, key: bytes, *, stream: str = ""):
        self.stats.gets += 1
        if self.config.get_cpu:
            yield self.sim.timeout(self.config.get_cpu)
        value = self.memtable.get(key)
        if value is None:
            # Frozen memtables, newest first: a flush in flight must
            # stay readable until it (and everything older) retires.
            for entry in reversed(self.immutable_queue):
                value = entry.get(key)
                if value is not None:
                    break
        if value is not None:
            return None if isinstance(value, _Tombstone) else value
        # L0: newest table first; deeper levels: at most one candidate.
        for level, tables in enumerate(self.levels):
            candidates = tables if level == 0 else [
                t for t in tables if t.meta.covers(key)]
            for table in candidates:
                value = yield from self._table_get_proc(table, key)
                if value is not None:
                    return None if isinstance(value, _Tombstone) else value
        return None

    def _table_get_proc(self, table: TableRef, key: bytes):
        block_index = table.meta.locate(key)
        if block_index is None:
            return None
        table.refs += 1
        try:
            block = yield from self.env.read_block_proc(
                table.handle, block_index, self.config.block_size)
            self.stats.blocks_read += 1
        finally:
            self._release(table)
        return search_block(block, key)

    def scan_proc(self, limit: int = 0,
                  on_entry: Optional[Callable] = None, *,
                  stream: str = ""):
        """Full-order scan (db_bench read-sequential): a k-way merge over
        the memtable and every table, streaming blocks with readahead.
        *stream* is ignored (see ``put_proc``)."""
        cursors = [MemCursor(self.memtable.items_sorted())]
        for entry in reversed(self.immutable_queue):
            cursors.append(MemCursor(entry.items))
        # Every table's first read starts before the merge waits on any,
        # and two blocks ahead absorb the programs compactions stripe over
        # every PU; scan_cpu, not the device, then paces a scan.
        readahead = 2 * self.config.readahead
        table_cursors = [
            TableCursor(self.env, table, self.config.block_size, self.sim,
                        readahead=readahead)
            for tables in self.levels for table in tables]
        for cursor in table_cursors:
            cursor.table.refs += 1
            if readahead:
                cursor.start()
        cursors.extend(table_cursors)
        scan_cpu = self.config.scan_cpu

        def scan_cpu_proc():
            yield self.sim.timeout(scan_cpu)

        def sink(key, encoded):
            if on_entry is not None:
                on_entry(key, decode_value(key, encoded))
            if scan_cpu:
                return scan_cpu_proc()

        try:
            return (yield from merge_into_proc(
                cursors, sink, drop_tombstones=True, limit=limit))
        finally:
            for cursor in table_cursors:
                cursor.close()
                self._release(cursor.table)

    # -- background: flush ------------------------------------------------------------

    def _flush_worker(self):
        """One of N procs draining the frozen-memtable FIFO.

        Workers claim the oldest QUEUED entry; a flushed entry retires
        from the queue only once everything older has also flushed, so
        the read path's newest-first walk stays correct while flushes
        complete out of order.
        """
        try:
            while self._alive:
                entry = next((e for e in self.immutable_queue
                              if e.state == ImmutableMemtable.QUEUED), None)
                if entry is None:
                    gate = self._flush_wanted
                    yield gate
                    # First waiter to wake renews the shared event; the
                    # rest re-scan and converge on the renewed one.
                    if self._flush_wanted is gate:
                        self._flush_wanted = self.sim.event()
                    continue
                entry.state = ImmutableMemtable.FLUSHING
                self._flushes_active += 1
                obs = self.obs
                if obs is not None:
                    # Background work: one root span per memtable flush.
                    span = obs.begin("lsm", "flush")
                yield from self._write_tables_proc(
                    [MemCursor(entry.items)], level=0,
                    drop_tombstones=False, l0_seq=entry.seq)
                if obs is not None:
                    obs.close(span, "lsm.flush.duration_s",
                              entries=len(entry.items))
                entry.state = ImmutableMemtable.FLUSHED
                self._retire_flushed()
                self._flushes_active -= 1
                self.stats.flushes += 1
                self._open_write_gate()
                self._poke_compaction()
        except Interrupt:
            return

    def _retire_flushed(self) -> None:
        """Pop flushed entries from the FIFO front, in freeze order."""
        queue = self.immutable_queue
        while queue and queue[0].state == ImmutableMemtable.FLUSHED:
            queue.pop(0)

    # -- background: compaction ----------------------------------------------------------

    def _poke_compaction(self) -> None:
        if pick_compaction(self.levels, self.config.l0_compaction_trigger,
                           self.config.level_size_multiplier) is not None:
            if not self._compact_wanted.triggered:
                self._compact_wanted.succeed()

    def _compaction_worker(self):
        """One of M procs running admissible compactions concurrently.

        ``pick_compaction(busy=executor)`` skips candidates that share
        inputs or key ranges with an in-flight compaction, and
        :meth:`CompactionExecutor.acquire` re-asserts that before the
        merge starts.  Installs need no extra serialization: version
        edits happen between yields, atomically in sim time.
        """
        try:
            while self._alive:
                pick = None
                if not self.executor.saturated:
                    pick = pick_compaction(
                        self.levels, self.config.l0_compaction_trigger,
                        self.config.level_size_multiplier,
                        busy=self.executor)
                if pick is None:
                    gate = self._compact_wanted
                    yield gate
                    if self._compact_wanted is gate:
                        self._compact_wanted = self.sim.event()
                    continue
                lock = self.executor.acquire(pick)
                self._record_compaction_concurrency()
                try:
                    yield from self._run_compaction_proc(pick)
                finally:
                    self.executor.release(lock)
                    self._record_compaction_concurrency()
                self.stats.compactions += 1
                self._open_write_gate()
                if self.config.compaction_workers > 1:
                    # Inputs this merge consumed may have unblocked a
                    # pick a sibling skipped; wake the idle workers.
                    # (Skipped at M=1: the lone worker re-picks itself,
                    # and the legacy engine never self-poked — the
                    # bit-identity pin keeps it that way.)
                    self._poke_compaction()
        except Interrupt:
            return

    def _record_compaction_concurrency(self) -> None:
        self.stats.compaction_timeline.append(
            (self.sim.now, self.executor.in_flight))

    def _run_compaction_proc(self, pick):
        obs = self.obs
        span = None
        if obs is not None:
            # Background work: one root span per compaction.
            span = obs.begin("lsm.compaction", "compact")
        for table in pick.inputs:
            table.refs += 1
        # Each input is read as wide as its env striped it.
        cursors = [TableCursor(self.env, table, self.config.block_size,
                               self.sim,
                               readahead=self.env.read_width(table.handle)
                               if self.config.readahead else 0)
                   for table in pick.inputs]
        # Drop tombstones when nothing below the target level can hold an
        # older value for the key.
        deeper_occupied = any(self.levels[level]
                              for level in range(pick.target_level + 1,
                                                 self.config.max_levels))
        try:
            outputs = yield from self._write_tables_proc(
                cursors, level=pick.target_level,
                drop_tombstones=not deeper_occupied,
                yield_to_foreground=True)
        finally:
            for cursor in cursors:
                cursor.close()
        # Install the new version: remove inputs, outputs are already in.
        input_set = {id(t) for t in pick.inputs}
        for level in range(self.config.max_levels):
            self.levels[level] = [t for t in self.levels[level]
                                  if id(t) not in input_set]
        for table in pick.inputs:
            table.obsolete = True
            self.env.log_version_edit(("del", table.handle.sstable_id,
                                       table.handle.level))
            self._release(table)
        self._count_bottom_oversize()
        if obs is not None:
            obs.close(span, "lsm.compaction.duration_s",
                      target_level=pick.target_level,
                      inputs=len(pick.inputs), outputs=len(outputs))

    # -- table writing (shared by flush and compaction) ------------------------------------

    def _write_tables_proc(self, cursors, level: int,
                           drop_tombstones: bool,
                           yield_to_foreground: bool = False,
                           l0_seq: int = 0):
        """Merge *cursors* into one or more new SSTables at *level*.

        *yield_to_foreground* (compaction only — flushes gate admission
        and must finish promptly) pauses before each block write while
        the QoS scheduler reports backlogged foreground reads.

        *l0_seq* (flush only) is the source memtable's freeze sequence:
        concurrent flushes can install out of order, so L0 ranks by
        freeze order, not install time.
        """
        outputs: List[TableRef] = []
        bg_gate = (self.qos.background_gate_proc
                   if yield_to_foreground and self.qos is not None else None)
        target_bytes = self.sstable_data_bytes
        builder = writer = None     # the table being written, if any

        def sink(key, encoded):
            # Awaited only for the rare part: a filled block to write, a
            # full table to close.
            if builder is None:
                open_table()
            block = builder.add_encoded(key, encoded)
            if block is not None or builder.data_bytes >= target_bytes:
                return write_proc(block)

        def open_table():
            nonlocal builder, writer
            sstable_id = self._next_sstable_id
            self._next_sstable_id += 1
            writer = self.env.create_writer(
                sstable_id, level, self.config.block_size)
            builder = SSTableBuilder(
                sstable_id, sequence=sstable_id,
                block_size=self.config.block_size,
                bits_per_key=self.config.bits_per_key)

        def write_proc(block):
            if block is not None:
                if bg_gate is not None:
                    yield from bg_gate()
                yield from self.limiter.acquire_proc(len(block))
                yield from writer.append_block_proc(block)
            if builder.data_bytes >= target_bytes:
                yield from finish_table_proc()

        def finish_table_proc():
            nonlocal builder, writer
            if builder is None:
                return
            final_block, meta = builder.finish()
            if final_block is not None:
                yield from self.limiter.acquire_proc(len(final_block))
                yield from writer.append_block_proc(final_block)
            handle = yield from writer.finish_proc(meta.serialize())
            table = TableRef(handle=handle, meta=meta)
            self._install_table(table, level, l0_seq)
            outputs.append(table)
            self.stats.tables_written += 1
            builder = writer = None

        try:
            yield from merge_into_proc(cursors, sink, drop_tombstones)
            yield from finish_table_proc()
        except ReproError:
            # The table being written gives its chunks / zones / extent
            # back; the ones this call already installed stay.
            if writer is not None:
                yield from writer.abort_proc()
            raise
        return outputs

    def _install_table(self, table: TableRef, level: int,
                       l0_seq: int = 0) -> None:
        self.env.log_version_edit(("add", table.handle.sstable_id, level))
        if level == 0:
            # Newest first by (freeze_seq, sstable_seq): an older frozen
            # memtable whose flush finishes late must not land in front
            # of tables holding newer versions of its keys.
            table.l0_seq = l0_seq
            rank = (l0_seq, table.meta.sequence)
            index = 0
            tables = self.levels[0]
            while index < len(tables) and (
                    tables[index].l0_seq,
                    tables[index].meta.sequence) > rank:
                index += 1
            tables.insert(index, table)
        else:
            self.levels[level].append(table)
            self.levels[level].sort(key=lambda t: t.meta.first_key)
        self._count_bottom_oversize()

    def _count_bottom_oversize(self) -> None:
        """Count the bottom level going over its budget (it is never a
        compaction source, so its overruns would otherwise be
        invisible)."""
        bottom = self.config.max_levels - 1
        oversize = len(self.levels[bottom]) > level_max_tables(
            bottom, self.config.level_size_multiplier)
        if oversize and not self._bottom_oversize:
            self.stats.bottom_level_oversize += 1
        self._bottom_oversize = oversize

    # -- table lifetime -----------------------------------------------------------------

    def _release(self, table: TableRef) -> None:
        table.refs -= 1
        if table.obsolete and table.refs == 0:
            self._pending_deletes += 1

            def delete_and_count():
                try:
                    yield from self.env.delete_table_proc(table.handle)
                finally:
                    self._pending_deletes -= 1

            self.sim.spawn(delete_and_count(), name="table-delete")

    # -- introspection -------------------------------------------------------------------

    def wait_idle(self, poll: float = 0.01) -> None:
        """Run the simulation until flush and compaction have settled."""
        while True:
            self.sim.run(until=self.sim.now + poll)
            pending = pick_compaction(self.levels,
                                      self.config.l0_compaction_trigger,
                                      self.config.level_size_multiplier)
            busy = (bool(self.immutable_queue) or self._flushes_active > 0
                    or self.executor.in_flight > 0 or pending is not None
                    or self._pending_deletes > 0)
            if not busy:
                return

    def level_sizes(self) -> List[int]:
        return [len(tables) for tables in self.levels]
