"""A db_bench-equivalent workload driver (§4.3).

Reproduces the paper's three workloads with N concurrent clients:

* **fill-sequential** — every client writes the same key sequence in
  order ("each db bench thread submits the same workload; for
  fill-sequential, each thread writes [its data] sequentially");
* **read-sequential** — iterator scans over the populated database;
* **read-random** — uniform point lookups.

Keys are 16 bytes, values 1 KB, as in Figure 5.  Each completed operation
is bucketed into a throughput time series — the Figure 6 curves — and the
run reports average ops/sec — the Figure 5 bars.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.lsm.db import DB
from repro.sim.core import Simulator
from repro.sim.stats import ThroughputRecorder


@dataclass
class BenchResult:
    workload: str
    clients: int
    ops: int
    elapsed: float
    ops_per_sec: float
    series: List[Tuple[float, float]] = field(default_factory=list)
    stall_seconds: float = 0.0
    compactions: int = 0
    flushes: int = 0
    #: Puts that paid the SLOWDOWN delay during this phase.
    slowdown_puts: int = 0
    #: Simulated seconds per write-controller state over this phase
    #: ({"ok": ..., "slowdown": ..., "stop": ...}) — the *why* behind an
    #: ops/s move in a worker-count sweep.
    backpressure_residency: dict = field(default_factory=dict)

    def summary(self) -> str:
        residency = ""
        if self.backpressure_residency:
            residency = " bp[" + " ".join(
                f"{state}={seconds:.2f}s"
                for state, seconds in
                sorted(self.backpressure_residency.items())) + "]"
        return (f"{self.workload:16s} clients={self.clients}: "
                f"{self.ops_per_sec / 1e3:8.3f} kops/s "
                f"({self.ops} ops in {self.elapsed:.2f}s, "
                f"{self.compactions} compactions, "
                f"stall {self.stall_seconds:.2f}s, "
                f"{self.slowdown_puts} slowed{residency})")


class DbBench:
    """Drives one DB instance through the paper's workloads."""

    def __init__(self, db: DB, key_size: int = 16, value_size: int = 1024,
                 seed: int = 0, series_window: float = 1.0):
        self.db = db
        self.sim: Simulator = db.sim
        self.key_size = key_size
        self.value_size = value_size
        self.seed = seed
        self.series_window = series_window
        self.populated_keys = 0

    # -- keys and values -----------------------------------------------------------

    def key(self, index: int) -> bytes:
        return str(index).zfill(self.key_size).encode()

    def value(self, index: int) -> bytes:
        pattern = bytes([33 + (index % 90)])
        return pattern * self.value_size

    # -- workloads ------------------------------------------------------------------

    def fill_sequential(self, clients: int,
                        ops_per_client: int) -> BenchResult:
        """Every client writes keys 0..ops_per_client-1 in order."""
        recorder = ThroughputRecorder(self.series_window)
        stalls_before = self.db.stats.stall_seconds
        compactions_before = self.db.stats.compactions
        flushes_before = self.db.stats.flushes
        slowdowns_before = self.db.stats.slowdown_puts
        residency_before = self.db.backpressure.residency_summary(
            self.sim.now)
        started = self.sim.now

        def client():
            for index in range(ops_per_client):
                yield from self.db.put_proc(self.key(index),
                                            self.value(index))
                recorder.record(self.sim.now)

        workers = [self.sim.spawn(client(), name=f"fill-{c}")
                   for c in range(clients)]
        self.sim.run_until(self.sim.all_of(workers))
        elapsed = self.sim.now - started
        self.populated_keys = max(self.populated_keys, ops_per_client)
        residency_after = self.db.backpressure.residency_summary(
            self.sim.now)
        return BenchResult(
            workload="fill-sequential", clients=clients,
            ops=clients * ops_per_client, elapsed=elapsed,
            ops_per_sec=recorder.average(elapsed),
            series=recorder.series(),
            stall_seconds=self.db.stats.stall_seconds - stalls_before,
            compactions=self.db.stats.compactions - compactions_before,
            flushes=self.db.stats.flushes - flushes_before,
            slowdown_puts=self.db.stats.slowdown_puts - slowdowns_before,
            backpressure_residency={
                state: round(residency_after[state]
                             - residency_before.get(state, 0.0), 9)
                for state in residency_after})

    def read_sequential(self, clients: int,
                        ops_per_client: int) -> BenchResult:
        """Each client advances an iterator over the first N entries."""
        recorder = ThroughputRecorder(self.series_window)
        started = self.sim.now

        def client():
            scanned = yield from self.db.scan_proc(
                limit=ops_per_client,
                on_entry=lambda __k, __v: recorder.record(self.sim.now))
            return scanned

        workers = [self.sim.spawn(client(), name=f"readseq-{c}")
                   for c in range(clients)]
        counts = self.sim.run_until(self.sim.all_of(workers))
        elapsed = self.sim.now - started
        return BenchResult(
            workload="read-sequential", clients=clients,
            ops=sum(counts), elapsed=elapsed,
            ops_per_sec=recorder.average(elapsed),
            series=recorder.series())

    def read_random(self, clients: int, ops_per_client: int,
                    key_space: Optional[int] = None) -> BenchResult:
        """Uniform point lookups over the populated key space."""
        space = key_space or self.populated_keys
        if space <= 0:
            raise ReproError(
                "DbBench.read_random: key_space must be positive "
                f"(got {space}); fill the database first or pass "
                "key_space explicitly")
        recorder = ThroughputRecorder(self.series_window)
        started = self.sim.now

        def client(client_id: int):
            rng = random.Random(self.seed * 1000 + client_id)
            hits = 0
            for __ in range(ops_per_client):
                key = self.key(rng.randrange(space))
                value = yield from self.db.get_proc(key)
                if value is not None:
                    hits += 1
                recorder.record(self.sim.now)
            return hits

        workers = [self.sim.spawn(client(c), name=f"readrand-{c}")
                   for c in range(clients)]
        hits = self.sim.run_until(self.sim.all_of(workers))
        elapsed = self.sim.now - started
        result = BenchResult(
            workload="read-random", clients=clients,
            ops=clients * ops_per_client, elapsed=elapsed,
            ops_per_sec=recorder.average(elapsed),
            series=recorder.series())
        result.hits = sum(hits)   # type: ignore[attr-defined]
        return result

    def quiesce(self) -> None:
        """Let flush, compaction and the device cache settle (between the
        fill and the read workloads, as db_bench runs them back to back on
        a settled database)."""
        self.db.flush()
        self.db.wait_idle()
        media = getattr(self.db.env, "media", None)
        if media is not None:
            media.flush()
        self.db.wait_idle()
