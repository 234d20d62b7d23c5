"""TraceWorkload: drive a built stack from a recorded trace.

Replay rebuilds the *structure* of the capture run, not just its op
list.  Host traces carry a stream label per op (which closed-loop
client issued it) and barrier records (where the capture run quiesced);
replay groups each phase's ops by stream, spawns one process per stream
in first-appearance order, and quiesces between phases — the same
processes, issuing the same ops, in the same spawn order, as the
DbBench run that was captured.  Because the simulator is deterministic,
the replay's event sequence is then *identical*: same ``sim_seconds``,
same ``events_processed``, same DB stats (``TestHostCaptureReplay`` in
``tests/test_trace.py`` gates it).  Block traces replay as the
synchronous single-issue loop that produced them.

Time-warp: ``pacing="afap"`` (default) re-runs the closed loops as fast
as the simulated device allows — the fidelity mode; ``"recorded"``
holds each op until its captured issue time, preserving the original
inter-arrival gaps (useful when replaying against a *different* stack,
where afap would collapse the think time the original device induced).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.trace.format import TraceOp, read_trace

PACINGS = ("afap", "recorded")


class TraceWorkload:
    """Replays one recorded trace through a built stack."""

    def __init__(self, ops: List[TraceOp],
                 meta: Optional[Dict[str, object]] = None,
                 pacing: str = "afap"):
        if pacing not in PACINGS:
            raise ReproError(
                f"TraceWorkload: pacing must be one of {PACINGS}, "
                f"got {pacing!r}")
        self.ops = list(ops)
        self.meta = dict(meta or {})
        self.pacing = pacing
        layers = {op.layer for op in self.ops if op.kind != "barrier"}
        if layers >= {"host", "block"}:
            raise ReproError(
                "TraceWorkload: mixed host+block trace; record with "
                "boundary='host' or boundary='block' to replay")
        self.layer = next(iter(layers)) if layers else "host"

    @classmethod
    def load(cls, path: str, pacing: str = "afap") -> "TraceWorkload":
        meta, ops = read_trace(path)
        return cls(ops, meta=meta, pacing=pacing)

    # -- driving ------------------------------------------------------------

    def run(self, stack) -> Dict[str, object]:
        """Replay through *stack*; returns replay metrics (op counts,
        phases, and — for host traces — the same DB-stat deltas the
        capture run reported, for bit-identity comparison)."""
        if self.layer == "host":
            return self._run_host(stack)
        return self._run_block(stack)

    def _paced(self, sim, op: TraceOp):
        """Recorded pacing: hold until the captured issue time."""
        if self.pacing == "recorded" and op.t > sim.now:
            yield sim.timeout(op.t - sim.now)

    def _run_host(self, stack) -> Dict[str, object]:
        sim = stack.sim
        bench = stack.dbbench()
        db = bench.db
        stats = db.stats

        # Phases are the stretches between barrier records; the capture
        # run quiesced at each barrier, so replay does too.
        phases: List[List[TraceOp]] = [[]]
        for op in self.ops:
            if op.kind == "barrier":
                phases.append([])
            else:
                phases[-1].append(op)

        def client(ops: List[TraceOp]):
            for op in ops:
                yield from self._paced(sim, op)
                if op.kind == "put":
                    yield from db.put_proc(op.key_bytes(), op.payload(),
                                           stream=op.stream)
                elif op.kind == "get":
                    yield from db.get_proc(op.key_bytes(),
                                           stream=op.stream)
                elif op.kind == "delete":
                    yield from db.delete_proc(op.key_bytes(),
                                              stream=op.stream)
                elif op.kind == "scan":
                    yield from db.scan_proc(limit=op.size,
                                            stream=op.stream)
                else:
                    raise ReproError(
                        f"host trace op kind {op.kind!r} is not "
                        f"replayable")

        # The capture run's DB-stat deltas (the fill workload's) cover
        # everything before the first quiesce barrier.  Measure the same
        # window so the deltas compare bit-for-bit.
        before = (stats.stall_seconds, stats.compactions, stats.flushes)

        def deltas() -> Dict[str, object]:
            return {"stall_seconds":
                        round(stats.stall_seconds - before[0], 6),
                    "compactions": stats.compactions - before[1],
                    "flushes": stats.flushes - before[2]}

        fill: Optional[Dict[str, object]] = None
        total = 0
        for index, phase in enumerate(phases):
            if index > 0:
                fill = fill or deltas()
                bench.quiesce()
            if not phase:
                continue
            # One proc per stream, spawned in first-appearance order —
            # the order the capture run's clients first reached the DB.
            by_stream: Dict[str, List[TraceOp]] = {}
            for op in phase:
                by_stream.setdefault(op.stream, []).append(op)
            workers = [sim.spawn(client(ops), name=stream or "replay")
                       for stream, ops in by_stream.items()]
            sim.run_until(sim.all_of(workers))
            total += len(phase)
        return {"replay_ops": total, "replay_phases": len(phases),
                "replay_streams": len({op.stream for op in self.ops
                                       if op.kind != "barrier"}),
                **(fill or deltas())}

    def _run_block(self, stack) -> Dict[str, object]:
        lane = stack.block
        sim = stack.sim
        sector_size = stack.device.geometry.sector_size
        total = 0
        for op in self.ops:
            if op.kind == "barrier":
                continue
            if self.pacing == "recorded" and op.t > sim.now:
                sim.run(until=op.t)
            if op.kind == "write":
                lane.write(op.lba, op.payload(sector_size))
            elif op.kind == "read":
                lane.read(op.lba, op.sectors)
            elif op.kind == "trim":
                lane.trim(op.lba, op.sectors)
            elif op.kind == "flush":
                lane.flush()
            else:
                raise ReproError(
                    f"block trace op kind {op.kind!r} is not replayable")
            total += 1
        # The capture loop ends with a drain of in-flight background
        # work (_raw_workload's trailing run()); mirror it.
        sim.run()
        return {"replay_ops": total, "replay_phases": 1}
