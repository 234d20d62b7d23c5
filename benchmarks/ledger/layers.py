"""Per-layer measurements, all taken from outside ``src/repro``.

Three families, one per kind of child process (see run.py):

* **public stats** (every child): deltas of the layers' public ``stats``
  objects and ``Resource.busy_time()`` over the timed phase — exact
  counts that must repeat for one (workload, seed);
* **host clock** (cProfile child, ``obs=False``): each profiled
  function's exclusive ``tottime`` is charged to the ``src/repro``
  module that owns its source file — one bucket per module, the
  attribution ``scripts/profile_stack.py`` makes with coarser buckets;
* **sim clock** (obs child, ``StackSpec.obs=True``): the layer-exclusive
  span table of :func:`repro.obs.report.attribute` and the wait
  histograms, restricted to the timed phase.

Layers are the ``src/repro`` module names.  Every metric is emitted for
every workload; a layer the workload's stack does not build reports 0.
"""

from __future__ import annotations

import gc
import heapq
import os
import pstats
import random
import time
from typing import Dict, List

from repro.obs.report import attribute
from repro.sim import Simulator
from repro.stack import Stack

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))

#: Source path fragment -> layer, first match wins; anything unmatched
#: (stdlib, builtins, repro's small helper modules) is "python".
_REPRO = os.path.join("src", "repro") + os.sep
_ATTRIBUTION = tuple(
    (_REPRO + fragment, layer) for fragment, layer in (
        ("sim" + os.sep, "sim"),
        ("nand" + os.sep, "nand"),
        ("ocssd" + os.sep, "ocssd"),
        ("qos" + os.sep, "qos"),
        (os.path.join("ox", "media.py"), "ox.media"),
        (os.path.join("ox", "ftl") + os.sep, "ox.ftl"),
        (os.path.join("ox", "block.py"), "ox.block"),
        (os.path.join("ox", "eleos.py"), "ox.eleos"),
        ("zns" + os.sep, "zns"),
        ("lsm" + os.sep, "lsm"),
        ("llama" + os.sep, "llama"),
        ("policies" + os.sep, "policies"),
        ("stack" + os.sep, "stack"),
    )) + ((LEDGER_DIR + os.sep, "harness"),)
HOST_LAYERS = tuple(layer for __, layer in _ATTRIBUTION) + ("python",)

#: Span layers of repro.obs reported as ``<layer>.sim_excl_s``/``.spans``.
OBS_LAYERS = ("nand", "ocssd", "ftl", "ftl.gc", "ftl.wal", "lsm",
              "lsm.compaction", "zns")
#: Wait histograms (obs registry name -> metric name), reported as the
#: total simulated seconds recorded during the timed phase.
OBS_WAITS = {
    "ocssd.chip.wait_s": "ocssd.chip_wait_s",
    "ocssd.channel.wait_s": "ocssd.channel_wait_s",
    "ocssd.cache.wait_s": "ocssd.cache_wait_s",
    "ocssd.flushq.wait_s": "ocssd.flushq_wait_s",
    "qos.sched.wait_s": "qos.sched_wait_s",
    "ftl.lock.wait_s": "ftl.lock_wait_s",
    "ftl.gc.stall_s": "ftl.gc.stall_s",
    "ftl.wal.flush_s": "ftl.wal.flush_s",
    "lsm.stall_s": "lsm.stall_s",
}


def layer_of(filename: str) -> str:
    for fragment, layer in _ATTRIBUTION:
        if fragment in filename:
            return layer
    return "python"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- public stats ------------------------------------------------------------------

def snapshot(stack: Stack) -> Dict[str, object]:
    """Cumulative public counters of every layer *stack* built."""
    device = stack.device
    controller = device.controller
    chips = list(device.chips.values())
    snap: Dict[str, object] = {
        "sim.now": stack.sim.now,
        "sim.events": stack.sim.events_processed,
        "nand.reads": sum(c.stats.reads for c in chips),
        "nand.programs": sum(c.stats.programs for c in chips),
        "nand.erases": sum(c.stats.erases for c in chips),
        "nand.busy_s": sum(c.stats.read_time + c.stats.program_time
                           + c.stats.erase_time for c in chips),
        "ocssd.sectors_written": controller.stats.sectors_written,
        "ocssd.sectors_read": controller.stats.sectors_read,
        "ocssd.cache_read_sectors":
            controller.stats.sectors_read_from_cache,
        "ocssd.chunk_resets": controller.stats.chunk_resets,
        "ocssd.channel_busy": [r.busy_time() for r in controller.channels],
        "ocssd.pu_busy": [r.busy_time()
                          for r in controller.chip_locks.values()],
    }
    flavor = stack.spec.ftl
    if flavor == "oxblock":
        block, collector = stack.ftl.stats, stack.ftl.gc.stats
        snap.update({
            "ox.block.writes": block.writes,
            "ox.block.reads": block.reads,
            "ox.block.checkpoints": block.checkpoints,
            "ox.block.forced_checkpoints": block.forced_checkpoints,
            "ox.ftl.gc_chunks_recycled": collector.chunks_recycled,
            "ox.ftl.gc_sectors_relocated": collector.sectors_relocated,
            "ox.ftl.gc_skips_no_space": collector.skips_no_space,
            "ox.ftl.gc_deferrals_unsafe": collector.deferrals_unsafe,
            "ox.ftl.map_bytes": stack.ftl.page_map.memory_bytes(),
        })
    elif flavor == "eleos":
        eleos = stack.ftl.stats
        snap.update({
            "ox.eleos.buffers_appended": eleos.buffers_appended,
            "ox.eleos.bytes_appended": eleos.bytes_appended,
            "ox.eleos.pages_read": eleos.pages_read,
            "ox.eleos.segments_freed": eleos.segments_freed,
            "ox.eleos.checkpoints": eleos.checkpoints,
        })
    elif flavor == "zns":
        zns = stack.ftl.stats
        snap.update({"zns.appends": zns.appends,
                     "zns.zone_resets": zns.zone_resets,
                     "zns.zones_finished": zns.zones_finished})
    if stack.wlfc is not None:
        wlfc = stack.wlfc.stats
        snap.update({
            "policies.wlfc_host_sectors": wlfc.host_sectors_written,
            "policies.wlfc_absorbed": wlfc.absorbed_rewrites,
            "policies.wlfc_read_hits": wlfc.read_hits,
            "policies.wlfc_read_misses": wlfc.read_misses,
            "policies.wlfc_evictions": wlfc.evictions,
        })
    if stack.db is not None:
        db = stack.db.stats
        snap.update({
            "lsm.gets": db.gets, "lsm.flushes": db.flushes,
            "lsm.compactions": db.compactions,
            "lsm.tables_written": db.tables_written,
            "lsm.blocks_read": db.blocks_read,
            "lsm.stall_s": db.stall_seconds,
            "lsm.slowdown_puts": db.slowdown_puts,
            "lsm.max_flush_queue_depth": db.max_flush_queue_depth,
        })
        env = getattr(stack.env, "stats", None)   # LightLSMEnv only
        if env is not None:
            snap.update({"lsm.env_blocks_written": env.blocks_written,
                         "lsm.env_chunk_resets": env.chunk_resets})
    if stack.engine is not None:
        llama = stack.engine.stats
        snap.update({
            "llama.reads": llama.reads,
            "llama.cache_misses": llama.cache_misses,
            "llama.consolidations": llama.consolidations,
            "llama.segments_cleaned": llama.segments_cleaned,
            "llama.pages_relocated": llama.pages_relocated,
        })
    return snap


#: Reported as their timed-phase delta, 0 where the layer is absent.
_DELTA_COUNTS = (
    "nand.reads", "nand.programs", "nand.erases",
    "ocssd.sectors_written", "ocssd.sectors_read", "ocssd.chunk_resets",
    "ox.block.writes", "ox.block.reads", "ox.block.checkpoints",
    "ox.block.forced_checkpoints",
    "ox.ftl.gc_chunks_recycled", "ox.ftl.gc_sectors_relocated",
    "ox.ftl.gc_skips_no_space", "ox.ftl.gc_deferrals_unsafe",
    "policies.wlfc_evictions",
    "lsm.flushes", "lsm.compactions", "lsm.tables_written",
    "lsm.slowdown_puts", "lsm.env_blocks_written", "lsm.env_chunk_resets",
    "zns.appends", "zns.zone_resets", "zns.zones_finished",
    "ox.eleos.buffers_appended", "ox.eleos.bytes_appended",
    "ox.eleos.pages_read", "ox.eleos.segments_freed",
    "ox.eleos.checkpoints",
    "llama.consolidations", "llama.segments_cleaned",
    "llama.pages_relocated",
)


def stats_metrics(before: Dict[str, object],
                  after: Dict[str, object]) -> Dict[str, float]:
    """The exact per-layer metrics of one timed phase."""
    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def busy(name: str) -> List[float]:
        return [(late - early) / sim_seconds
                for early, late in zip(before[name], after[name])]

    sim_seconds = delta("sim.now")
    out = {name: delta(name) for name in _DELTA_COUNTS}
    channels, pus = busy("ocssd.channel_busy"), busy("ocssd.pu_busy")
    out.update({
        "nand.busy_share": delta("nand.busy_s") / (sim_seconds * len(pus)),
        "ocssd.cache_read_hit_share": _ratio(
            delta("ocssd.cache_read_sectors"), delta("ocssd.sectors_read")),
        "ocssd.channel_util_mean": sum(channels) / len(channels),
        "ocssd.channel_util_max": max(channels),
        "ocssd.pu_util_mean": sum(pus) / len(pus),
        "ocssd.pu_util_max": max(pus),
        "ox.ftl.map_bytes": after.get("ox.ftl.map_bytes", 0),
        "policies.wlfc_absorbed_share": _ratio(
            delta("policies.wlfc_absorbed"),
            delta("policies.wlfc_host_sectors")),
        "policies.wlfc_read_hit_share": _ratio(
            delta("policies.wlfc_read_hits"),
            delta("policies.wlfc_read_hits")
            + delta("policies.wlfc_read_misses")),
        "lsm.blocks_read_per_get": _ratio(delta("lsm.blocks_read"),
                                          delta("lsm.gets")),
        # Summed over clients, so it can exceed 1 when several stall.
        "lsm.stall_share": delta("lsm.stall_s") / sim_seconds,
        "lsm.max_flush_queue_depth":
            after.get("lsm.max_flush_queue_depth", 0),
        "llama.cache_miss_share": _ratio(delta("llama.cache_misses"),
                                         delta("llama.reads")),
    })
    return out


# -- host clock: cProfile ----------------------------------------------------------

def host_split(profiler, ops: int) -> Dict[str, float]:
    """``<L>.host_share`` (exclusive time / total) and
    ``<L>.calls_per_op`` for every layer; shares sum to 1."""
    seconds = dict.fromkeys(HOST_LAYERS, 0.0)
    calls = dict.fromkeys(HOST_LAYERS, 0)
    for (filename, __, __), row in pstats.Stats(profiler).stats.items():
        layer = layer_of(filename)
        calls[layer] += row[1]
        seconds[layer] += row[2]
    total = sum(seconds.values())
    out = {}
    for layer in HOST_LAYERS:
        out[f"{layer}.host_share"] = seconds[layer] / total
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
    return out


# -- sim clock: repro.obs ----------------------------------------------------------

def obs_snapshot(stack: Stack) -> Dict[str, float]:
    metrics = stack.obs.metrics
    snap = {name: metrics.histogram(name).total() for name in OBS_WAITS}
    snap["spans"] = len(stack.obs.tracer.spans)
    snap["qos.grants"] = metrics.counter("qos.sched.grants").value
    snap["sim.spawned"] = metrics.counter("sim.processes_spawned").value
    return snap


def obs_metrics(stack: Stack, before: Dict[str, float],
                after: Dict[str, float], op_seconds: float,
                ops: int) -> Dict[str, float]:
    """The sim-clock split of the timed phase: spans begun in it."""
    tracer = stack.obs.tracer
    table = attribute(tracer.spans[before["spans"]:])
    out = {}
    for layer in OBS_LAYERS:
        row = table.layers.get(layer)
        out[f"{layer}.sim_excl_s"] = row.exclusive if row else 0.0
        out[f"{layer}.spans"] = row.spans if row else 0
    for source, name in OBS_WAITS.items():
        out[name] = after[source] - before[source]
    out["qos.grants"] = after["qos.grants"] - before["qos.grants"]
    out["sim.processes_spawned_per_op"] = (
        after["sim.spawned"] - before["sim.spawned"]) / ops
    # A tracer past its event cap drops spans silently; that would break
    # the identity for a reason that is not the model's.
    out["obs.identity_ok"] = int(table.consistent and not tracer.dropped)
    out["obs.coverage"] = _ratio(table.root_total, op_seconds)
    return out


# -- the machine-speed calibrators --------------------------------------------------

class BoxClock:
    """How fast this box runs Python right now, from outside the code
    under test: a fixed loop (heap, dict and generator traffic — what a
    discrete-event kernel asks of the interpreter — plus scattered reads
    of a table too big for the cache) that calls nothing in
    ``src/repro``, so no change to the simulator can move it.  run.py
    reads it between children and divides it out of the host-clock
    times."""

    SLICES = 64          # per reading, ~3 ms each
    TURNS = 2_000        # kernel-like turns per slice
    TOUCHES = 4_000      # scattered table reads per slice
    ENTRIES = 500_000    # table size, ~60 MB of small objects

    def __init__(self) -> None:
        self.table = [(index, str(index)) for index in range(self.ENTRIES)]
        self.order = list(range(self.ENTRIES))
        random.Random(0).shuffle(self.order)

    def read(self) -> List[float]:
        """Host seconds of each slice; slice *k* is the same work in
        every reading."""
        def echo():
            value = 0
            while True:
                value = yield value + 1

        bounce = echo()
        next(bounce)
        table = self.table
        out = []
        for index in range(self.SLICES):
            scattered = self.order[index * self.TOUCHES:
                                   (index + 1) * self.TOUCHES]
            heap: List[tuple] = []
            seen: Dict[int, int] = {}
            total = 0
            started = time.perf_counter()
            for turn in range(self.TURNS):
                heapq.heappush(heap, (turn * 7919 % 10007, turn))
                seen[turn & 1023] = bounce.send(turn)
                if turn & 1:
                    heapq.heappop(heap)
            for entry in scattered:
                total += len(table[entry][1])
            out.append(time.perf_counter() - started)
        return out


def kernel_events_per_s(procs: int = 200, waits: int = 250) -> float:
    """Events per host second through a bare :class:`Simulator`: *procs*
    processes each sleeping *waits* times on incommensurate steps — the
    ``run_kernel_storm`` shape of ``bench_perf_trajectory.py``.  Divides
    the box out of ``host_ops_per_s`` (``host.norm_ops``)."""
    sim = Simulator()

    def storm(step: float):
        for __ in range(waits):
            yield sim.timeout(step)

    done = sim.all_of([sim.spawn(storm(1.0 + index / procs))
                       for index in range(procs)])
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        sim.run_until(done)
        wall = time.perf_counter() - started
    finally:
        gc.enable()
    return sim.events_processed / wall
