"""Sim-identity pins for the reclaim paths (ELEOS/LLAMA cleaner, OX-Block GC).

Reclaim bookkeeping is host-side accounting: however it is kept, the
simulated timeline must not move.  Each scenario below runs a smoke-scale
reclaim loop and compares ``(sim.now, sim.events_processed)`` plus every
public counter of the layers involved against golden values captured on
the commit *before* incremental liveness accounting landed (c0a1c8d).  A
skipped chunk-table clock tick, a reordered victim or a dropped device
command changes at least one of them.
"""

from __future__ import annotations

import dataclasses
import random
import zlib

import pytest

from repro.stack import StackSpec, build_stack
from repro.units import KIB


def _eleos_llama_clean_loop():
    stack = build_stack(StackSpec(
        name="pin-eleos-llama", seed=3,
        geometry={"num_groups": 2, "pus_per_group": 2,
                  "chunks_per_pu": 24, "pages_per_block": 6},
        ftl="eleos",
        ftl_config={"buffer_bytes": 256 * KIB, "wal_chunk_count": 4},
        llama={"consolidate_after": 4, "clean_live_ratio": 0.8,
               "cache_capacity": 20}))
    engine, ftl, sim = stack.engine, stack.ftl, stack.sim
    rng = random.Random(3)
    pages = 80
    for pid in range(pages):
        engine.replace(pid, bytes([65 + pid % 26]) * rng.randint(37, 9000))
    engine.flush()
    for __ in range(60):
        for __ in range(8):
            engine.update(rng.randrange(pages),
                          bytes([97 + rng.randrange(26)])
                          * rng.randint(16, 256))
        engine.flush()
        for __ in range(10):
            engine.read(rng.randrange(pages))
        engine.clean_once()
    return {"now": sim.now, "events": sim.events_processed,
            "eleos": dataclasses.asdict(ftl.stats),
            "llama": dataclasses.asdict(engine.stats),
            # Which chunks each surviving segment took: pins the
            # allocator's round-robin order, not only how many it handed out.
            "segments_crc": zlib.crc32(
                repr(sorted(ftl.segments.items())).encode())}


def _zipf_overwrite_gc(gc_policy: str):
    stack = build_stack(StackSpec(
        name="pin-gc-zipf", seed=5,
        geometry={"num_groups": 2, "pus_per_group": 2,
                  "chunks_per_pu": 12, "pages_per_block": 6},
        ftl="oxblock",
        ftl_config={"gc_low_watermark": 6, "gc_high_watermark": 10},
        gc_policy=gc_policy))
    ftl, sim = stack.ftl, stack.sim
    geometry = stack.device.geometry
    unit = geometry.ws_min
    sector = geometry.sector_size
    span_units = int(ftl.provisioner.free_chunks()
                     * geometry.sectors_per_chunk * 0.75) // unit
    for index in range(span_units):
        ftl.write(index * unit, bytes([index % 251]) * (sector * unit))
    ftl.flush()
    rng = random.Random(5)
    for step in range(500):
        # Skewed overwrites (hot quarter takes 3 in 4), single-sector
        # reads and the occasional trim: dead, live and trimmed sectors
        # all reach the victim scan.
        hot = rng.random() < 0.75
        target = (rng.randrange(span_units // 4) if hot
                  else rng.randrange(span_units))
        draw = rng.random()
        if draw < 0.70:
            ftl.write(target * unit, bytes([step % 251]) * (sector * unit))
        elif draw < 0.95:
            ftl.read(target * unit + rng.randrange(unit), 1)
        else:
            ftl.trim(target * unit, unit)
    ftl.flush()
    return {"now": sim.now, "events": sim.events_processed,
            "gc": dataclasses.asdict(ftl.gc.stats),
            "clock": ftl.chunk_table.clock(),
            "sectors_written": stack.device.controller.stats.sectors_written,
            "sectors_read": stack.device.controller.stats.sectors_read}


# Captured at c0a1c8d by `PYTHONPATH=src python tests/test_sim_identity.py`.
GOLDEN = {'eleos_llama': {'now': 1.2774929687500083,
                 'events': 4913,
                 'eleos': {'buffers_appended': 85,
                           'pages_appended': 670,
                           'bytes_appended': 3424005,
                           'pages_read': 817,
                           'segments_freed': 58,
                           'checkpoints': 26},
                 'llama': {'updates': 560,
                           'reads': 600,
                           'cache_misses': 412,
                           'flushes': 61,
                           'pages_flushed': 544,
                           'consolidations': 86,
                           'segments_cleaned': 58,
                           'pages_relocated': 126},
                 'segments_crc': 2939749507},
 'greedy': {'now': 6.261639453124616,
            'events': 11182,
            'gc': {'chunks_recycled': 327,
                   'sectors_relocated': 7008,
                   'resets': 327,
                   'reset_failures': 0,
                   'group_rotations': 125,
                   'skips_no_space': 0,
                   'deferrals_unsafe': 0},
            'clock': 7423,
            'sectors_written': 36192,
            'sectors_read': 22857},
 'cost_benefit': {'now': 6.417034765624603,
                  'events': 11397,
                  'gc': {'chunks_recycled': 332,
                         'sectors_relocated': 7296,
                         'resets': 332,
                         'reset_failures': 0,
                         'group_rotations': 131,
                         'skips_no_space': 0,
                         'deferrals_unsafe': 0},
                  'clock': 7711,
                  'sectors_written': 36816,
                  'sectors_read': 23433},
 'age_partitioned': {'now': 6.425016015624601,
                     'events': 11413,
                     'gc': {'chunks_recycled': 333,
                            'sectors_relocated': 7344,
                            'resets': 333,
                            'reset_failures': 0,
                            'group_rotations': 109,
                            'skips_no_space': 0,
                            'deferrals_unsafe': 0},
                     'clock': 7759,
                     'sectors_written': 36912,
                     'sectors_read': 23433}}


def test_eleos_llama_clean_loop_is_sim_identical():
    assert _eleos_llama_clean_loop() == GOLDEN["eleos_llama"]


@pytest.mark.parametrize(
    "gc_policy", ["greedy", "cost_benefit", "age_partitioned"])
def test_zipf_overwrite_gc_is_sim_identical(gc_policy):
    assert _zipf_overwrite_gc(gc_policy) == GOLDEN[gc_policy]


if __name__ == "__main__":   # regenerate: PYTHONPATH=src python tests/test_sim_identity.py
    import pprint
    golden = {"eleos_llama": _eleos_llama_clean_loop()}
    for policy in ("greedy", "cost_benefit", "age_partitioned"):
        golden[policy] = _zipf_overwrite_gc(policy)
    pprint.pprint(golden, sort_dicts=False, width=78)
