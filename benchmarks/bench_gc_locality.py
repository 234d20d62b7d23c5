"""§4.3 in-text numbers: locality of garbage-collection interference.

"OX-Block marks a group for collection.  Then, background threads recycle
victim chunks within that group.  This guarantees locality of
interferences from garbage collection ... On an SSD with 16 channels,
this percentage is 93.7%.  On an SSD with 8 channels, this percentage is
87.5%."

The bench measures it: fill the device, invalidate data so the marked
group has victims, then read uniformly across all groups *while* GC
recycles chunks in the marked group.  A group counts as interfered with
when its in-GC read latency rises materially above its idle baseline.
The analytic value is (N-1)/N for N groups.
"""

import pytest

from repro.benchhelpers import report
from repro.obs.metrics import Histogram
from repro.stack import StackSpec, build_stack


def build(groups: int):
    stack = build_stack(StackSpec(
        geometry={"num_groups": groups, "pus_per_group": 2,
                  "chunks_per_pu": 10, "pages_per_block": 6},
        ftl="oxblock",
        ftl_config={"gc_enabled": False, "wal_chunk_count": 2,
                    "ckpt_chunks_per_slot": 1}))
    return stack.device, stack.ftl


def measure(groups: int):
    device, ftl = build(groups)
    geometry = device.report_geometry()
    sector = geometry.sector_size
    sim = device.sim

    # Fill, then overwrite, leaving invalid sectors everywhere.
    lba_count = geometry.ws_min * geometry.total_pus * 4
    for round_ in range(3):
        for lba in range(0, lba_count, geometry.ws_min):
            ftl.write(lba, bytes([round_ + 1]) * sector * geometry.ws_min)
    ftl.flush()
    sim.run()

    # Sample LBAs per group (via the mapping table's physical homes).
    samples = {group: [] for group in range(groups)}
    for lba in range(lba_count):
        linear = ftl.page_map.lookup(lba)
        if linear is None:
            continue
        home = geometry.delinearize(linear)
        if len(samples[home.group]) < 8:
            samples[home.group].append(lba)

    def probe(recorders):
        for group in range(groups):
            for lba in samples[group]:
                started = sim.now
                yield from ftl.read_proc(lba, 1)
                recorders[group].record(sim.now - started)

    # Idle baseline.
    baseline = {g: Histogram() for g in range(groups)}
    sim.run_until(sim.spawn(probe(baseline)))

    # GC in the marked group, concurrent with the probe.
    ftl.gc.marked_group = 0
    during = {g: Histogram() for g in range(groups)}

    def gc_run():
        grant = ftl._lock.request()
        yield grant
        try:
            recycled = yield from ftl.gc.collect_group_locked_proc(0)
            # The rounds' resets run in the carry: part of GC's window.
            yield from ftl.gc.carry_proc()
        finally:
            ftl._lock.release()
        return recycled

    gc_proc = sim.spawn(gc_run())

    def repeated_probe():
        while gc_proc.is_alive:
            yield from probe(during)

    sim.run_until(sim.spawn(repeated_probe()))
    recycled = sim.run_until(gc_proc)
    assert recycled > 0, "GC found no victims; workload too small"

    interfered = []
    for group in range(groups):
        idle = baseline[group].mean()
        busy = during[group].mean()
        if busy > idle * 1.25:
            interfered.append(group)
    unaffected = 1.0 - len(interfered) / groups
    return unaffected, interfered, recycled


def run_both():
    return {groups: measure(groups) for groups in (8, 16)}


@pytest.mark.benchmark(group="gc-locality")
def test_gc_interference_locality(benchmark):
    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    lines = ["GC interference locality (§4.3 in-text numbers)", "",
             f"{'channels':>9s} {'analytic':>9s} {'measured':>9s} "
             f"{'paper':>7s}"]
    paper = {8: 0.875, 16: 0.937}
    for groups, (unaffected, interfered, recycled) in results.items():
        analytic = (groups - 1) / groups
        lines.append(f"{groups:>9d} {analytic:>8.1%} {unaffected:>8.1%} "
                     f"{paper[groups]:>6.1%}  "
                     f"(interfered groups: {interfered}, "
                     f"{recycled} chunks recycled)")
    report("gc_locality", lines)

    for groups, (unaffected, interfered, __) in results.items():
        assert unaffected == pytest.approx((groups - 1) / groups,
                                           abs=1.0 / groups / 2)
        assert interfered == [0]   # only the marked group suffers
