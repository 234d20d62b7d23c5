"""Figure 5: RocksDB db_bench throughput by workload, placement, clients.

Regenerates the paper's main table: average operations/second for
fill-sequential, read-sequential and read-random under horizontal vs
vertical SSTable placement, with 1/2/4/8 client threads.  16 B keys,
1 KB values, no compression, no block cache.

Scale: the paper filled 3 GB per thread onto 24 MB chunks / 768 MB
SSTables; we fill 24 MB per thread onto 192 KB chunks / ~6 MB SSTables
(a uniform 1:128 scale).  Expected shapes (paper):

* fill-seq >> read-seq >> read-random;
* fill-seq: horizontal ahead at 1-2 clients (4x at 1 in the paper),
  vertical scales gracefully and catches up at 4-8 clients;
* reads: horizontal dominates vertical, more so with more clients;
* read-seq h/v at 1c: 13.1/10.3 kops; read-random h/v at 8c: 5.7/3.1.
"""

import pytest

from repro.benchhelpers import format_kops, lightlsm_db, report
from repro.lsm import DbBench, HorizontalPlacement, VerticalPlacement
from repro.units import MIB

CLIENTS = (1, 2, 4, 8)
FILL_OPS = 24_000          # 24 MB per client at 1 KB values
READSEQ_OPS = 6_000
READRAND_OPS = 400


def run_cell(placement_cls, clients):
    device, env, db = lightlsm_db(placement_cls())
    bench = DbBench(db)
    fill = bench.fill_sequential(clients=clients, ops_per_client=FILL_OPS)
    bench.quiesce()
    readseq = bench.read_sequential(clients=clients,
                                    ops_per_client=READSEQ_OPS)
    readrand = bench.read_random(clients=clients,
                                 ops_per_client=READRAND_OPS)
    return {
        "fill": fill.ops_per_sec,
        "readseq": readseq.ops_per_sec,
        "readrand": readrand.ops_per_sec,
        "levels": db.level_sizes(),
        "stall": fill.stall_seconds,
        "compactions": fill.compactions,
        "slowdown_puts": fill.slowdown_puts,
        "residency": fill.backpressure_residency,
    }


def run_grid():
    grid = {}
    for placement_cls in (HorizontalPlacement, VerticalPlacement):
        for clients in CLIENTS:
            grid[(placement_cls.name, clients)] = run_cell(placement_cls,
                                                           clients)
    return grid


@pytest.mark.benchmark(group="fig5")
def test_fig5_dbbench_throughput(benchmark):
    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    lines = ["Figure 5: db_bench average throughput (kops/s)",
             "(16 B keys, 1 KB values, no compression/caching; "
             "24 MB per client, 1:128 scale)", ""]
    header = (f"{'workload':>16s} {'placement':>11s} | "
              + " | ".join(f"{c:>2d} cl" for c in CLIENTS))
    lines.append(header)
    lines.append("-" * len(header))
    for workload in ("fill", "readseq", "readrand"):
        for placement in ("horizontal", "vertical"):
            row = " | ".join(
                format_kops(grid[(placement, c)][workload])
                for c in CLIENTS)
            lines.append(f"{workload:>16s} {placement:>11s} | {row}")
    lines.append("")
    lines.append("write-controller pressure during the fill "
                 "(slowed puts; seconds in slowdown/stop):")
    for placement in ("horizontal", "vertical"):
        row = " | ".join(
            f"{grid[(placement, c)]['slowdown_puts']:4d} "
            f"{grid[(placement, c)]['residency'].get('slowdown', 0.0):5.2f}s/"
            f"{grid[(placement, c)]['residency'].get('stop', 0.0):5.2f}s"
            for c in CLIENTS)
        lines.append(f"{'fill':>16s} {placement:>11s} | {row}")
    lines.append("")
    sample = grid[("horizontal", 8)]
    lines.append(f"levels after fill (horizontal, 8 clients): "
                 f"{sample['levels']} — the paper reports 3 populated "
                 "levels (L0, L1, L2)")
    report("fig5_dbbench", lines)

    h = {c: grid[("horizontal", c)] for c in CLIENTS}
    v = {c: grid[("vertical", c)] for c in CLIENTS}
    for c in CLIENTS:
        # Ordering within each cell: fill >> readseq > readrand.
        assert h[c]["fill"] > h[c]["readrand"]
        assert h[c]["readseq"] > h[c]["readrand"]
    # Horizontal wins the 1-client fill; vertical scales with clients.
    assert h[1]["fill"] > 1.2 * v[1]["fill"]
    assert v[8]["fill"] > 1.5 * v[1]["fill"]
    # Horizontal dominates vertical for reads at high client counts.
    assert h[8]["readseq"] >= v[8]["readseq"]
    assert h[8]["readrand"] >= v[8]["readrand"]


# -- worker-count sweep (the PR-10 concurrency axes) --------------------------

#: Per-block dispatch CPU for the sweep.  The paper's LightLSM runs a
#: single dispatch thread; the bottleneck only binds when submissions
#: cost CPU comparable to a block program and several writers compete.
SWEEP_DISPATCH_CPU = 2e-3
SWEEP_OPS = 6_000
#: (flush workers, compaction workers, dispatch workers).
SWEEP_CONFIGS = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 2, 4))


def run_worker_sweep():
    rows = []
    for fw, cw, dw in SWEEP_CONFIGS:
        device, env, db = lightlsm_db(
            HorizontalPlacement(), flush_workers=fw, compaction_workers=cw,
            dispatch_workers=dw, dispatch_cpu=SWEEP_DISPATCH_CPU)
        bench = DbBench(db)
        fill = bench.fill_sequential(clients=4, ops_per_client=SWEEP_OPS)
        bench.quiesce()
        rows.append(((fw, cw, dw), fill))
    return rows


@pytest.mark.benchmark(group="fig5")
def test_fig5_worker_sweep(benchmark):
    """Single vs multi dispatch on the write-heavy phase: scaling the
    flush, compaction and dispatch worker counts one axis at a time,
    with a non-zero dispatch CPU so the single dispatch thread is an
    actual bottleneck (§4.2's hypothesized limit)."""
    rows = benchmark.pedantic(run_worker_sweep, rounds=1, iterations=1)

    lines = ["Figure 5 (extension): fill-sequential vs worker counts",
             f"(4 clients, {SWEEP_OPS} ops/client, dispatch CPU "
             f"{SWEEP_DISPATCH_CPU * 1e3:.0f} ms/block, horizontal "
             "placement)", ""]
    header = (f"{'fw,cw,dw':>9s} | {'kops/s':>8s} | {'stall s':>8s} | "
              f"{'slowed':>6s} | backpressure residency")
    lines.append(header)
    lines.append("-" * len(header))
    for (fw, cw, dw), fill in rows:
        residency = " ".join(
            f"{state}={seconds:.2f}s" for state, seconds in
            sorted(fill.backpressure_residency.items()))
        lines.append(f"{fw:>3d},{cw:>2d},{dw:>2d} | "
                     f"{format_kops(fill.ops_per_sec)} | "
                     f"{fill.stall_seconds:8.2f} | "
                     f"{fill.slowdown_puts:6d} | {residency}")
    report("fig5_worker_sweep", lines)

    by_config = {config: fill for config, fill in rows}
    single = by_config[(2, 2, 1)].ops_per_sec
    multi = by_config[(2, 2, 2)].ops_per_sec
    # The acceptance bar: a second dispatch worker recovers >= 1.2x on
    # the write-heavy phase once dispatch CPU binds.
    assert multi >= 1.2 * single
    # Pipelined flushing alone must not be slower than the paper's
    # single-daemon configuration.
    assert by_config[(2, 1, 1)].ops_per_sec >= by_config[(1, 1, 1)].ops_per_sec


def test_dispatch_sweep_smoke():
    """§4.2 at smoke scale (a 2 MB write buffer, so the same 6 000 puts
    per client flush and compact often): once dispatch costs CPU
    comparable to a block program and the flush/compaction writers run
    concurrently, more dispatch workers buy >= 1.2x simulated ops/s
    over the paper's single dispatch thread."""
    ops_per_sec = {}
    for workers in (1, 2, 4):
        __, __env, db = lightlsm_db(
            HorizontalPlacement(), write_buffer_bytes=2 * MIB,
            flush_workers=2, compaction_workers=2,
            dispatch_workers=workers, dispatch_cpu=SWEEP_DISPATCH_CPU)
        fill = DbBench(db).fill_sequential(clients=4,
                                           ops_per_client=SWEEP_OPS)
        ops_per_sec[workers] = fill.ops_per_sec
    assert max(ops_per_sec[2], ops_per_sec[4]) >= 1.2 * ops_per_sec[1], \
        ops_per_sec
