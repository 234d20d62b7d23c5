"""Figure 6: fill-sequential throughput as a function of time.

Regenerates the two time-series panels: throughput (ops/s) over the run
for horizontal and vertical placement at 1/2/4/8 clients.  Expected
shapes (paper): horizontal stays high with 1-2 clients and stretches out
at 4-8; vertical shows an early 1-client peak but a lower average, and
becomes steadier (and relatively faster) with more clients; throughput
fluctuates throughout — the write-stall/rate-limiter throttling the
paper hypothesizes.
"""

import pytest

from repro.benchhelpers import lightlsm_db, report
from repro.lsm import DbBench, HorizontalPlacement, VerticalPlacement

CLIENTS = (1, 2, 4, 8)
FILL_OPS = 24_000
WINDOW = 0.05   # seconds per sample


def run_timelines():
    curves = {}
    for placement_cls in (HorizontalPlacement, VerticalPlacement):
        for clients in CLIENTS:
            device, env, db = lightlsm_db(placement_cls())
            bench = DbBench(db, series_window=WINDOW)
            result = bench.fill_sequential(clients=clients,
                                           ops_per_client=FILL_OPS)
            curves[(placement_cls.name, clients)] = result
    return curves


def sparkline(series, buckets=32):
    """Render a series as a coarse ASCII sparkline."""
    if not series:
        return ""
    rates = [rate for __, rate in series]
    peak = max(rates) or 1.0
    glyphs = " .:-=+*#%@"
    step = max(1, len(rates) // buckets)
    sampled = [max(rates[i:i + step]) for i in range(0, len(rates), step)]
    return "".join(glyphs[min(len(glyphs) - 1,
                              int(r / peak * (len(glyphs) - 1)))]
                   for r in sampled)


@pytest.mark.benchmark(group="fig6")
def test_fig6_fill_timeline(benchmark):
    curves = benchmark.pedantic(run_timelines, rounds=1, iterations=1)

    lines = ["Figure 6: fill-sequential throughput over time",
             f"(sampling window {WINDOW * 1e3:.0f} ms; each row: duration, "
             "peak and mean rate, ASCII profile)", ""]
    for placement in ("horizontal", "vertical"):
        lines.append(f"--- {placement} placement ---")
        for clients in CLIENTS:
            result = curves[(placement, clients)]
            rates = [rate for __, rate in result.series]
            peak = max(rates) if rates else 0.0
            lines.append(
                f"{clients} client(s): {result.elapsed:6.2f}s  "
                f"peak {peak / 1e3:7.1f} kops/s  "
                f"mean {result.ops_per_sec / 1e3:7.1f} kops/s  "
                f"stall {result.stall_seconds:5.2f}s")
            lines.append(f"    |{sparkline(result.series)}|")
        lines.append("")
    report("fig6_timeline", lines)

    horizontal = {c: curves[("horizontal", c)] for c in CLIENTS}
    vertical = {c: curves[("vertical", c)] for c in CLIENTS}
    # Completion time stretches with client count (same per-client ops,
    # shared device).
    assert horizontal[8].elapsed > horizontal[1].elapsed
    assert vertical[8].elapsed > vertical[1].elapsed
    # "Throughput fluctuates throughout": with 4 and 8 clients, on both
    # placements, some window runs well above the mean and some well
    # below it (stall throttling).
    for curves_by_clients in (horizontal, vertical):
        for clients in (4, 8):
            rates = [rate for __, rate in curves_by_clients[clients].series
                     if rate > 0]
            mean = sum(rates) / len(rates)
            assert max(rates) >= 1.5 * mean
            assert min(rates) <= 0.5 * mean
    # Vertical's 1-client run shows a peak well above its mean.
    rates_v1 = [rate for __, rate in vertical[1].series if rate > 0]
    assert max(rates_v1) > 1.5 * vertical[1].ops_per_sec


# -- compaction concurrency timeline (PR-10 concurrency plane) ----------------

def concurrency_profile(timeline, buckets=64):
    """Step-sample ``stats.compaction_timeline`` — a list of
    ``(sim_time, in_flight)`` transition points — into a digit string
    (one character per bucket, holding the last value seen)."""
    if not timeline:
        return "", 0
    end = timeline[-1][0] or 1.0
    step = end / buckets
    out, index, level = [], 0, 0
    for bucket in range(buckets):
        edge = (bucket + 1) * step
        while index < len(timeline) and timeline[index][0] <= edge:
            level = timeline[index][1]
            index += 1
        out.append(str(min(level, 9)))
    return "".join(out), max(count for __, count in timeline)


def run_concurrency_timeline():
    curves = {}
    for workers in (1, 2):
        device, env, db = lightlsm_db(
            HorizontalPlacement(), flush_workers=4,
            compaction_workers=workers)
        bench = DbBench(db, series_window=WINDOW)
        bench.fill_sequential(clients=8, ops_per_client=FILL_OPS)
        bench.quiesce()
        curves[workers] = db.stats
    return curves


@pytest.mark.benchmark(group="fig6")
def test_fig6_compaction_concurrency(benchmark):
    """How many compactions actually overlap over the fill: the engine
    records every executor transition, and with 2 workers the timeline
    must show real overlap (L0->L1 running next to a deeper merge)."""
    curves = benchmark.pedantic(run_concurrency_timeline, rounds=1,
                                iterations=1)

    lines = ["Figure 6 (extension): in-flight compactions over the fill",
             "(8 clients, 4 flush workers; each digit is the in-flight "
             "count at that point in the run)", ""]
    for workers, stats in sorted(curves.items()):
        profile, peak = concurrency_profile(stats.compaction_timeline)
        lines.append(f"{workers} compaction worker(s): "
                     f"{stats.compactions} compactions, peak {peak} "
                     f"in flight")
        lines.append(f"    |{profile}|")
    report("fig6_compaction_concurrency", lines)

    peak1 = max(count for __, count in curves[1].compaction_timeline)
    peak2 = max(count for __, count in curves[2].compaction_timeline)
    assert peak1 == 1
    assert peak2 == 2
