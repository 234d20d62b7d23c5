"""The Figure 1 abstraction spectrum, measured on one data system.

The paper's core argument: for a given data system, the choice of FTL
abstraction — generic block device (pblk/SPDK/OX-Block), ZNS, or
application-specific (LightLSM) — determines how much of the
Open-Channel SSD's potential reaches the application.  This bench runs
the *same* RocksDB-lite workload over all three:

* **block-device**: RocksDB-lite on an extent allocator over OX-Block —
  every SSTable block pays the generic FTL's page-mapping + WAL tax, and
  deletion leaves garbage for device-side GC to copy;
* **ZNS**: RocksDB-lite on zones over OX-ZNS — append-only tables, reset
  reclamation, ws_min hidden by the FTL, but a MANIFEST still required;
* **app-specific**: LightLSM — SSTables placed straight onto chunks,
  deletion is chunk erases, the media is self-describing.

Expected ordering (the paper's position): app-specific >= ZNS >>
generic block device for the write path; device-level write
amplification highest for the block device.
"""

import pytest

from repro.benchhelpers import format_kops, report
from repro.stack import StackSpec, build_stack
from repro.units import KIB, MIB

FILL_OPS = 12_000
CLIENTS = 2

# One LSM engine, three FTL abstractions — only the `ftl` stanza moves.
SPECTRUM = {
    "block-device": dict(
        ftl="oxblock", host="db",
        ftl_config={"wal_chunk_count": 16, "gc_low_watermark": 16,
                    "gc_high_watermark": 48}),
    "zns": dict(
        ftl="zns",
        ftl_config={"chunks_per_zone": 4, "max_open_zones": 32}),
    "app-specific": dict(ftl="lightlsm"),
}


def run_env(kind: str):
    stack = build_stack(StackSpec(
        geometry={"num_groups": 8, "pus_per_group": 4,
                  "chunks_per_pu": 160, "pages_per_block": 6},
        db={"block_size": 96 * KIB, "write_buffer_bytes": 4 * MIB},
        **SPECTRUM[kind]))
    dev = stack.device
    bench = stack.dbbench()

    user_bytes_before = dev.controller.stats.sectors_written
    fill = bench.fill_sequential(clients=CLIENTS, ops_per_client=FILL_OPS)
    bench.quiesce()
    dev.sim.run()
    device_sectors = dev.controller.stats.sectors_written \
        - user_bytes_before
    readrand = bench.read_random(clients=CLIENTS, ops_per_client=300)

    # Unique logical data = FILL_OPS keys x ~1 KB values; every flush and
    # compaction rewrite counts toward amplification.
    logical_sectors = FILL_OPS * 1040 // dev.report_geometry().sector_size
    return {
        "fill": fill.ops_per_sec,
        "readrand": readrand.ops_per_sec,
        "write_amp": device_sectors / max(1, logical_sectors),
        "stall": fill.stall_seconds,
    }


def run_spectrum():
    return {kind: run_env(kind)
            for kind in ("block-device", "zns", "app-specific")}


@pytest.mark.benchmark(group="spectrum")
def test_abstraction_spectrum(benchmark):
    results = benchmark.pedantic(run_spectrum, rounds=1, iterations=1)

    lines = ["FTL abstraction spectrum: one LSM engine, three FTLs",
             f"(fill-seq {CLIENTS} clients x {FILL_OPS} ops, 1 KB values; "
             "write amp = device sectors / unique logical sectors)", "",
             f"{'abstraction':>14s} {'fill kops/s':>12s} "
             f"{'readrand':>9s} {'write amp':>10s} {'stalls':>7s}"]
    for kind in ("block-device", "zns", "app-specific"):
        r = results[kind]
        lines.append(f"{kind:>14s} {format_kops(r['fill']):>12s} "
                     f"{format_kops(r['readrand']):>9s} "
                     f"{r['write_amp']:>9.1f}x {r['stall']:>6.2f}s")
    lines.append("")
    speedup = results["app-specific"]["fill"] / results["block-device"]["fill"]
    lines.append(f"app-specific vs generic block device (fill): "
                 f"{speedup:.1f}x — 'the optimizations [Open-Channel SSDs] "
                 "enable ... is best leveraged in the context of "
                 "application-specific FTLs' (§3.2)")
    report("abstraction_spectrum", lines)

    assert results["app-specific"]["fill"] > results["block-device"]["fill"]
    assert results["zns"]["fill"] > results["block-device"]["fill"]
    # The generic FTL writes strictly more device sectors per logical
    # sector (WAL + padding overheads on every block write).
    assert results["block-device"]["write_amp"] \
        > results["app-specific"]["write_amp"] * 0.99
