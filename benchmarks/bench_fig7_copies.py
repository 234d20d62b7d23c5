"""Figure 7: impact of data copies on storage-controller utilization.

The paper's experiment: host threads write LSS buffers into OX-ELEOS on
the DFC; every buffer is copied twice inside OX (network stack -> FTL,
FTL -> Open-Channel SSD).  "The storage controller is saturated with 2
host threads, because it cannot keep up with the data copies."

Expected shape: CPU utilization grows roughly linearly with the number of
host threads and saturates at ~2 threads; throughput flattens at the
copy-bandwidth ceiling.
"""

import pytest

from repro.benchhelpers import report
from repro.host import DfcPlatform, HostWriteExperiment
from repro.stack import StackSpec, build_stack
from repro.units import MIB

HOST_THREADS = (1, 2, 3, 4, 6, 8)
BUFFERS_PER_THREAD = 4


def run_point(host_threads: int):
    stack = build_stack(StackSpec(
        geometry={"num_groups": 8, "pus_per_group": 4,
                  "chunks_per_pu": 64, "pages_per_block": 24},
        ftl="eleos", host="none",
        ftl_config={"buffer_bytes": 8 * MIB}))
    platform = DfcPlatform(stack.sim)
    experiment = HostWriteExperiment(stack.ftl, platform,
                                     buffer_bytes=8 * MIB,
                                     page_bytes=64 * 1024)
    return experiment.run(host_threads,
                          buffers_per_thread=BUFFERS_PER_THREAD)


def run_sweep():
    return {threads: run_point(threads) for threads in HOST_THREADS}


@pytest.mark.benchmark(group="fig7")
def test_fig7_controller_utilization(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    lines = ["Figure 7: DFC controller CPU utilization vs host threads",
             "(8 MB LSS buffers, 2 copies per buffer inside OX)", "",
             f"{'threads':>8s} {'cpu util':>9s} {'throughput':>12s}"]
    for threads in HOST_THREADS:
        result = results[threads]
        lines.append(
            f"{threads:>8d} {result.cpu_utilization:>8.0%} "
            f"{result.throughput_bytes_per_sec / MIB:>9.0f} MiB/s")
    util = {t: results[t].cpu_utilization for t in HOST_THREADS}
    lines.append("")
    lines.append(f"saturation: 1->2 threads gains "
                 f"{util[2] - util[1]:+.0%}, 2->8 threads gains "
                 f"{util[8] - util[2]:+.0%} (paper: saturated at 2)")
    report("fig7_copies", lines)

    # Shape: near-linear growth to 2 threads, saturation beyond.
    assert util[2] > 1.6 * util[1]
    assert util[2] > 0.75
    assert util[8] - util[2] < 0.5 * (util[2] - util[1])
    assert util[8] <= 1.0
