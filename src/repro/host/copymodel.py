"""The Figure 7 experiment: host threads writing to OX-ELEOS through the
controller's copy path.

Each host thread streams LSS buffers at the controller.  Per buffer, the
controller performs two copies — network stack -> FTL, FTL -> Open-Channel
SSD — before the append, which acks once its FUA runs land.  The measured
quantity is controller CPU utilization as a function of the number of
host threads: it grows roughly linearly and saturates once the copy cores
are fully busy, which with the default
:class:`~repro.host.platform.DfcSpec` and whole LSS buffers happens at 2
threads, as in the paper.  A buffer much smaller than that waits on its
append for a large share of its copies' time, so it takes more threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.host.platform import DfcPlatform
from repro.ox.eleos import OXEleos


@dataclass
class CopyExperimentResult:
    host_threads: int
    buffers_written: int
    elapsed: float
    cpu_utilization: float
    throughput_bytes_per_sec: float


class HostWriteExperiment:
    """Drive OX-ELEOS from N host threads and measure controller CPU."""

    def __init__(self, ftl: OXEleos, platform: DfcPlatform,
                 buffer_bytes: Optional[int] = None,
                 page_bytes: int = 32 * 1024):
        self.ftl = ftl
        self.platform = platform
        self.sim = ftl.sim
        self.buffer_bytes = buffer_bytes or ftl.config.buffer_bytes
        self.page_bytes = page_bytes

    def _make_buffer(self, thread: int, index: int) -> List[Tuple[int, bytes]]:
        pages_per_buffer = max(1, self.buffer_bytes // self.page_bytes)
        base_pid = (thread << 40) | (index * pages_per_buffer)
        payload = bytes([thread % 251]) * self.page_bytes
        return [(base_pid + i, payload) for i in range(pages_per_buffer)]

    def _writer(self, thread: int, buffers: int):
        for index in range(buffers):
            batch = self._make_buffer(thread, index)
            num_bytes = sum(len(payload) for __, payload in batch)
            # Copy 1: network stack -> FTL staging.
            yield from self.platform.copy_proc(num_bytes)
            # Copy 2: FTL staging -> Open-Channel SSD submission.
            yield from self.platform.copy_proc(num_bytes)
            yield from self.ftl.append_buffer_proc(batch)

    def run(self, host_threads: int,
            buffers_per_thread: int = 8) -> CopyExperimentResult:
        """Run the workload to completion; returns the measurements."""
        sim = self.sim
        started = sim.now
        self.platform.cpu.reset()
        writers = [sim.spawn(self._writer(thread, buffers_per_thread),
                             name=f"host-writer-{thread}")
                   for thread in range(host_threads)]
        sim.run_until(sim.all_of(writers))
        elapsed = sim.now - started
        total = host_threads * buffers_per_thread
        total_bytes = total * self.buffer_bytes
        return CopyExperimentResult(
            host_threads=host_threads,
            buffers_written=total,
            elapsed=elapsed,
            cpu_utilization=self.platform.utilization(),
            throughput_bytes_per_sec=(total_bytes / elapsed
                                      if elapsed else 0.0))
