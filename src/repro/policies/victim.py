"""GC victim-selection policies (the paper's §2.3 "application-specific
FTL" claim, made concrete).

The collector asks its policy to order the FULL-and-partly-invalid
chunks of the marked group; it then tries victims in that order.  The
menu follows Lomet & Luo's taxonomy of log-structured space
reclamation:

* **greedy** — most-invalid first (min valid count).  Optimal when
  invalidation is uniform; also the historical — and default —
  behavior of this repo's collector, bit-for-bit.
* **cost_benefit** — the LFS/Lomet–Luo benefit/cost ratio
  ``(1 - u) * age / (1 + u)`` with ``u = valid/capacity`` and *age*
  the logical time since the chunk was last written (see
  :meth:`repro.ox.ftl.metadata.ChunkTable.clock`).  Prefers old, cold
  chunks even when a younger chunk is slightly emptier: cold data
  relocated once stays put, while a hot chunk collected too early is
  immediately dirtied again.
* **age_partitioned** — a hot/cold generational split: the older half
  of the candidates (by last-write stamp) is collected greedily first;
  the young half is touched only when no cold victim remains.  A
  simplification of generational reclamation that never mixes
  generations within one ordering decision.

Policies are pure ordering functions over candidate lists — they never
mutate FTL state — so the same instance can serve any number of
collectors.  Ties always break on the chunk's fixed linear index,
keeping victim order (and therefore replay) deterministic.
"""

from __future__ import annotations

import time
from typing import List


class VictimPolicy:
    """Orders GC victim candidates; subclasses implement :meth:`select`.

    *candidates* is the unordered list of
    :class:`~repro.ox.ftl.metadata.FtlChunkInfo` for one group's FULL
    chunks with at least one invalid sector; *table* is the owning
    :class:`~repro.ox.ftl.metadata.ChunkTable` (capacity and the
    logical clock live there).  The returned list is the order in
    which the collector will try victims.
    """

    name = "?"

    def select(self, candidates: List["FtlChunkInfo"],
               table: "ChunkTable") -> List["FtlChunkInfo"]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class GreedyVictimPolicy(VictimPolicy):
    """Most-invalid first — the default, bit-identical to the legacy
    collector (stable min-valid order with linear-index tie-break)."""

    name = "greedy"

    def select(self, candidates, table):
        return sorted(candidates,
                      key=lambda info: (info.valid_count, info.linear))


class CostBenefitVictimPolicy(VictimPolicy):
    """Benefit/cost ordering: ``(1 - u) * age / (1 + u)``, highest first.

    ``u`` is the chunk's live fraction; ``age`` is the logical clock
    distance since the chunk last absorbed a write.  The ``1 + u``
    denominator (instead of the classical ``2u``) keeps wholly-dead
    chunks (``u = 0``) finite while preserving the ordering intent;
    they score highest at any age, as they should.
    """

    name = "cost_benefit"

    def select(self, candidates, table):
        capacity = table.capacity
        now = table.clock()

        def score(info):
            u = info.valid_count / capacity
            age = now - info.write_seq
            return (1.0 - u) * age / (1.0 + u)

        return sorted(candidates,
                      key=lambda info: (-score(info), info.linear))


class AgePartitionedVictimPolicy(VictimPolicy):
    """Hot/cold generational selection.

    Candidates split into generations by last-write stamp: the oldest
    ``cold_fraction`` of them form the cold generation and are offered
    first (greedily within the generation); the young remainder only
    when the cold side is exhausted.  This keeps the collector off
    freshly-written chunks whose invalid share is still growing —
    collecting them now relocates data that is about to die anyway.
    """

    name = "age_partitioned"

    def __init__(self, cold_fraction: float = 0.5):
        if not 0.0 < cold_fraction <= 1.0:
            raise ValueError(
                f"cold_fraction must be in (0, 1], got {cold_fraction}")
        self.cold_fraction = cold_fraction

    def select(self, candidates, table):
        if len(candidates) <= 1:
            return list(candidates)
        by_age = sorted(candidates,
                        key=lambda info: (info.write_seq, info.linear))
        split = max(1, int(len(by_age) * self.cold_fraction))
        greedy_key = lambda info: (info.valid_count, info.linear)
        return (sorted(by_age[:split], key=greedy_key)
                + sorted(by_age[split:], key=greedy_key))


class TimedVictimPolicy(VictimPolicy):
    """Decorator recording the wall-clock cost of each selection.

    Victim selection is pure computation — it never advances the
    simulated clock — so its cost is a *wall* fact, like ops/sec.  The
    samples therefore live here, on the bench side, and never enter the
    obs registry (whose contents must stay bit-identical across
    machines and worker counts).  ``bench_policy_ablation`` wraps each
    stack's live policy with this to report victim-selection p99.
    """

    def __init__(self, inner: VictimPolicy):
        self.inner = inner
        self.name = inner.name
        self.samples: List[float] = []

    def select(self, candidates, table):
        started = time.perf_counter()
        ordered = self.inner.select(candidates, table)
        self.samples.append(time.perf_counter() - started)
        return ordered

    def percentile(self, q: float) -> float:
        from repro.obs.metrics import percentile_of
        return percentile_of(sorted(self.samples), q)
