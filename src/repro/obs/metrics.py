"""The metrics registry: histograms and a few counters, by name.

One registry per observed stack.  Instruments are created on first use
and memoized, so call sites can say ``registry.histogram("ftl.gc.stall_s")``
without holding references; names are dot-separated with the owning
layer as the leading namespace (``nand.*``, ``ocssd.*``, ``ftl.gc.*``,
``lsm.*``, ...).

A count has one home.  What a layer does is counted in its public
``stats`` object (``ControllerStats``, ``GcStats``, ``DBStats``, ...) and
its live state is read off the layer itself; the registry holds only
what no layer keeps — latency and wait histograms (whose ``count`` is
the operation count), ``{layer}.errors.*`` and the simulator's spawn
count.

This module is dependency-free (it must not import the simulator): the
percentile implementation here is *the* one for the whole repo.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Union

Number = Union[int, float]


def percentile_of(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list.

    *q* in [0, 100]; an empty sample set reports 0.0 so summary tables
    never crash on instruments that were registered but not exercised.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not ordered:
        return 0.0
    rank = max(0, math.ceil(q / 100 * len(ordered)) - 1)
    return ordered[rank]


class Counter:
    """A named monotonically-increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def increment(self, amount: Number = 1) -> None:
        self.value += amount


class Histogram:
    """Collects individual samples and summarizes them (p50/p95/p99).

    Samples are kept raw — simulated runs are bounded and nearest-rank
    percentiles on the true sample set beat bucketing error in every
    table this repo prints.
    """

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: List[float] = []
        self._sorted = True

    def record(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = False

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(values)
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._samples)

    def total(self) -> float:
        return sum(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile; *q* in [0, 100]."""
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return percentile_of(self._samples, q)

    def maximum(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def samples(self) -> Sequence[float]:
        return tuple(self._samples)

    def summary(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total(),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.maximum(),
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    A name is bound to exactly one instrument kind for the registry's
    lifetime; asking for the same name as a different kind is a bug at
    the call site and raises immediately.
    """

    def __init__(self):
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif type(instrument) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        return sorted(self._instruments)
