"""The metrics registry: counters, gauges and histograms, by name.

One registry per observed stack.  Instruments are created on first use
and memoized, so call sites can say ``registry.counter("ftl.gc.resets")``
without holding references; names are dot-separated with the owning
layer as the leading namespace (``nand.*``, ``ocssd.*``, ``ftl.gc.*``,
``ftl.wal.*``, ``lsm.compaction.*``, ...).

This module is dependency-free (it must not import the simulator): the
percentile implementation here is *the* one for the whole repo —
:class:`repro.sim.stats.LatencyRecorder` and the performance-contract
characterization both delegate to :class:`Histogram`.
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

    def summary(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A named point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def summary(self) -> dict:
        return {"type": "gauge", "value": self.value}


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

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, dict]:
        """``{name: summary dict}`` for every instrument, sorted by name."""
        return {name: self._instruments[name].summary()
                for name in sorted(self._instruments)}

    def flat(self) -> Dict[str, Number]:
        """Flatten to plain ``{name: number}`` — counters/gauges report
        their value, histograms fan out to ``name.count/mean/p50/...``.
        The shape ``repro.benchhelpers`` persists as result JSON."""
        out: Dict[str, Number] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                summary = instrument.summary()
                for key in ("count", "mean", "p50", "p95", "p99", "max"):
                    out[f"{name}.{key}"] = summary[key]
            else:
                out[name] = instrument.value
        return out

    # -- cross-process merge ------------------------------------------------

    def dump(self) -> Dict[str, dict]:
        """Full raw state, one dict per instrument, sorted by name.

        Unlike :meth:`snapshot`, histograms carry their *samples* (not
        just summaries), so dumps merge losslessly: percentiles of the
        merged registry equal percentiles over the union of samples.
        The shape is picklable/JSON-able — it is how a cluster folds
        each shard's registry in under its ``cluster.shard<i>.`` prefix.
        """
        out: Dict[str, dict] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = {"type": "histogram",
                             "samples": list(instrument.samples())}
            elif isinstance(instrument, Gauge):
                out[name] = {"type": "gauge", "value": instrument.value}
            else:
                out[name] = {"type": "counter", "value": instrument.value}
        return out

    def merge(self, dump: Dict[str, dict], prefix: str = "") -> None:
        """Fold a :meth:`dump` into this registry under ``prefix``.

        Counters add, histograms extend with the dumped samples, gauges
        set (last merge wins — callers that need per-source gauges give
        each source a distinct prefix, as the cluster merge does with
        ``cluster.shard<i>.``).  Merging a name already bound to a
        different instrument kind raises ``TypeError``, same as
        first-use registration would.
        """
        kinds = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        for name in sorted(dump):
            entry = dump[name]
            kind = entry["type"]
            if kind not in kinds:
                raise ValueError(
                    f"metric {name!r}: unknown instrument kind {kind!r}")
            instrument = self._get(prefix + name, kinds[kind])
            if kind == "histogram":
                instrument.extend(entry["samples"])
            elif kind == "gauge":
                instrument.set(entry["value"])
            else:
                instrument.increment(entry["value"])

    def namespace(self, prefix: str) -> Dict[str, dict]:
        """Summaries of every instrument under ``prefix.`` (or equal)."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {name: instrument.summary()
                for name, instrument in sorted(self._instruments.items())
                if name == prefix or name.startswith(dotted)}
