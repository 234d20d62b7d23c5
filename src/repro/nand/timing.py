"""NAND operation latencies per cell type, plus bus-transfer timing.

Values are representative figures from vendor datasheets and the LightNVM
literature; what matters for the reproduction is the *ordering* (SLC fast,
QLC slow; reads ≪ programs ≪ erases) and the read/program asymmetry that —
combined with the controller's write-back cache — produces the write ≫ read
throughput gap of Figure 5.

A measured *timing profile* (:func:`load_profile`) carries per-op
latency samples from a real device; its means, and the log-sample
sigmas a :class:`SampledNandTiming` takes, replace a preset's values
field by field (``StackSpec.timing.profile``).
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ReproError
from repro.nand.celltype import CellType
from repro.units import MIB, US


@dataclass(frozen=True)
class NandTiming:
    """Latencies of a flash chip and its channel.

    ``channel_bandwidth`` is the per-channel bus throughput in bytes/second
    used to compute data transfer time between controller and chip.
    """

    read_latency: float
    program_latency: float
    erase_latency: float
    channel_bandwidth: float = 400 * MIB

    def transfer_time(self, num_bytes: int) -> float:
        """Bus time to move *num_bytes* over the channel."""
        if num_bytes < 0:
            raise ValueError(f"negative transfer size: {num_bytes}")
        return num_bytes / self.channel_bandwidth

    def read_time(self, pages: int = 1) -> float:
        """Media time to sense *pages* pages.

        Multi-plane reads at the same page address proceed in parallel, so
        callers pass the number of *sequential* page senses.
        """
        return self.read_latency * pages

    def program_time(self, page_groups: int = 1) -> float:
        """Media time to program *page_groups* multi-plane page groups."""
        return self.program_latency * page_groups

    def erase_time(self) -> float:
        """Media time for a (multi-plane) block erase."""
        return self.erase_latency


@dataclass(frozen=True)
class SampledNandTiming(NandTiming):
    """A :class:`NandTiming` whose media latencies carry per-op jitter.

    Real chips do not serve every page in exactly t_R: measured profiles
    (:func:`load_profile`) show a right-skewed spread.
    Each ``*_sigma`` is the sigma of a mean-preserving multiplicative
    log-normal — the base latency stays the *mean*, so throughput-level
    results match the deterministic model while individual ops vary.

    Sampling is seeded and consumed in simulator event order, so a given
    (seed, workload) pair replays the identical latency sequence — the
    determinism contract every other layer already honours.  A sigma of
    zero skips the RNG entirely and is bit-identical to the base class.
    """

    read_sigma: float = 0.0
    program_sigma: float = 0.0
    erase_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("read_sigma", "program_sigma", "erase_sigma"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"negative {name}: {value}")
        # Frozen dataclass: the RNG is runtime state, not a field (it
        # stays out of ==/hash and of asdict()).
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def _jitter(self, sigma: float) -> float:
        if sigma <= 0.0:
            return 1.0
        # lognormvariate(-sigma^2/2, sigma) has mean exactly 1.
        return self._rng.lognormvariate(-0.5 * sigma * sigma, sigma)

    def read_time(self, pages: int = 1) -> float:
        return super().read_time(pages) * self._jitter(self.read_sigma)

    def program_time(self, page_groups: int = 1) -> float:
        return (super().program_time(page_groups)
                * self._jitter(self.program_sigma))

    def erase_time(self) -> float:
        return super().erase_time() * self._jitter(self.erase_sigma)


_PRESETS = {
    CellType.SLC: NandTiming(read_latency=25 * US, program_latency=200 * US,
                             erase_latency=1500 * US),
    CellType.MLC: NandTiming(read_latency=50 * US, program_latency=600 * US,
                             erase_latency=3000 * US),
    CellType.TLC: NandTiming(read_latency=75 * US, program_latency=900 * US,
                             erase_latency=3500 * US),
    CellType.QLC: NandTiming(read_latency=120 * US, program_latency=2000 * US,
                             erase_latency=4000 * US),
}


def timing_for(cell: CellType) -> NandTiming:
    """The preset timing profile for *cell*."""
    return _PRESETS[cell]


PROFILE_FORMAT = "repro.timing_profile"
PROFILE_VERSION = 1
#: The reference profiles, one per preset (log-normal draws around it).
PROFILE_DIR = os.path.join(os.path.dirname(__file__), "profiles")


def _positive(value) -> bool:
    """A JSON number (not a bool) that is a positive finite float."""
    return type(value) in (int, float) and 0 < value <= sys.float_info.max


def builtin_profiles() -> List[str]:
    """Names of the shipped profiles (``tlc-reference``, ...)."""
    return sorted(entry[:-len(".json")] for entry in os.listdir(PROFILE_DIR)
                  if entry.endswith(".json"))


def load_profile(name_or_path: str) -> Tuple[Dict[str, float],
                                             Dict[str, float]]:
    """Read a timing profile: a builtin name or a JSON file of the form::

        {"format": "repro.timing_profile", "version": 1,
         "ops": {"read": {"samples_s": [7.4e-05, ...]}, "program": ...,
                 "erase": ...},
         "transfer": {"bytes": 65536, "seconds_s": [1.6e-04, ...]}}

    Returns ``(latencies, sigmas)`` keyed by :class:`SampledNandTiming`
    field names, holding only what the profile measured: each op's
    sample mean and log-sample stdev, and ``bytes / mean(seconds_s)`` as
    ``channel_bandwidth``.  Anything else is a :class:`ReproError`
    naming the file and the field.
    """
    path = name_or_path
    if not os.path.exists(path):
        path = os.path.join(PROFILE_DIR, f"{name_or_path}.json")
        if not os.path.exists(path):
            raise ReproError(
                f"{name_or_path!r} is neither a file nor a builtin timing "
                f"profile (shipped: {', '.join(builtin_profiles())})")
    try:
        with open(path, encoding="utf-8") as handle:
            profile = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"{path}: not a readable JSON file: {exc}") from None

    def check(ok, what):
        if not ok:
            raise ReproError(f"{path}: {what}")

    def mean(values, label):
        """The mean of a list of positive seconds or byte counts."""
        check(isinstance(values, list) and values
              and all(_positive(v) for v in values),
              f"{label} must be a non-empty list of positive finite numbers")
        values = [float(v) for v in values]
        result = sum(values) / len(values)
        check(0 < result < math.inf, f"{label}: mean {result} is not finite")
        return result, values

    check(isinstance(profile, dict), "a timing profile is a JSON object")
    check(profile.get("format") == PROFILE_FORMAT,
          f"format is {profile.get('format')!r}, not {PROFILE_FORMAT!r}")
    check(profile.get("version") == PROFILE_VERSION,
          f"version {profile.get('version')!r} is not supported "
          f"(this build reads version {PROFILE_VERSION})")
    ops = profile.get("ops")
    check(isinstance(ops, dict) and ops, "ops must be a non-empty object")
    latencies: Dict[str, float] = {}
    sigmas: Dict[str, float] = {}
    for kind, entry in ops.items():
        check(kind in ("read", "program", "erase"),
              f"ops.{kind}: unknown op kind (read, program or erase)")
        check(isinstance(entry, dict), f"ops.{kind} must be an object")
        latency, samples = mean(entry.get("samples_s"),
                                f"ops.{kind}.samples_s")
        latencies[f"{kind}_latency"] = latency
        logs = [math.log(s) for s in samples]
        mu = sum(logs) / len(logs)
        sigmas[f"{kind}_sigma"] = (
            math.sqrt(sum((x - mu) ** 2 for x in logs) / (len(logs) - 1))
            if len(logs) > 1 else 0.0)
    transfer = profile.get("transfer")
    if transfer is not None:
        check(isinstance(transfer, dict), "transfer must be an object")
        size = transfer.get("bytes")
        check(_positive(size), "transfer.bytes must be a positive number")
        seconds, __ = mean(transfer.get("seconds_s"), "transfer.seconds_s")
        bandwidth = float(size) / seconds
        check(0 < bandwidth < math.inf,
              f"transfer: bandwidth {bandwidth} B/s is out of range")
        latencies["channel_bandwidth"] = bandwidth
    return latencies, sigmas
