"""Fit :class:`~repro.nand.NandTiming` to a measured latency profile.

A *timing profile* is a small JSON document of per-op latency samples —
the bridge between a real device (microbenchmark output, blktrace
digests, vendor sheets) and the simulator's timing model::

    {"format": "repro.timing_profile", "version": 1,
     "name": "tlc-reference",
     "ops": {"read":    {"samples_s": [7.4e-05, ...]},
             "program": {"samples_s": [9.1e-04, ...]},
             "erase":   {"samples_s": [3.5e-03, ...]}},
     "transfer": {"bytes": 65536, "seconds_s": [1.6e-04, ...]}}

:func:`fit_profile` estimates each base latency as the sample mean and
(optionally) a log-normal jitter sigma as the stdev of the log-samples,
returning a :class:`CalibrationResult` whose ``timing`` plugs straight
into ``StackSpec.timing`` / :class:`~repro.ocssd.OpenChannelSSD`.
:func:`evaluate` scores a timing against a (held-out) profile so
``tests/test_trace.py::TestCalibration`` can prove recovery within
tolerance.  Profiles come from
three places: shipped data files (:func:`builtin_profiles`), an obs
histogram dump (:func:`profile_from_registry`), or synthetic ground
truth (:func:`synth_profile`) for self-tests.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.nand.timing import NandTiming, SampledNandTiming

PROFILE_FORMAT = "repro.timing_profile"
PROFILE_VERSION = 1

#: The media op kinds a profile may carry (matching obs' nand.* names).
OP_KINDS = ("read", "program", "erase")

#: Shipped profile data files live next to this module.
PROFILE_DIR = os.path.join(os.path.dirname(__file__), "profiles")


@dataclass
class CalibrationResult:
    """What :func:`fit_profile` recovered from a profile."""

    timing: NandTiming
    #: Fitted mean latency per op kind, seconds.
    latencies: Dict[str, float] = field(default_factory=dict)
    #: Fitted log-normal sigma per op kind (0.0 when jitter was off).
    sigmas: Dict[str, float] = field(default_factory=dict)
    #: Relative spread of each op's samples (stdev / mean) — how much
    #: of the profile a deterministic model cannot express.
    residual_spread: Dict[str, float] = field(default_factory=dict)
    #: Sample counts per op kind.
    sample_counts: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [f"calibrated {type(self.timing).__name__}:"]
        for kind in OP_KINDS:
            if kind not in self.latencies:
                continue
            lines.append(
                f"  {kind:8s} {self.latencies[kind] * 1e6:9.1f} us "
                f"(sigma {self.sigmas.get(kind, 0.0):.3f}, "
                f"spread {self.residual_spread.get(kind, 0.0):.3f}, "
                f"n={self.sample_counts.get(kind, 0)})")
        lines.append(f"  channel  {self.timing.channel_bandwidth / 2**20:.1f}"
                     " MiB/s")
        return "\n".join(lines)


def _check_profile(profile: Dict[str, object]) -> Dict[str, object]:
    if profile.get("format") != PROFILE_FORMAT:
        raise ReproError(
            f"not a timing profile (format={profile.get('format')!r}; "
            f"expected {PROFILE_FORMAT!r})")
    if profile.get("version") != PROFILE_VERSION:
        raise ReproError(
            f"timing profile version {profile.get('version')!r} is not "
            f"supported (this build reads version {PROFILE_VERSION})")
    ops = profile.get("ops")
    if not isinstance(ops, dict) or not ops:
        raise ReproError("timing profile carries no 'ops' samples")
    for kind, entry in ops.items():
        if kind not in OP_KINDS:
            raise ReproError(
                f"timing profile: unknown op kind {kind!r}; "
                f"expected one of {OP_KINDS}")
        samples = entry.get("samples_s")
        if not samples:
            raise ReproError(
                f"timing profile: op {kind!r} has no samples_s")
        if any(s <= 0 for s in samples):
            raise ReproError(
                f"timing profile: op {kind!r} has non-positive samples")
    return profile


def load_profile(name_or_path: str) -> Dict[str, object]:
    """Load a profile by builtin name or by file path."""
    path = name_or_path
    if not os.path.exists(path):
        builtin = os.path.join(PROFILE_DIR, f"{name_or_path}.json")
        if os.path.exists(builtin):
            path = builtin
        else:
            shipped = ", ".join(builtin_profiles()) or "none"
            raise ReproError(
                f"timing profile {name_or_path!r} is neither a file nor a "
                f"builtin profile (shipped: {shipped})")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            profile = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"timing profile {path!r} is not valid JSON: {exc}") \
                from None
    return _check_profile(profile)


def builtin_profiles() -> List[str]:
    """Names of the profile data files shipped with the package."""
    if not os.path.isdir(PROFILE_DIR):
        return []
    return sorted(entry[:-len(".json")]
                  for entry in os.listdir(PROFILE_DIR)
                  if entry.endswith(".json"))


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _log_sigma(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    logs = [math.log(v) for v in values]
    mu = _mean(logs)
    return math.sqrt(sum((x - mu) ** 2 for x in logs) / (len(logs) - 1))


def fit_profile(profile: Dict[str, object], jitter: bool = False,
                seed: int = 0) -> CalibrationResult:
    """Fit a timing model to *profile*.

    Each op's base latency is its sample mean (the estimator whose
    aggregate media time matches the profile's); with *jitter* the
    log-sample stdev becomes that op's log-normal sigma and the result
    is a seeded :class:`SampledNandTiming`.  Missing op kinds fall back
    to the TLC preset values so a partial profile still builds a device.
    Channel bandwidth comes from the optional ``transfer`` section
    (bytes / mean seconds); absent that, the 400 MiB/s default stands.
    """
    _check_profile(profile)
    from repro.nand.timing import timing_for
    from repro.nand.celltype import CellType
    fallback = timing_for(CellType[str(profile.get("cell", "tlc")).upper()])
    latencies: Dict[str, float] = {}
    sigmas: Dict[str, float] = {}
    spread: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    ops = profile["ops"]
    for kind in OP_KINDS:
        entry = ops.get(kind)
        if entry is None:
            continue
        samples = [float(s) for s in entry["samples_s"]]
        mean = _mean(samples)
        latencies[kind] = mean
        sigmas[kind] = _log_sigma(samples) if jitter else 0.0
        variance = sum((s - mean) ** 2 for s in samples) / len(samples)
        spread[kind] = math.sqrt(variance) / mean
        counts[kind] = len(samples)

    bandwidth = fallback.channel_bandwidth
    transfer = profile.get("transfer")
    if transfer:
        seconds = [float(s) for s in transfer.get("seconds_s", [])]
        size = float(transfer.get("bytes", 0))
        if seconds and size > 0:
            bandwidth = size / _mean(seconds)

    base = dict(
        read_latency=latencies.get("read", fallback.read_latency),
        program_latency=latencies.get("program", fallback.program_latency),
        erase_latency=latencies.get("erase", fallback.erase_latency),
        channel_bandwidth=bandwidth)
    if jitter and any(sigmas.values()):
        timing: NandTiming = SampledNandTiming(
            read_sigma=sigmas.get("read", 0.0),
            program_sigma=sigmas.get("program", 0.0),
            erase_sigma=sigmas.get("erase", 0.0),
            seed=seed, **base)
    else:
        timing = NandTiming(**base)
    return CalibrationResult(timing=timing, latencies=latencies,
                             sigmas=sigmas, residual_spread=spread,
                             sample_counts=counts)


def evaluate(timing: NandTiming,
             profile: Dict[str, object]) -> Dict[str, float]:
    """Relative error of *timing*'s base latencies against *profile*'s
    per-op sample means (plus ``"max"``, the worst of them).

    This is the held-out score: fit on one profile, evaluate on another
    drawn from the same device, and the errors bound how well the fit
    generalises.
    """
    _check_profile(profile)
    model = {"read": timing.read_latency, "program": timing.program_latency,
             "erase": timing.erase_latency}
    errors: Dict[str, float] = {}
    for kind, entry in profile["ops"].items():
        target = _mean([float(s) for s in entry["samples_s"]])
        errors[kind] = abs(model[kind] - target) / target
    errors["max"] = max(errors.values())
    return errors


def synth_profile(timing: NandTiming, seed: int = 0,
                  samples_per_op: int = 200,
                  sigma: float = 0.08,
                  transfer_bytes: int = 64 * 1024,
                  name: str = "synthetic") -> Dict[str, object]:
    """A synthetic profile drawn around *timing* (ground truth known).

    Samples are mean-preserving log-normal around each base latency, the
    same family :class:`SampledNandTiming` draws from, so fitting this
    profile must recover *timing* to within sampling error — the
    self-test ``TestCalibration`` runs.
    """
    rng = random.Random(seed)
    mu_shift = -0.5 * sigma * sigma

    def draw(base: float) -> List[float]:
        return [base * rng.lognormvariate(mu_shift, sigma)
                for __ in range(samples_per_op)]

    transfer_base = timing.transfer_time(transfer_bytes)
    return {
        "format": PROFILE_FORMAT, "version": PROFILE_VERSION,
        "name": name,
        "ops": {
            "read": {"samples_s": draw(timing.read_latency)},
            "program": {"samples_s": draw(timing.program_latency)},
            "erase": {"samples_s": draw(timing.erase_latency)},
        },
        "transfer": {"bytes": transfer_bytes,
                     "seconds_s": draw(transfer_base)},
    }


def profile_from_registry(registry, name: str = "obs") -> Dict[str, object]:
    """Build a (mean-only) profile from an obs metrics registry.

    The hub's media instrumentation records ``nand.<kind>.media_s``
    histograms and ``nand.<kind>.page_groups`` counters; total media
    time over total page groups is the mean per-unit latency.  One
    aggregate sample per op kind — enough to calibrate base latencies
    from any obs-enabled run, with no extra capture machinery.
    """
    ops: Dict[str, object] = {}
    for kind in OP_KINDS:
        hist = registry.histogram(f"nand.{kind}.media_s")
        units = registry.counter(f"nand.{kind}.page_groups").value
        if units <= 0:
            continue
        ops[kind] = {"samples_s": [hist.total() / units]}
    if not ops:
        raise ReproError(
            "profile_from_registry: the registry carries no nand.* media "
            "metrics (was the run obs-enabled, and did it touch media?)")
    return {"format": PROFILE_FORMAT, "version": PROFILE_VERSION,
            "name": name, "ops": ops}


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.trace.calibrate <profile> [--jitter] [--holdout P]``"""
    import argparse
    parser = argparse.ArgumentParser(
        prog="repro.trace.calibrate",
        description="Fit NandTiming to a latency profile.")
    parser.add_argument("profile",
                        help="profile path or builtin name "
                             f"(builtin: {', '.join(builtin_profiles())})")
    parser.add_argument("--jitter", action="store_true",
                        help="also fit per-op log-normal sigmas")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--holdout", default=None,
                        help="second profile to evaluate the fit against")
    args = parser.parse_args(argv)
    result = fit_profile(load_profile(args.profile), jitter=args.jitter,
                         seed=args.seed)
    print(result.summary())
    if args.holdout:
        errors = evaluate(result.timing, load_profile(args.holdout))
        print("held-out relative error: "
              + ", ".join(f"{kind}={err:.4f}"
                          for kind, err in sorted(errors.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
