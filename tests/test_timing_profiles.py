"""Device timing through ``StackSpec.timing``: a measured profile
(``repro.nand.load_profile``) reaches the chips, a synthetic one is
recovered within tolerance on a held-out draw, the builtin profiles
ship and fit, a malformed one is a ``ReproError`` naming the file and
the field, and the explicit overrides and jitter wire as declared."""

import copy
import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.nand import (
    CellType, NandTiming, SampledNandTiming, builtin_profiles, load_profile,
    timing_for)
from repro.stack import StackSpec, build_stack

GEOMETRY = {"num_groups": 2, "pus_per_group": 2,
            "chunks_per_pu": 16, "pages_per_block": 6}

# A small LSM stack: its timing is read off the built device.
HOST_SPEC = {"geometry": GEOMETRY, "ftl": "lightlsm",
             "ftl_config": {"chunks_per_sstable": 4}}


def host_spec(**overrides) -> StackSpec:
    data = copy.deepcopy(HOST_SPEC)
    data.update(overrides)
    return StackSpec.from_dict(data)


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


def mostly(valid):
    """*valid* three times in four, any JSON value otherwise."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else JSON_VALUES)


#: Profiles that get past the first checks often enough to reach the
#: sums: positive numbers near zero, near float max and past it.
FUZZ_NUMBERS = st.lists(mostly(
    st.floats(1e-7, 1.0) | st.floats(1e300, 1.7e308)
    | st.integers(1, 10**400)), min_size=1, max_size=4)
FUZZ_PROFILES = mostly(st.fixed_dictionaries(
    {"format": mostly(st.just("repro.timing_profile")),
     "version": mostly(st.just(1)),
     "ops": mostly(st.dictionaries(
         st.sampled_from(["read", "program", "erase"]) | st.text(max_size=3),
         mostly(st.fixed_dictionaries({"samples_s": mostly(FUZZ_NUMBERS)})),
         min_size=1, max_size=3))},
    optional={"transfer": mostly(st.fixed_dictionaries(
        {"bytes": mostly(st.integers(1, 1 << 20)),
         "seconds_s": mostly(FUZZ_NUMBERS)}))}))


def calibrated(cell="tlc", **timing):
    """The chip timing of a raw *cell* device built with *timing*."""
    return device_timing(StackSpec.from_dict({
        "ftl": "none", "timing": timing,
        "geometry": dict(GEOMETRY, cell=cell, pages_per_block=12)}))


def write_profile(tmp_path, profile, name="profile") -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(profile))
    return str(path)


@pytest.fixture
def synth_profile(tmp_path):
    """Write a profile drawn around a known timing; return its path.

    200 samples per op, mean-preserving log-normal (sigma 0.08) around
    each base latency — the family :class:`SampledNandTiming` draws
    from — so reading the profile back must recover the timing within
    sampling error.
    """
    def write(timing, seed):
        rng = random.Random(seed)

        def draw(base):
            return [base * rng.lognormvariate(-0.5 * 0.08 * 0.08, 0.08)
                    for __ in range(200)]

        return write_profile(tmp_path, {
            "format": "repro.timing_profile", "version": 1,
            "ops": {"read": {"samples_s": draw(timing.read_latency)},
                    "program": {"samples_s": draw(timing.program_latency)},
                    "erase": {"samples_s": draw(timing.erase_latency)}},
            "transfer": {"bytes": 65536, "seconds_s": draw(
                timing.transfer_time(65536))}}, name=f"synthetic-{seed}")
    return write


def reads_only(samples):
    return {"format": "repro.timing_profile", "version": 1,
            "ops": {"read": {"samples_s": samples}}}


class TestCalibration:
    """A measured profile reaches the device through ``StackSpec.timing``
    alone: these read the chip timing ``build_stack`` wires."""

    def test_recovers_synthetic_ground_truth(self, synth_profile):
        truth = timing_for(CellType.TLC)
        fit = calibrated(profile=synth_profile(truth, seed=1),
                         fit_jitter=True)
        held_out, __ = load_profile(synth_profile(truth, seed=2))
        assert set(held_out) == {"read_latency", "program_latency",
                                 "erase_latency", "channel_bandwidth"}
        for name, mean in held_out.items():
            assert getattr(fit, name) == pytest.approx(mean, rel=0.05), name
        assert isinstance(fit, SampledNandTiming)
        assert 0.05 < fit.read_sigma < 0.12   # drawn at 0.08
        assert fit.channel_bandwidth == pytest.approx(
            truth.channel_bandwidth, rel=0.05)

    def test_fit_without_jitter_is_deterministic_model(self, synth_profile):
        mlc = timing_for(CellType.MLC)
        fit = calibrated("mlc", profile=synth_profile(mlc, seed=4))
        assert type(fit) is NandTiming
        assert fit.read_latency == pytest.approx(mlc.read_latency, rel=0.05)

    def test_builtin_profiles_ship_and_fit(self):
        """Each shipped profile, on its own cell, builds a device within
        5 % of that cell's preset, with the sigma it was drawn at."""
        assert builtin_profiles() == [
            "mlc-reference", "qlc-reference", "slc-reference",
            "tlc-reference"]
        for cell in ("slc", "mlc", "tlc", "qlc"):
            fit = calibrated(cell, profile=f"{cell}-reference",
                             fit_jitter=True)
            preset = timing_for(CellType[cell.upper()])
            for name in ("read_latency", "program_latency", "erase_latency",
                         "channel_bandwidth"):
                assert getattr(fit, name) == pytest.approx(
                    getattr(preset, name), rel=0.05), (cell, name)
            assert 0.05 < fit.program_sigma < 0.12, cell

    def test_unknown_profile_lists_builtins(self):
        with pytest.raises(ReproError, match="tlc-reference"):
            load_profile("no-such-profile")
        with pytest.raises(ReproError,
                           match="^timing.profile: 'no-such-profile'"):
            build_stack(host_spec(timing={"profile": "no-such-profile"}))

    def test_malformed_profiles_rejected(self, tmp_path):
        for profile, names in [
                ({"format": "nope", "version": 1, "ops": {}}, "format"),
                (dict(reads_only([1e-5]), version=9), "version"),
                (reads_only([]), "samples"),
                ({**reads_only([1e-3]), "ops": {"seek": {"samples_s": [1e-3]}}},
                 "op kind")]:
            with pytest.raises(ReproError, match=names):
                load_profile(write_profile(tmp_path, profile))

    @pytest.mark.parametrize("profile, field", [
        ({**reads_only([1e-5]),
          "transfer": {"bytes": 65536, "seconds_s": [0.0]}},
         "transfer.seconds_s"),
        ({**reads_only([1e-5]),
          "transfer": {"bytes": 65536, "seconds_s": [-1e-4]}},
         "transfer.seconds_s"),
        ({**reads_only([1e-5]),
          "transfer": {"bytes": "64k", "seconds_s": [1e-4]}},
         "transfer.bytes"),
        (reads_only([True]), "ops.read.samples_s"),
        (reads_only(7e-5), "ops.read.samples_s"),
        (reads_only(["x"]), "ops.read.samples_s"),
        ({**reads_only([1e-5]), "ops": {"read": [7e-5]}}, "ops.read"),
        ([reads_only([1e-5])], "a timing profile is a JSON object"),
    ])
    def test_a_bad_profile_names_the_file_and_the_field(
            self, tmp_path, profile, field):
        """Each of these used to crash (ZeroDivisionError, TypeError,
        AttributeError) or build a wrong device (a negative bandwidth, a
        ``true`` sample read as 1 s)."""
        path = write_profile(tmp_path, profile)
        with pytest.raises(ReproError) as err:
            load_profile(path)
        assert str(err.value).startswith(f"{path}: ")
        assert field in str(err.value)
        with pytest.raises(ReproError, match=f"^timing.profile: {path}: "):
            build_stack(host_spec(timing={"profile": path}))

    @settings(max_examples=300, deadline=None)
    @given(profile=FUZZ_PROFILES)
    def test_any_json_profile_loads_sane_or_is_a_repro_error(
            self, tmp_path_factory, profile):
        path = tmp_path_factory.getbasetemp() / "fuzz-profile.json"
        path.write_text(json.dumps(profile))
        try:
            latencies, sigmas = load_profile(str(path))
        except ReproError:
            return
        assert all(math.isfinite(v) and v > 0 for v in latencies.values())
        assert all(math.isfinite(v) and v >= 0 for v in sigmas.values())
        base = dataclasses.asdict(timing_for(CellType.TLC))
        SampledNandTiming(**{**base, **latencies}, **sigmas)


def device_timing(spec):
    """The timing model the built device's chips actually carry."""
    device = build_stack(spec).device
    return next(iter(device.chips.values())).timing


class TestTimingSpec:
    def test_explicit_latency_overrides(self):
        timing = device_timing(host_spec(
            timing={"read_latency_us": 30.0,
                    "channel_mib_per_sec": 800.0}))
        assert timing.read_latency == pytest.approx(30e-6)
        assert timing.program_latency == pytest.approx(
            timing_for(CellType.TLC).program_latency)
        assert timing.channel_bandwidth == pytest.approx(800 * 2**20)

    def test_profile_resolution(self):
        timing = device_timing(host_spec(
            timing={"profile": "mlc-reference"}))
        assert timing.read_latency == pytest.approx(
            timing_for(CellType.MLC).read_latency, rel=0.05)

    def test_partial_profile_keeps_the_device_cell_for_the_rest(
            self, tmp_path):
        """A reads-only profile on an SLC device sets the read latency;
        program and erase stay SLC's, not the profile's TLC default."""
        path = write_profile(tmp_path, reads_only([20e-6, 30e-6]))
        timing = calibrated("slc", profile=path)
        slc = timing_for(CellType.SLC)
        assert timing.read_latency == pytest.approx(25e-6)
        assert timing.program_latency == slc.program_latency
        assert timing.erase_latency == slc.erase_latency

    def test_jitter_sigma_builds_sampled_timing(self):
        timing = device_timing(host_spec(
            timing={"jitter_sigma": 0.1, "seed": 5}))
        assert isinstance(timing, SampledNandTiming)
        assert timing.read_sigma == 0.1
        assert timing.seed == 5

    def test_spec_validation(self):
        with pytest.raises(ReproError, match="timing.jitter_sigma"):
            host_spec(timing={"jitter_sigma": -0.5})

    def test_timing_round_trips_through_dict(self):
        spec = host_spec(timing={"profile": "tlc-reference",
                                 "fit_jitter": True})
        again = StackSpec.from_dict(spec.to_dict())
        assert again.timing.profile == "tlc-reference"
        assert again.timing.fit_jitter is True
        bare = host_spec()
        assert "timing" not in bare.to_dict()
