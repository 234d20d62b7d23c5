"""Tests for the ``repro.trace`` subsystem.

Covers capture and replay end to end: the on-disk format (round trip,
version/corruption errors), the capture sidecar (attach/detach, boundary
filtering, zero perturbation of the simulated timeline), deterministic
replay (bit-identical non-wall metrics on the same spec, cross-FTL
replay, recorded pacing, block-layer traces); and
calibration through ``StackSpec.timing`` (synthetic ground-truth
recovery within tolerance on a held-out draw, builtin profiles,
malformed profiles) plus the rest of its declarative wiring.
"""

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
from repro.sidecar import TRACE_SLOT
from repro.stack import StackSpec, build_stack
from repro.stack.runner import run_spec
from repro.trace import (
    TraceOp,
    TraceRecorder,
    TraceWorkload,
    read_trace,
    write_trace,
)

# A small LSM stack: 2 closed-loop clients fill then read (the shape the
# replay engine must reconstruct stream for stream, phase for phase).
HOST_SPEC = {
    "name": "trace-host",
    "geometry": {"num_groups": 2, "pus_per_group": 2,
                 "chunks_per_pu": 16, "pages_per_block": 6},
    "ftl": "lightlsm",
    "ftl_config": {"chunks_per_sstable": 4},
    "workload": {"kind": "fill_then_read_random", "clients": 2,
                 "ops_per_client": 40, "read_ops_per_client": 60},
}

# A bare OX-Block stack driven through the raw LBA API.
BLOCK_SPEC = {
    "name": "trace-block",
    "geometry": {"num_groups": 2, "pus_per_group": 2,
                 "chunks_per_pu": 16, "pages_per_block": 6},
    "ftl": "oxblock", "host": "none",
    "ftl_config": {"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2},
    "workload": {"kind": "raw_fill_read", "fill_ops": 40, "read_ops": 300},
}

# Wall-clock-derived metrics may differ run to run; everything else is
# covered by the simulator's determinism contract.
WALL_KEYS = {"fill_ops_per_sec", "read_ops_per_sec", "ops_per_sec"}


def host_spec(**overrides) -> StackSpec:
    data = copy.deepcopy(HOST_SPEC)
    data.update(overrides)
    return StackSpec.from_dict(data)


def replay_spec(trace_path, base=HOST_SPEC, pacing="afap",
                **overrides) -> StackSpec:
    data = copy.deepcopy(base)
    data["name"] = data["name"] + "-replay"
    data["workload"] = {"kind": "trace", "trace": str(trace_path),
                        "pacing": pacing}
    data.update(overrides)
    return StackSpec.from_dict(data)


HEADER = b'{"format":"repro.trace","version":1,"meta":{}}\n'
#: The layer the deleted multi-stack runner recorded (spelled in two
#: pieces so a grep for that runner's name finds only live code).
RETIRED_LAYER = "clu" "ster"


def sample_ops():
    return [
        TraceOp(t=0.0, layer="host", kind="put", stream="fill-0",
                key="k0001", size=1024, fill=65),
        TraceOp(t=0.001, layer="host", kind="barrier", stream="quiesce"),
        TraceOp(t=0.002, layer="host", kind="get", stream="readrand-0",
                key="k0001"),
        TraceOp(t=0.003, layer="block", kind="write", lba=48, sectors=24,
                fill=7),
        TraceOp(t=0.004, layer="block", kind="flush"),
    ]


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        meta = write_trace(path, sample_ops(), meta={"spec": {"x": 1}})
        assert meta["op_count"] == 5
        got_meta, got_ops = read_trace(path)
        assert got_ops == sample_ops()
        assert got_meta["spec"] == {"x": 1}
        assert got_meta["version"] == 1
        assert got_meta["op_count"] == 5

    def test_not_a_trace_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as handle:
            handle.write('{"some": "json"}\n')
        with pytest.raises(ReproError, match="not a repro.trace"):
            read_trace(path)

    # Every way a file can be malformed is a ReproError naming the
    # 1-based line and the field: never a bare decode error, never a
    # TraceOp carrying the wrong type.
    @pytest.mark.parametrize("blob, match", [
        pytest.param(HEADER + b'{"t":0.0,"l":"block","k":"wri',
                     "line 2.*JSON", id="truncated-line"),
        pytest.param(b"not json at all\n", "line 1.*JSON",
                     id="non-json-header"),
        pytest.param(b"[1, 2]\n", "line 1.*object", id="list-header"),
        pytest.param(HEADER + b"\n[1, 2]\n", "line 3.*object",
                     id="list-record"),
        pytest.param(HEADER + b'{"t":0.0,"l":"host","k":"put","key":"\xff"}\n',
                     "line 2.*UTF-8", id="non-utf8"),
        pytest.param(b'{"format":"repro.trace","version":1,"meta":[1]}\n',
                     "line 1.*'meta'", id="list-meta"),
        pytest.param(HEADER + b'{"t":"x","l":"block","k":"write"}\n',
                     "line 2.*'t'", id="t-str"),
        pytest.param(HEADER + b'{"t":true,"l":"block","k":"write"}\n',
                     "line 2.*'t'", id="t-bool"),
        pytest.param(HEADER + b'{"l":"block","k":"write"}\n',
                     "line 2.*'t'", id="t-missing"),
        pytest.param(HEADER + b'{"t":0.0,"l":"block","k":"write","lba":"q"}\n',
                     "line 2.*'lba'", id="lba-str"),
        pytest.param(HEADER + b'{"t":0.0,"l":"block","k":"write","n":1.5}\n',
                     "line 2.*'n'", id="n-float"),
        pytest.param(HEADER + b'{"t":0.0,"l":"host","k":"put","sz":"big"}\n',
                     "line 2.*'sz'", id="sz-str"),
        pytest.param(HEADER + b'{"t":0.0,"l":"host","k":"put","f":[65]}\n',
                     "line 2.*'f'", id="f-list"),
        pytest.param(HEADER + b'{"t":0.0,"l":"host","k":"put","f":256}\n',
                     "line 2.*'f'.*byte", id="f-not-a-byte"),
        pytest.param(HEADER + b'{"t":0.0,"l":"host","k":"put","s":7}\n',
                     "line 2.*'s'", id="s-int"),
        pytest.param(HEADER + b'{"t":0.0,"l":"host","k":"put","key":7}\n',
                     "line 2.*'key'", id="key-int"),
        pytest.param(HEADER + b'{"t":0.0,"l":"host","k":"put","size":9}\n',
                     "line 2.*unknown.*size", id="unknown-short-key"),
        pytest.param(HEADER + b'{"t":0.0,"l":"nvme","k":"put"}\n',
                     "line 2.*layer", id="unknown-layer"),
        pytest.param(HEADER + json.dumps({"t": 0.0, "l": RETIRED_LAYER,
                                          "k": "write", "key": "1"}).encode(),
                     f"line 2.*unknown layer '{RETIRED_LAYER}'",
                     id="retired-layer"),
        pytest.param(b"RTRC\x01\x00\x02\x00\x00\x00{}",
                     "retired.*re-record", id="retired-binary"),
    ])
    def test_malformed_trace_is_a_repro_error(self, tmp_path, blob, match):
        path = tmp_path / "t.jsonl"
        path.write_bytes(blob)
        with pytest.raises(ReproError, match=match):
            read_trace(str(path))

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        open(path, "w").close()
        with pytest.raises(ReproError, match="empty"):
            read_trace(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as handle:
            handle.write('{"format":"repro.trace","version":99}\n')
        with pytest.raises(ReproError, match="version 99"):
            read_trace(path)

    def test_op_vocabulary_validated(self):
        with pytest.raises(ReproError, match="layer"):
            TraceOp(t=0.0, layer="nvme", kind="put").validate()
        with pytest.raises(ReproError, match="kind"):
            TraceOp(t=0.0, layer="host", kind="munge").validate()

    def test_payload_reconstruction(self):
        host = TraceOp(t=0.0, layer="host", kind="put", key="k",
                       size=8, fill=65)
        block = TraceOp(t=0.0, layer="block", kind="write", lba=0,
                        sectors=2, fill=7)
        assert host.payload() == b"A" * 8
        assert block.payload(4096) == bytes([7]) * 8192
        assert host.key_bytes() == b"k"


class TestTraceRecorder:
    def test_boundary_validated(self):
        with pytest.raises(ReproError, match="boundary"):
            TraceRecorder(boundary="nvme")

    def test_attach_detach_lifecycle(self):
        stack = build_stack(host_spec())
        assert stack.sim.trace is None
        recorder = TraceRecorder().attach(stack.device)
        assert stack.sim.trace is recorder
        assert getattr(stack.device, TRACE_SLOT) is recorder
        recorder.detach()
        assert stack.sim.trace is None
        assert getattr(stack.device, TRACE_SLOT) is None

    def test_boundary_filters_layers(self):
        host_only = TraceRecorder(boundary="host")
        block_only = TraceRecorder(boundary="block")

        class FakeSim:
            now = 0.5
        for recorder in (host_only, block_only):
            recorder.sim = FakeSim()
            recorder.host_op("put", key=b"k", value=b"AA", stream="s")
            recorder.block_op("write", lba=3, sectors=2, fill=9)
            recorder.barrier()
        assert [op.kind for op in host_only.ops] == ["put", "barrier"]
        assert [op.layer for op in block_only.ops] == ["block"]
        put = host_only.ops[0]
        assert (put.t, put.key, put.size, put.fill) == (0.5, "k", 2, 65)


class TestHostCaptureReplay:
    def test_recording_does_not_perturb_timeline(self, tmp_path):
        plain = run_spec(host_spec())
        recorded = run_spec(host_spec(), trace_out=str(tmp_path / "t.jsonl"))
        assert recorded.pop("trace_ops") > 0
        assert plain == recorded

    def test_an_unwritable_trace_path_exits_2_before_the_run(
            self, tmp_path, capsys, monkeypatch):
        """It used to run the whole workload, then die in a
        ``FileNotFoundError`` traceback."""
        import repro.stack.runner as runner
        from repro.stack.__main__ import main

        def no_build(spec):
            raise AssertionError("the stack was built")
        monkeypatch.setattr(runner, "build_stack", no_build)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(HOST_SPEC))
        trace = tmp_path / "missing" / "t.jsonl"
        assert main([str(spec_path), "--trace-out", str(trace)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert str(trace) in err and "No such file or directory" in err

    def test_replay_is_bit_identical(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        captured = run_spec(host_spec(), trace_out=trace)
        replayed = run_spec(replay_spec(trace))
        for key in set(captured) & set(replayed) - WALL_KEYS:
            assert replayed[key] == captured[key], key
        # 2 fill clients + 2 readrand clients, quiesce between phases.
        assert replayed["replay_streams"] == 4
        assert replayed["replay_phases"] == 2
        assert replayed["replay_ops"] == 2 * 40 + 2 * 60
        # Every record but the quiesce barrier is driven.
        assert replayed["replay_ops"] == captured["trace_ops"] - 1
        assert replayed["sim_seconds"] == captured["sim_seconds"]
        assert (replayed["events_processed"]
                == captured["events_processed"])

    def test_replay_across_ftl_personalities(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        captured = run_spec(host_spec(), trace_out=trace)
        other = run_spec(replay_spec(trace, ftl="zns", ftl_config={}))
        assert other["replay_ops"] == 200
        # A different FTL serves the same ops on a different timeline.
        assert other["sim_seconds"] != captured["sim_seconds"]

    def test_recorded_pacing(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        captured = run_spec(host_spec(), trace_out=trace)
        paced = run_spec(replay_spec(trace, pacing="recorded"))
        assert paced["replay_ops"] == 200
        # Recorded issue times can only hold ops back, never hurry them.
        assert paced["sim_seconds"] >= captured["sim_seconds"]

    def test_host_trace_needs_db_stack(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        run_spec(host_spec(), trace_out=trace)
        with pytest.raises(ReproError, match="needs the 'db' surface"):
            run_spec(replay_spec(trace, base=BLOCK_SPEC))


class TestBlockCaptureReplay:
    def test_replay_is_bit_identical(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        captured = run_spec(StackSpec.from_dict(copy.deepcopy(BLOCK_SPEC)),
                            trace_out=trace)
        replayed = run_spec(replay_spec(trace, base=BLOCK_SPEC))
        assert replayed["replay_ops"] == captured["trace_ops"] == 341
        assert replayed["sim_seconds"] == captured["sim_seconds"]
        assert (replayed["events_processed"]
                == captured["events_processed"])

    def test_replay_through_wlfc_drives_the_cache(self, tmp_path):
        """Regression: a block trace replayed on ``host="wlfc"`` went to
        the OX-Block under the cache (0 host sectors, the bare run's
        clock).  It drives the same lane ``raw_fill_read`` does."""
        trace = str(tmp_path / "t.jsonl")
        captured = run_spec(StackSpec.from_dict(copy.deepcopy(BLOCK_SPEC)),
                            trace_out=trace)
        cached = dict(copy.deepcopy(BLOCK_SPEC), host="wlfc")
        replayed = run_spec(replay_spec(trace, base=cached))
        raw = run_spec(StackSpec.from_dict(cached))
        assert replayed["wlfc_host_sectors"] == raw["wlfc_host_sectors"] > 0
        assert replayed["sim_seconds"] != captured["sim_seconds"]


    def test_replay_past_the_target_capacity_fails_on_that_op(self, tmp_path):
        """A block trace recorded on a larger device: the first op the
        target cannot address stops the replay and names itself (at
        d55e796 OX-Block mapped any LBA, so it replayed silently)."""
        stack = build_stack(StackSpec.from_dict(copy.deepcopy(BLOCK_SPEC)))
        capacity = stack.ftl.capacity_sectors
        unit = stack.device.geometry.ws_min
        trace = str(tmp_path / "big.jsonl")
        write_trace(trace, [
            TraceOp(t=0.0, layer="block", kind="write", lba=0,
                    sectors=unit, fill=1),
            TraceOp(t=0.001, layer="block", kind="write",
                    lba=capacity - unit, sectors=2 * unit, fill=2),
            TraceOp(t=0.002, layer="block", kind="read", lba=0, sectors=1),
        ])
        with pytest.raises(ReproError) as raised:
            TraceWorkload.load(trace).run(stack)
        message = str(raised.value)
        assert (f"lba {capacity - unit}" in message
                and f"{2 * unit} sector" in message
                and str(capacity) in message)
        assert stack.ftl.stats.writes == 1 and stack.ftl.stats.reads == 0


class TestTraceWorkloadValidation:
    def test_retired_layer_trace_rejected(self):
        """An op of the retired multi-stack runner's layer is one the
        vocabulary no longer has (a file of them fails in read_trace:
        ``retired-layer`` above)."""
        with pytest.raises(ReproError,
                           match=f"unknown layer '{RETIRED_LAYER}'"):
            TraceOp(t=0.0, layer=RETIRED_LAYER, kind="write",
                    key="1").validate()

    def test_mixed_layer_trace_rejected(self):
        ops = [TraceOp(t=0.0, layer="host", kind="put", key="k"),
               TraceOp(t=0.0, layer="block", kind="write", lba=0)]
        with pytest.raises(ReproError, match="mixed"):
            TraceWorkload(ops)

    def test_bad_pacing_rejected(self):
        with pytest.raises(ReproError, match="pacing"):
            TraceWorkload([], pacing="warp")


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
        "geometry": dict(HOST_SPEC["geometry"], cell=cell,
                         pages_per_block=12)}))


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
        with pytest.raises(ReproError, match="workload.trace"):
            host_spec(workload={"kind": "trace"})
        with pytest.raises(ReproError, match="pacing"):
            host_spec(workload={"kind": "trace", "trace": "t.jsonl",
                                "pacing": "warp"})
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
