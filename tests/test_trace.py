"""Tests for the ``repro.trace`` subsystem.

Covers the three pillars end to end: the on-disk format (round trip,
version/corruption errors), the capture sidecar (attach/detach, boundary
filtering, zero perturbation of the simulated timeline), deterministic
replay (bit-identical non-wall metrics on the same spec, cross-FTL
replay, recorded pacing, block-layer traces, cluster traces), and
calibration (synthetic ground-truth recovery within tolerance, held-out
evaluation, builtin profiles, the obs-registry bridge), plus the
``StackSpec.timing`` declarative wiring.
"""

import copy
import json

import pytest

from repro.cluster import ClusterSpec, run_cluster
from repro.errors import ReproError
from repro.nand import CellType, NandTiming, SampledNandTiming, timing_for
from repro.obs import MetricsRegistry, Obs
from repro.sidecar import TRACE_SLOT
from repro.stack import StackSpec, build_stack
from repro.stack.runner import run_spec
from repro.trace import (
    TraceOp,
    TraceRecorder,
    TraceWorkload,
    builtin_profiles,
    evaluate,
    fit_profile,
    load_profile,
    profile_from_registry,
    read_trace,
    synth_profile,
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
        TraceOp(t=0.005, layer="cluster", kind="read", key="17"),
    ]


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        meta = write_trace(path, sample_ops(), meta={"spec": {"x": 1}})
        assert meta["op_count"] == 6
        got_meta, got_ops = read_trace(path)
        assert got_ops == sample_ops()
        assert got_meta["spec"] == {"x": 1}
        assert got_meta["version"] == 1
        assert got_meta["op_count"] == 6

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
    def test_cluster_trace_rejected(self):
        ops = [TraceOp(t=0.0, layer="cluster", kind="write", key="1")]
        with pytest.raises(ReproError, match="cluster"):
            TraceWorkload(ops)

    def test_mixed_layer_trace_rejected(self):
        ops = [TraceOp(t=0.0, layer="host", kind="put", key="k"),
               TraceOp(t=0.0, layer="block", kind="write", lba=0)]
        with pytest.raises(ReproError, match="mixed"):
            TraceWorkload(ops)

    def test_bad_pacing_rejected(self):
        with pytest.raises(ReproError, match="pacing"):
            TraceWorkload([], pacing="warp")


class TestClusterTrace:
    SPEC = {
        "name": "trace-cluster", "num_shards": 2, "seed": 3,
        "template": {
            "geometry": {"num_groups": 2, "pus_per_group": 2,
                         "chunks_per_pu": 16, "pages_per_block": 6},
            "ftl": "oxblock", "host": "none",
            "ftl_config": {"wal_chunk_count": 4,
                           "ckpt_chunks_per_slot": 2}},
        "workload": {"num_keys": 24, "read_ops": 48},
    }

    def test_capture_then_replay_merges_identically(self, tmp_path):
        trace = str(tmp_path / "cluster.jsonl")
        captured = run_cluster(ClusterSpec.from_dict(
            copy.deepcopy(self.SPEC)), trace_out=trace)
        data = copy.deepcopy(self.SPEC)
        data["workload"]["trace"] = trace
        replayed = run_cluster(ClusterSpec.from_dict(data))
        assert replayed.merged == captured.merged
        __, ops = read_trace(trace)
        assert all(op.layer == "cluster" for op in ops)
        assert sum(op.kind == "write" for op in ops) == 24
        assert sum(op.kind == "read" for op in ops) == 48


class TestCalibration:
    def test_recovers_synthetic_ground_truth(self):
        truth = timing_for(CellType.TLC)
        fit = fit_profile(synth_profile(truth, seed=1), jitter=True)
        held_out = synth_profile(truth, seed=2)
        errors = evaluate(fit.timing, held_out)
        assert errors["max"] < 0.05
        assert isinstance(fit.timing, SampledNandTiming)
        assert 0.05 < fit.timing.read_sigma < 0.12   # drawn at 0.08
        assert fit.timing.channel_bandwidth == pytest.approx(
            truth.channel_bandwidth, rel=0.05)

    def test_fit_without_jitter_is_deterministic_model(self):
        fit = fit_profile(synth_profile(timing_for(CellType.MLC), seed=4))
        assert type(fit.timing) is NandTiming
        assert fit.sigmas == {"read": 0.0, "program": 0.0, "erase": 0.0}

    def test_builtin_profiles_ship_and_fit(self):
        names = builtin_profiles()
        assert {"slc-reference", "mlc-reference", "tlc-reference",
                "qlc-reference"} <= set(names)
        for name in names:
            profile = load_profile(name)
            cell = CellType[str(profile["cell"]).upper()]
            fit = fit_profile(profile, jitter=True)
            assert fit.timing.read_latency == pytest.approx(
                timing_for(cell).read_latency, rel=0.05)

    def test_unknown_profile_lists_builtins(self):
        with pytest.raises(ReproError, match="tlc-reference"):
            load_profile("no-such-profile")

    def test_malformed_profiles_rejected(self):
        with pytest.raises(ReproError, match="format"):
            fit_profile({"format": "nope", "version": 1, "ops": {}})
        with pytest.raises(ReproError, match="version"):
            fit_profile({"format": "repro.timing_profile", "version": 9,
                         "ops": {"read": {"samples_s": [1e-5]}}})
        with pytest.raises(ReproError, match="samples"):
            fit_profile({"format": "repro.timing_profile", "version": 1,
                         "ops": {"read": {"samples_s": []}}})
        with pytest.raises(ReproError, match="op kind"):
            fit_profile({"format": "repro.timing_profile", "version": 1,
                         "ops": {"seek": {"samples_s": [1e-3]}}})

    def test_profile_from_obs_registry(self):
        spec = host_spec()
        stack = build_stack(spec)
        hub = Obs().attach(stack.device)
        run = stack.dbbench()
        run.fill_sequential(clients=1, ops_per_client=30)
        run.quiesce()   # flush the memtable so media programs happen
        hub.detach()
        profile = profile_from_registry(hub.metrics)
        fit = fit_profile(profile)
        truth = timing_for(CellType.TLC)
        assert fit.timing.program_latency == pytest.approx(
            truth.program_latency, rel=0.05)

    def test_empty_registry_rejected(self):
        with pytest.raises(ReproError, match="no nand"):
            profile_from_registry(MetricsRegistry())


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
        path = tmp_path / "reads-only.json"
        path.write_text(json.dumps({
            "format": "repro.timing_profile", "version": 1,
            "ops": {"read": {"samples_s": [20e-6, 30e-6]}}}))
        geometry = dict(HOST_SPEC["geometry"], cell="slc")
        timing = device_timing(host_spec(geometry=geometry,
                                         timing={"profile": str(path)}))
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
