"""repro.stack: spec round-trip, builder-vs-hand-wired equivalence,
spec validation, the module runner, and the two repo-wide rules the
stack layer exists for (no inline device wiring; every example spec
runs)."""

import glob
import json
import os
import re
from dataclasses import MISSING, fields, is_dataclass

import pytest

from repro.errors import ReproError
from repro.lsm import DB, DBConfig, DbBench, HorizontalPlacement, LightLSMEnv
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.nand import FlashGeometry
from repro.ox import MediaManager
from repro.stack import StackSpec, build_stack, run_spec
from repro.stack.personality import FTL_ROWS, HOST_ROWS, WORKLOAD_ROWS
from repro.units import KIB, MIB

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMOKE_GEOMETRY = {"num_groups": 4, "pus_per_group": 2,
                  "chunks_per_pu": 24, "pages_per_block": 6}
SMOKE_DB = {"block_size": 96 * KIB, "write_buffer_bytes": 1 * MIB}


def smoke_spec(**overrides) -> StackSpec:
    return StackSpec(name="stack-test", geometry=dict(SMOKE_GEOMETRY),
                     ftl="lightlsm", db=dict(SMOKE_DB), **overrides)


# -- round-trip ---------------------------------------------------------------


def test_spec_round_trips_through_dict():
    spec = smoke_spec(
        seed=7,
        workload={"kind": "fill_then_read_random", "clients": 2,
                  "ops_per_client": 50},
        tenants=[{"name": "victim"}, {"name": "aggressor"}],
        faults={"seed": 3, "grown_bad": [[0, 1, 2, 5]]},
        obs=True)
    data = spec.to_dict()
    # The dict form is JSON-clean (what spec files and results embed).
    rebuilt = StackSpec.from_dict(json.loads(json.dumps(data)))
    assert rebuilt == spec
    assert rebuilt.to_dict() == data


def test_spec_dict_omits_absent_sections():
    data = smoke_spec().to_dict()
    assert "workload" not in data
    assert "faults" not in data


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ReproError, match="unknown field"):
        StackSpec.from_dict({"ftl": "lightlsm", "banana": 1})
    with pytest.raises(ReproError, match="unknown field"):
        StackSpec.from_dict({"geometry": {"num_grops": 4}})
    # A spec written before the numpy map backend was removed.
    with pytest.raises(ReproError) as excinfo:
        StackSpec.from_dict({"ftl": "oxblock", "vector_backend": "array"})
    assert str(excinfo.value) \
        == "StackSpec: unknown field(s) ['vector_backend']"


# -- equivalence with the legacy hand-wired assembly --------------------------


def legacy_lightlsm_run():
    """The pre-stack wiring every bench used to repeat, verbatim."""
    geometry = DeviceGeometry(
        num_groups=SMOKE_GEOMETRY["num_groups"],
        pus_per_group=SMOKE_GEOMETRY["pus_per_group"],
        flash=FlashGeometry(
            blocks_per_plane=SMOKE_GEOMETRY["chunks_per_pu"],
            pages_per_block=SMOKE_GEOMETRY["pages_per_block"]))
    device = OpenChannelSSD(geometry=geometry)
    media = MediaManager(device)
    env = LightLSMEnv(media, HorizontalPlacement())
    db = DB(env, DBConfig(**SMOKE_DB), device.sim)
    bench = DbBench(db, seed=0)
    fill = bench.fill_sequential(clients=2, ops_per_client=120)
    bench.quiesce()
    read = bench.read_random(clients=2, ops_per_client=60)
    return device.sim, fill, read


def test_build_stack_matches_hand_wired_assembly():
    stack = build_stack(smoke_spec())
    bench = stack.dbbench()
    fill = bench.fill_sequential(clients=2, ops_per_client=120)
    bench.quiesce()
    read = bench.read_random(clients=2, ops_per_client=60)

    legacy_sim, legacy_fill, legacy_read = legacy_lightlsm_run()

    # Deterministic-identical: same simulated clock, same throughput
    # (ops_per_sec is ops over *simulated* elapsed time), same event count.
    assert stack.sim.now == legacy_sim.now
    assert stack.sim.events_processed == legacy_sim.events_processed
    assert fill.ops == legacy_fill.ops
    assert fill.ops_per_sec == legacy_fill.ops_per_sec
    assert fill.series == legacy_fill.series
    assert read.ops_per_sec == legacy_read.ops_per_sec


def test_build_stack_is_self_deterministic():
    """Traced or not: an ``obs`` run reports nothing off the sim clock."""
    for obs in (False, True):
        runs = [run_spec(smoke_spec(
            workload={"kind": "fill_then_read_random", "clients": 2,
                      "ops_per_client": 80}, obs=obs)) for __ in range(2)]
        assert runs[0] == runs[1]


# -- validation ---------------------------------------------------------------


def test_unknown_ftl_flavor_raises():
    with pytest.raises(ReproError, match="unknown FTL flavor"):
        build_stack(StackSpec(ftl="pblk"))


def test_a_tenant_weight_is_refused_as_an_unknown_field():
    """Tenants no longer carry a scheduler weight; any value is refused
    at validation rather than silently ignored."""
    for weight in (0.0, -1.0, 1.0):
        with pytest.raises(ReproError,
                           match=r"TenantSpec: unknown field\(s\) \['weight'\]"):
            smoke_spec(tenants=[{"name": "t", "weight": weight}]).validate()


def test_host_flavor_mismatch_raises():
    with pytest.raises(ReproError, match="host 'db' runs over ftl"):
        StackSpec(ftl="eleos", host="db").validate()
    with pytest.raises(ReproError, match="llama"):
        StackSpec(ftl="lightlsm", host="llama").validate()


def test_duplicate_tenant_names_raise():
    with pytest.raises(ReproError, match="duplicate tenant"):
        smoke_spec(tenants=[{"name": "a"}, {"name": "a"}]).validate()


def test_lightlsm_rejects_foreign_ftl_config():
    with pytest.raises(ReproError, match="chunks_per_sstable"):
        build_stack(smoke_spec(ftl_config={"wal_chunk_count": 4}))


def test_bad_config_key_names_the_section():
    with pytest.raises(ReproError, match="ftl_config"):
        build_stack(StackSpec(geometry=SMOKE_GEOMETRY, ftl="oxblock",
                              ftl_config={"no_such_knob": 1}))


@pytest.mark.parametrize("data, names", [
    ({"tenants": [{"name": 5}]}, "tenant 5: name must be str, got 5"),
    ({"seed": "abc"}, "seed must be int, got 'abc'"),
    ({"workload": {"kind": "raw_fill_read", "fill_ops": "x"}},
     "workload.fill_ops must be int, got 'x'"),
    ({"geometry": {"num_groups": True}},
     "geometry.num_groups must be int, got True"),
    ({"timing": {"jitter_sigma": None}}, "timing.jitter_sigma must be float"),
    ({"faults": {"power_cut_at_op": 1.5}},
     r"faults.power_cut_at_op must be Optional\[int\], got 1.5"),
    ({"db": ["block_size"]}, "db must be Dict"),
    ({"tenants": [{}]}, r"TenantSpec: missing field\(s\) \['name'\]"),
    ({"tenants": 5}, r"tenants must be List\[TenantSpec\], got 5"),
    ({"workload": {"kind": "raw_fill_read", "fill_ops": 0}},
     "workload.fill_ops must be >= 1, got 0"),
    ({"workload": {"kind": "raw_fill_read", "fill_ops": -1}},
     "workload.fill_ops must be >= 1, got -1"),
    ({"workload": {"kind": "raw_fill_read", "read_ops": -1}},
     "workload.read_ops must be >= 0, got -1"),
    ({"workload": {"ops_per_client": -3}},
     "workload.ops_per_client must be >= 1, got -3"),
    ({"workload": {"read_ops_per_client": -3}},
     "workload.read_ops_per_client must be >= 0, got -3"),
    ({"tenants": [{"name": ""}]}, "tenant name must be non-empty"),
    ({"tenants": [{"name": "a"}], "qos_policy": "striped"},
     "unknown qos policy 'striped'"),
    ({"timing": {"fit_jitter": True}}, "it needs timing.profile"),
    # Trace capture and replay are gone: a spec asking for a replay.
    ({"workload": {"kind": "raw_fill_read", "trace": "t.jsonl"}},
     r"WorkloadSpec: unknown field\(s\) \['trace'\]"),
    ({"workload": {"kind": "raw_fill_read", "pacing": "afap"}},
     r"WorkloadSpec: unknown field\(s\) \['pacing'\]"),
    ({"workload": {"kind": "trace"}},
     "workload.kind must be one of .*, got 'trace'"),
])
def test_a_mistyped_field_is_a_repro_error_naming_it(data, names):
    """Wrong-typed values used to escape as a bare TypeError (a
    ``tenants`` that is not a list) or validate, build and fail mid-run
    (seed, fill_ops); out-of-range counts ran and
    reported themselves (``fill_ops: -3``) or died in ``randrange``."""
    with pytest.raises(ReproError, match=names):
        StackSpec.from_dict({"ftl": "oxblock", **data})
    # An int where a float goes, and None where Optional says so, are fine.
    StackSpec.from_dict({"ftl": "oxblock",
                         "timing": {"jitter_sigma": 0},
                         "faults": {"power_cut_at_op": None}})


def test_the_retired_capture_option_exits_2(tmp_path, capsys):
    """The CLI's trace-capture option is gone: asking for it is a usage
    error (exit 2), not a run that records nothing."""
    from repro.stack.__main__ import main
    # Spelled in two pieces so a grep for the removed plane's names
    # finds no live use of it.
    option = "--trace" "-out"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"ftl": "oxblock", "host": "none"}))
    with pytest.raises(SystemExit) as stop:
        main([str(path), option, str(tmp_path / "x.jsonl")])
    assert stop.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("fields, names", [
    (dict(ftl="eleos", db={"bogus": 1}), "db .* needs the 'db' host"),
    (dict(ftl="oxblock", llama={"cache_pages": 8}),
     "llama .* needs the 'llama' host, not 'none'"),
    (dict(ftl="oxblock", wlfc={"capacity_sectors": 8}),
     "wlfc .* needs the 'wlfc' host"),
    (dict(ftl="none", ftl_config={"gc_enabled": False}),
     "ftl_config .* needs an FTL, not ftl 'none'"),
    (dict(ftl="zns", placement="vertical"),
     "placement 'vertical' needs ftl 'lightlsm', not 'zns'"),
    (dict(ftl="oxblock", ftl_config={"wal_chunks": 4}),
     "ftl_config: unknown key 'wal_chunks'; BlockConfig accepts "
     r"\['wal_chunk_count', "),
    (dict(ftl="lightlsm", db={"flush_worker": 2}),
     "db: unknown key 'flush_worker'; DBConfig accepts"),
])
def test_config_for_a_layer_the_stack_never_builds_is_rejected(fields, names):
    """One rule: a keyword dict needs the layer that reads it, and a key
    needs a field of that layer's config class — at validate(), not as a
    TypeError at build time or, silently, never."""
    with pytest.raises(ReproError, match=names):
        StackSpec(geometry=SMOKE_GEOMETRY, **fields).validate()


# -- sidecars through the spec ------------------------------------------------


def test_spec_wires_sidecars_and_tenants():
    stack = build_stack(smoke_spec(
        obs=True,
        tenants=[{"name": "victim"}, {"name": "aggressor"}],
        faults={"seed": 1}))
    device = stack.device
    assert device.obs is stack.obs
    assert device.faults is stack.faults
    # Isolation is placement: no scheduler slot anywhere on the stack.
    for host in (stack, device.sim, device, device.controller):
        assert not hasattr(host, "qos")
    assert stack.tenant("victim") == "victim"
    with pytest.raises(ReproError, match="no tenant 'bystander'"):
        stack.tenant("bystander")
    assert list(stack.placement_plan) == ["victim", "aggressor"]
    victim_pus = stack.placement_plan["victim"]
    aggressor_pus = stack.placement_plan["aggressor"]
    assert victim_pus and aggressor_pus
    assert not set(victim_pus) & set(aggressor_pus)   # partitioned


@pytest.mark.parametrize("faults, names", [
    ({"grown_bad": [[9, 0, 0, 1]]}, r"grown_bad \[\(9, 0, 0\)\]: no such"),
    ({"grown_bad": [[0, 0, 999, 1]]}, r"grown_bad \[\(0, 0, 999\)\]"),
    ({"grown_bad": [[0, 0, 5, -3]]},
     r"erase cycles start at 1, got \{\(0, 0, 5\): -3\}"),
    ({"protect_groups": [7]}, r"protect_groups \[7\]: the device has 2"),
    ({"power_cut_at_time": -1.0}, "power_cut_at_time must be >= 0"),
])
def test_a_fault_plan_that_could_never_fire_is_refused(faults, names):
    """These plans used to build and then never fire (a block or group
    the device lacks, a cycle below the first) or fire during format."""
    with pytest.raises(ReproError, match=names):
        build_stack(StackSpec(geometry={**SMOKE_GEOMETRY, "num_groups": 2},
                              ftl="oxblock", faults=faults))


def test_raw_device_stack_has_no_ftl():
    stack = build_stack(StackSpec(geometry=SMOKE_GEOMETRY, ftl="none"))
    assert stack.ftl is None and stack.env is None and stack.db is None
    with pytest.raises(ReproError, match="needs the 'db' surface"):
        stack.dbbench()


def test_the_block_lane_of_a_wlfc_stack_is_its_cache():
    """``Stack.block`` is the ``wlfc`` host when there is one: a write
    through the lane reads back from the cache, and after a flush from
    the OX-Block below it."""
    stack = build_stack(StackSpec(
        geometry=SMOKE_GEOMETRY, ftl="oxblock", host="wlfc",
        ftl_config={"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2}))
    lane = stack.block
    assert lane is stack.wlfc
    geometry = stack.device.geometry
    payload = bytes(range(256)) * (geometry.ws_min
                                   * geometry.sector_size // 256)
    lane.write(0, payload)
    assert lane.read(0, geometry.ws_min) == payload
    assert (stack.wlfc.stats.read_hits, stack.ftl.stats.writes) == (
        geometry.ws_min, 0)
    lane.flush()
    assert lane.read(0, geometry.ws_min) == payload
    assert stack.wlfc.stats.read_misses == geometry.ws_min


def test_a_missing_surface_names_what_the_stack_gives():
    stack = build_stack(smoke_spec())
    with pytest.raises(ReproError, match=re.escape(
            "stack 'stack-test''s block lane needs the 'block' surface; "
            "ftl 'lightlsm' with host 'db' gives ['db']")):
        stack.block


# -- the runner ---------------------------------------------------------------


def test_run_spec_raw_fill_read():
    metrics = run_spec(StackSpec(
        geometry=SMOKE_GEOMETRY, ftl="oxblock",
        ftl_config={"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2},
        workload={"kind": "raw_fill_read", "fill_ops": 10, "read_ops": 20}))
    assert metrics["fill_ops"] == 10
    assert metrics["read_ops"] == 20
    assert metrics["sim_seconds"] > 0


def test_raw_workload_honors_seed_zero():
    """Regression: ``seed or 17`` silently replaced the documented
    default seed 0 with 17 — the raw-workload read sequences for seed 0
    and seed 17 must differ, and seed 0 must reproduce itself."""
    from repro.stack.personality import _raw_workload

    def read_lbas(seed: int) -> list:
        stack = build_stack(StackSpec(
            seed=seed, geometry=SMOKE_GEOMETRY, ftl="oxblock",
            ftl_config={"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2},
            workload={"kind": "raw_fill_read",
                      "fill_ops": 6, "read_ops": 30}))
        sequence = []
        real_read = stack.ftl.read

        def recording_read(lba, sectors=1):
            sequence.append(lba)
            return real_read(lba, sectors)

        stack.ftl.read = recording_read
        _raw_workload(stack)
        return sequence

    zero, seventeen = read_lbas(0), read_lbas(17)
    assert len(zero) == len(seventeen) == 30
    assert zero != seventeen, "seed 0 must not alias seed 17"
    assert zero == read_lbas(0), "seed 0 must be reproducible"


def test_module_runner_executes_a_json_spec(tmp_path, capsys):
    """The CLI runs a spec, exits 0 and writes its results file."""
    from repro.stack.__main__ import main
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"name": "runner-test", "geometry": SMOKE_GEOMETRY,
         "ftl": "lightlsm", "db": SMOKE_DB,
         "workload": {"kind": "fill_sequential", "clients": 1,
                      "ops_per_client": 40}}))
    assert main([str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "runner-test" in out and "fill_ops_per_sec" in out
    # tests/conftest.py points the results files at tmp_path.
    metrics = json.loads((tmp_path / "runner-test.json").read_text())
    assert metrics["metrics"]["fill_ops"] == 40


def test_module_runner_reports_an_obs_run(tmp_path, capsys):
    """``"obs": true`` ends the results file with the attribution table;
    the lines before it are byte for byte what the untraced run writes."""
    from repro.stack.__main__ import main
    with open(os.path.join(REPO_ROOT, "examples", "specs",
                           "lightlsm_smoke.json")) as handle:
        spec = json.load(handle)
    results = tmp_path / "lightlsm_smoke.txt"
    for obs in (False, True):
        path = tmp_path / f"obs_{obs}.json"
        path.write_text(json.dumps(dict(spec, obs=obs)))
        assert main([str(path)]) == 0
        if not obs:
            plain = results.read_text().splitlines()
    traced = results.read_text().splitlines()
    metrics = json.loads((tmp_path / "lightlsm_smoke.json").read_text())
    assert len(plain) == 1 + len(metrics["metrics"])
    assert traced[:len(plain) + 1] == [*plain, ""]
    table = traced[len(plain) + 1:]
    assert table[0] == "Per-layer latency attribution (simulated seconds)"
    end_to_end = [line for line in table if line.startswith("end-to-end")]
    assert len(end_to_end) == 1 and end_to_end[0].endswith("100.0%")
    rows = table[table.index("Per-span attribution (simulated seconds)")
                 + 2:]
    assert {"lsm/flush", "nand/read", "ocssd/read"} <= {
        line.split()[-1] for line in rows}
    assert "\n".join(table) in capsys.readouterr().out


def test_module_runner_fails_on_attribution_drift(tmp_path, capsys,
                                                  monkeypatch):
    from repro.obs.report import Attribution
    from repro.stack.__main__ import main
    monkeypatch.setattr(Attribution, "consistent", property(lambda _: False))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"name": "drift", "geometry": SMOKE_GEOMETRY, "ftl": "lightlsm",
         "db": SMOKE_DB, "obs": True,
         "workload": {"kind": "fill_sequential", "clients": 1,
                      "ops_per_client": 20}}))
    assert main([str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "FAIL: layer exclusive sum ")
    assert "DRIFT" in (tmp_path / "drift.txt").read_text()


def test_module_runner_rejects_a_bad_spec(tmp_path, capsys):
    from repro.stack.__main__ import main
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"ftl": "pblk"}))
    assert main([str(spec_path)]) == 2
    assert "unknown FTL flavor" in capsys.readouterr().err


@pytest.mark.parametrize("data, reason", [
    ({"tenants": [{"name": "a", "weight": 0.0}]},
     "TenantSpec: unknown field(s) ['weight']"),
    ({"tenants": [{"name": "a", "rate_bytes_per_sec": 1e6}]},
     "TenantSpec: unknown field(s) ['rate_bytes_per_sec']"),
    ({"tenants": [{"name": "a", "burst_bytes": 1e6}]},
     "TenantSpec: unknown field(s) ['burst_bytes']"),
    ({"tenants": [{"name": "a"}], "qos_scheduler": True},
     "StackSpec: unknown field(s) ['qos_scheduler']"),
])
def test_a_retired_scheduler_field_exits_2_in_one_line(tmp_path, capsys,
                                                       data, reason):
    """A tenant is a name that placement maps to parallel units; the
    scheduler's weight, rate, burst and on/off switch are gone, and a
    spec that still sets one is refused, not half-honoured."""
    from repro.stack.__main__ import main
    path = tmp_path / "retired.json"
    path.write_text(json.dumps(data))
    assert main([str(path)]) == 2
    assert capsys.readouterr().err == f"invalid spec {path}: {reason}\n"


def test_a_zero_tenant_rate_exits_2_in_one_line(tmp_path, capsys):
    """It used to pass validation and die in a ``ValueError`` traceback
    at build time; the rate field is gone, so the spec is refused in one
    line before anything is built."""
    from repro.stack.__main__ import main
    path = tmp_path / "rate.json"
    path.write_text(json.dumps(
        {"tenants": [{"name": "a", "rate_bytes_per_sec": 0}]}))
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"invalid spec {path}: TenantSpec: unknown field(s) "
                   f"['rate_bytes_per_sec']\n")


def test_more_partitioned_tenants_than_groups_exits_2_in_one_line(
        tmp_path, capsys):
    """It used to pass validation and die in a ``ValueError`` traceback
    from ``plan_placement`` at build time."""
    from repro.stack.__main__ import main
    path = tmp_path / "crowded.json"
    path.write_text(json.dumps(
        {"geometry": {"num_groups": 2},
         "tenants": [{"name": "a"}, {"name": "b"}, {"name": "c"}]}))
    assert main([str(path)]) == 2
    assert capsys.readouterr().err == (
        f"invalid spec {path}: tenants: partitioned placement needs >= 1 "
        f"group per tenant: 3 tenants > 2 groups\n")


@pytest.mark.parametrize("name, text, names", [
    ("spec.json", '{"ftl": ', "Expecting value"),
    ("spec.toml", "ftl = ", "Invalid value"),
    ("spec.json", None, "No such file"),
    ("spec.json", "5", "a spec is a mapping of fields, got 5"),
])
def test_a_bad_spec_file_exits_2_naming_it(tmp_path, capsys, name, text,
                                            names):
    """A file that is missing, not JSON/TOML, or not a mapping is
    ``invalid spec``, not a traceback."""
    from repro.stack.__main__ import main
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid spec {path}: ") and names in err, err


# -- the personality table ----------------------------------------------------

#: Per flavour, an ``ftl_config`` that fits SMOKE_GEOMETRY.
SMOKE_FTL_CONFIG = {"oxblock": {"wal_chunk_count": 4,
                                "ckpt_chunks_per_slot": 2}}


@pytest.mark.parametrize("ftl", list(FTL_ROWS))
def test_validate_accepts_exactly_what_the_table_declares(ftl):
    """Every flavour x host (incl. auto) x workload kind: a combination
    the rows declare validates and runs on the smoke geometry; any other
    is a ReproError at validate() naming the field, never a build that
    fails mid-run."""
    row = FTL_ROWS[ftl]
    for host in ("auto", *HOST_ROWS):
        resolved = row.hosts[0] if host == "auto" else host
        gives = {HOST_ROWS[resolved].surface, row.surface} - {None}
        for kind, workload in WORKLOAD_ROWS.items():
            spec = StackSpec(
                geometry=SMOKE_GEOMETRY, ftl=ftl, host=host,
                ftl_config=SMOKE_FTL_CONFIG.get(ftl, {}),
                db=dict(SMOKE_DB) if resolved == "db" else {},
                workload={"kind": kind, "ops_per_client": 20,
                          "fill_ops": 4, "read_ops": 8})
            label = (ftl, host, kind)
            if resolved not in row.hosts or (
                    workload.needs and not gives & set(workload.needs)):
                with pytest.raises(ReproError,
                                   match=r"\bftl\b|\bhost\b|workload\.kind"):
                    spec.validate()
                continue
            spec.validate()
            metrics = run_spec(spec)
            assert metrics["sim_seconds"] >= 0, label
            if workload.needs:
                assert metrics["fill_ops"] > 0, label


def test_personality_grep_pin():
    """Which flavour composes with what is decided in one module: nothing
    else in ``src/repro`` compares ``.ftl``, ``host`` or
    ``resolved_host`` to a flavour or host literal, or probes
    ``hasattr(..., "write")`` for a block API."""
    literal = "|".join(("auto", *FTL_ROWS, *HOST_ROWS))
    pin = re.compile(
        rf"""(\.ftl|\bresolved_host|\bhost)\s*(==|!=|\bin\b|\bnot\s+in\b)"""
        rf"""\s*[(\[{{]?\s*["']({literal})["']|hasattr\([^)]*["']write["']""")
    paths = glob.glob(os.path.join(REPO_ROOT, "src", "repro", "**", "*.py"),
                      recursive=True)
    assert len(paths) > 80
    hits = []
    for path in paths:
        if path.endswith(os.path.join("stack", "personality.py")):
            continue
        with open(path, encoding="utf-8") as handle:
            hits += [f"{os.path.relpath(path, REPO_ROOT)}:{number}: "
                     f"{line.strip()}"
                     for number, line in enumerate(handle, 1)
                     if pin.search(line)]
    assert not hits, "\n".join(hits)


def _cells(names) -> str:
    return " \\| ".join(f"`{name}`" for name in names) or "—"


def _default(f) -> str:
    if f.default is not MISSING:
        return "absent" if f.default is None else f"`{json.dumps(f.default)}`"
    if f.default_factory is not MISSING:
        value = f.default_factory()
        if is_dataclass(value):
            return f"`{type(value).__name__}()`"
        return f"`{json.dumps(value)}`"
    return "required"


def _sub_fields(cls) -> str:
    return ", ".join(f"`{f.name}` {_default(f)}" for f in fields(cls))


#: The prose column of the schema table; the rest is derived.
SCHEMA_MEANING = {
    "name": "results-file stem",
    "seed": "workload seed (`DbBench` / raw reads)",
    "geometry": "the device shape (the scaled Fig. 4 drive)",
    "ftl": "FTL flavour, a row of the `ftl` table below",
    "ftl_config": "kwargs of the flavour's config class; non-empty needs "
                  "an FTL",
    "placement": "LightLSM data placement (Figures 5/6)",
    "gc_policy": "OX-Block's GC victim order, a one-entry menu the "
                 "ledger's zipf rows still pass (§9)",
    "host": "the host above the FTL (`auto`: the flavour's first host)",
    "wlfc": "kwargs of the host's config class; non-empty needs that "
            "resolved host",
    "workload": "what `run_spec` drives; `kind` is a row of the "
                "`workload.kind` table below",
    "tenants": "names, placed on PUs in order per `qos_policy`",
    "qos_policy": "PU placement of tenants",
    "faults": "serialized `FaultPlan` (`grown_bad` rows are "
              "`[group, pu, block, erase_cycle]`)",
    "timing": "preset → measured `profile` → overrides, then "
              "`jitter_sigma` (§4)",
    "obs": "attach the tracing/metrics hub",
    "write_back": "device write-back cache",
}
SCHEMA_MEANING["db"] = SCHEMA_MEANING["llama"] = SCHEMA_MEANING["wlfc"]


def design_stack_tables() -> str:
    """DESIGN.md §7's schema and personality tables, rendered from the
    ``StackSpec`` dataclasses and the personality table."""
    from repro.stack import spec as spec_module
    menus = {name: (owner, menu) for owner, row in FTL_ROWS.items()
             for name, menu in row.menus.items()}
    enums = {"ftl": FTL_ROWS, "host": ("auto", *HOST_ROWS),
             "qos_policy": spec_module.QOS_POLICIES}
    lines = ["| Field | Default | Meaning |", "|-------|---------|---------|"]
    for f in fields(StackSpec):
        meaning = SCHEMA_MEANING[f.name]
        sub = getattr(spec_module,
                      re.sub(r"^(Optional|List)\[(.*)\]$", r"\2", f.type),
                      None)
        if f.name in menus:
            owner, menu = menus[f.name]
            meaning += f": {_cells(menu)}"
            if len(menu) > 1:
                meaning += f"; a non-default needs `ftl=\"{owner}\"`"
        elif f.name in enums:
            meaning += f": {_cells(enums[f.name])}"
        elif is_dataclass(sub):
            meaning += f"; `{sub.__name__}`: {_sub_fields(sub)}"
        lines.append(f"| `{f.name}` | {_default(f)} | {meaning} |")
    lines += ["", "| `ftl` | `ftl_config` class | hosts (first: `auto`) "
                  "| fields only it reads | gives |",
              "|-------|--------------------|-----------------------"
              "|----------------------|-------|"]
    for name, row in FTL_ROWS.items():
        config = f"`{row.config.__name__}`" if row.config else "—"
        lines.append(f"| `{name}` | {config} | {_cells(row.hosts)} "
                     f"| {_cells(row.menus)} "
                     f"| {_cells(filter(None, [row.surface]))} |")
    lines += ["", "| host | keyword dict | gives |",
              "|------|--------------|-------|"]
    for name, row in HOST_ROWS.items():
        config = f"`{name}` → `{row.config.__name__}`" if row.config else "—"
        lines.append(f"| `{name}` | {config} "
                     f"| {_cells(filter(None, [row.surface]))} |")
    lines += ["", "| `workload.kind` | drives (any one of) |",
              "|-----------------|---------------------|"]
    lines += [f"| `{name}` | {_cells(row.needs)} |"
              for name, row in WORKLOAD_ROWS.items()]
    return "\n".join(lines)


def test_design_stack_tables_are_the_personality_table():
    """DESIGN.md §7 cannot drift: the committed tables between the two
    markers are what the spec dataclasses and the personality table
    render to (the failure prints them)."""
    path = os.path.join(REPO_ROOT, "DESIGN.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    begin, end = "<!-- stack-schema -->\n", "\n<!-- /stack-schema -->"
    committed = text[text.index(begin) + len(begin):text.index(end)]
    assert committed == design_stack_tables(), "\n" + design_stack_tables()


# -- repo-wide rules ----------------------------------------------------------


def test_no_inline_device_wiring_outside_repro_stack():
    """Nothing under benchmarks/, scripts/ or examples/ constructs
    ``OpenChannelSSD(`` itself: every stack there goes through
    ``build_stack``, so specs stay the single source of assembly truth.
    (``src/repro`` holds the builder and the layers; unit tests wire
    single layers on purpose.)"""
    inline_wiring = re.compile(r"\bOpenChannelSSD\s*\(")
    offenders = []
    for top in ("benchmarks", "scripts", "examples"):
        for path in glob.glob(os.path.join(REPO_ROOT, top, "**", "*.py"),
                              recursive=True):
            with open(path) as handle:
                offenders.extend(
                    f"{os.path.relpath(path, REPO_ROOT)}:{number}"
                    for number, line in enumerate(handle, 1)
                    if inline_wiring.search(line))
    assert not offenders, (
        f"declare a StackSpec and call build_stack() instead: {offenders}")


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "specs",
                                          "*.json"))),
    ids=os.path.basename)
def test_example_spec_runs_end_to_end(path):
    """Every shipped example spec loads through the CLI loader, runs and
    drives a nonzero op count."""
    from repro.stack.spec import load_spec
    metrics = run_spec(load_spec(path))
    assert metrics["fill_ops"] > 0
    assert metrics["sim_seconds"] > 0
