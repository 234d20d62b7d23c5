"""One chunk census on every FTL: after a workload that frees or deletes,
and again after a power cut and recovery, every data chunk is in exactly
one state, a free chunk is blank on the device and an offline one is
offline there (:func:`repro.ox.media.census_problems`).  All four FTLs
keep their chunks in a :class:`repro.ox.media.ChunkPool`; on OX-ZNS the
census also holds after a failed zone reset retires one chunk."""

import pathlib

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.faults.checker import CHECKER_SPECS, FTL_OPS, recover_after_cut
from repro.lsm import DB, HorizontalPlacement, LightLSMEnv
from repro.ox import MediaManager
from repro.ocssd import Ppa
from repro.ox.media import census_problems
from repro.stack import StackSpec, build_stack
from repro.zns import ZoneState
from tests import test_alt_envs
from tests.test_alt_envs import make_zns_db
from tests.test_lightlsm import make_db


def pooled(owner):
    """The census of an FTL that keeps its chunks in a pool."""
    keeper = getattr(owner, "provisioner", owner)     # OX-Block's
    return census_problems(owner.media, keeper.pool.keys, keeper.census())


def journaled(name):
    """The crash checker's stack, written until it reclaims."""
    stack = build_stack(StackSpec(**CHECKER_SPECS[name]))
    ftl, ops = stack.ftl, FTL_OPS[name]
    injector = FaultInjector(FaultPlan()).attach(stack.device)
    sectors = ftl.geometry.ws_min if ops.units else 1
    for step in range(400):
        ops.write(ftl, step % ops.lbas, bytes([step % 251])
                  * ftl.geometry.sector_size * sectors)
    assert ops.reclaimed(ftl)
    return ftl, pooled, lambda: recover_after_cut(injector, ftl)[0]


def lsm(device, env, db, problems, reopen):
    """A DB overwritten in rounds: compactions delete tables."""
    for round_ in range(8):
        for i in range(300):
            db.put(b"%016d" % i, bytes([round_ + 1]) * 256)
        db.flush()
    db.wait_idle()

    def recover():
        injector = FaultInjector(FaultPlan()).attach(device)
        injector.power_cut()
        injector.power_cycle()
        return DB.open(reopen(env), db.config, device.sim).env
    return env, problems, recover


def lightlsm():
    return lsm(*make_db(), pooled, lambda env: LightLSMEnv(
        MediaManager(env.media.device), HorizontalPlacement()))


def zns():
    device, __, env, db = make_zns_db(chunks=40)
    return lsm(device, env, db, lambda env: pooled(env.zns), lambda env: env)


CASES = {"oxblock": lambda: journaled("oxblock"),
         "eleos": lambda: journaled("eleos"), "lightlsm": lightlsm,
         "zns": zns}


@pytest.mark.parametrize("name", list(CASES))
def test_every_chunk_is_in_one_state_before_and_after_a_cut(name):
    owner, problems, recover = CASES[name]()
    assert list(problems(owner)) == []
    assert list(problems(recover())) == []


def test_a_failed_zone_reset_retires_only_its_chunk():
    """A table zone whose reset fails on one chunk: that chunk is offline,
    the zone's other chunks are back in the pool, erased."""
    device, zns, env, handle, zones = test_alt_envs.TestZnsReclaim.table()
    chunks = list(zns.zone(zones[1]).chunks)
    bad = chunks[0]
    FaultInjector(FaultPlan(grown_bad=[[*bad, 1]])).attach(device)
    device.sim.run_until(device.sim.spawn(env.delete_table_proc(handle)))
    census = zns.census()
    assert census["offline"] == [bad] and census["in use"] == []
    assert set(chunks) - {bad} <= set(census["free"])
    assert all(device.chunk_info(Ppa(*key, 0)).write_pointer == 0
               for key in chunks[1:])
    assert list(pooled(zns)) == []


def test_a_cut_while_a_table_appends_into_a_shared_zone():
    """A table cut mid-write into zones a committed table left it: after
    ``DB.open`` the torn table is absent, the zones only it held are
    EMPTY, the shared ones FULL and out of every stripe, and the census
    and the open-zone budget agree with the zones."""
    device, zns, env, db = make_zns_db(chunks=40)
    sim = device.sim
    for i in range(200):
        db.put(b"%016d" % i, b"a" * 64)
    db.flush()
    db.wait_idle()
    injector = FaultInjector(FaultPlan()).attach(device)
    writer = env.create_writer(99, 0, 96 * 1024)
    test_alt_envs.write_blocks(sim, writer, 6)
    torn = set(writer.table.zones)
    shared = {zone_id for zone_id in torn if env._holders[zone_id] > 1}
    assert shared and torn - shared
    injector.power_cut()
    injector.power_cycle()
    db2 = DB.open(env, db.config, sim)
    assert 99 not in env._tables and db2.get(b"%016d" % 3) == b"a" * 64
    assert torn - shared <= test_alt_envs.empty_zones(zns)
    assert all(zns.zone(zone_id).state is ZoneState.FULL
               for zone_id in shared)
    assert list(pooled(zns)) == []
    assert zns.open_budget.in_use == sum(
        zone.state is ZoneState.OPEN for zone in zns.zones) == 0
    writer = env.create_writer(100, 0, 96 * 1024)
    test_alt_envs.write_blocks(sim, writer, 1)
    assert not set(writer.table.zones) & shared


def test_one_erase_path_grep_pin():
    """Every FTL erases its data chunks through its pool: only the WAL ring
    and the checkpoint slots, which no pool holds, call
    ``MediaManager.reset_dirty_proc``, and nothing outside the media
    manager issues a reset of its own."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    paths = list((src / "repro").rglob("*.py"))
    assert len(paths) > 80

    def callers(call):
        return {path.relative_to(src / "repro").as_posix()
                for path in paths
                if call in path.read_text(encoding="utf-8")}

    assert callers(".reset_dirty_proc(") == {"ox/ftl/wal.py",
                                             "ox/ftl/checkpoint.py"}
    assert callers(".reset_proc(") == {"ox/media.py"}
