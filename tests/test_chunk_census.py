"""One chunk census on every FTL: after a workload that frees or deletes,
and again after a power cut and recovery, every data chunk is in exactly
one state, a free chunk is blank on the device and an offline one is
offline there (:func:`repro.ox.media.census_problems`).  OX-ZNS keeps no
pool: ``ZnsEnv.census()`` reads its zones' states and the tables' zones,
and it holds after a failed reset retires a table's zone."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.faults.checker import CHECKER_SPECS, FTL_OPS, recover_after_cut
from repro.lsm import DB, HorizontalPlacement, LightLSMEnv
from repro.ox import MediaManager
from repro.ox.media import census_problems
from repro.errors import ZoneError
from repro.stack import StackSpec, build_stack
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


def zoned(env):
    """The census of OX-ZNS under a ZnsEnv: every zone's chunks."""
    return census_problems(env.zns.media, [
        key for zone in env.zns.zones for key in zone.chunks], env.census())


def lightlsm():
    return lsm(*make_db(), pooled, lambda env: LightLSMEnv(
        MediaManager(env.media.device), HorizontalPlacement()))


def zns():
    device, __, env, db = make_zns_db(chunks=40)
    return lsm(device, env, db, zoned, lambda env: env)


CASES = {"oxblock": lambda: journaled("oxblock"),
         "eleos": lambda: journaled("eleos"), "lightlsm": lightlsm,
         "zns": zns}


@pytest.mark.parametrize("name", list(CASES))
def test_every_chunk_is_in_one_state_before_and_after_a_cut(name):
    owner, problems, recover = CASES[name]()
    assert list(problems(owner)) == []
    assert list(problems(recover())) == []


def test_a_retired_zone_strands_its_healthy_chunks():
    """A table zone whose reset fails is retired: its bad chunk is offline
    on the device and the other three, erased, are in use (stranded)."""
    device, zns, env, handle, zones = test_alt_envs.TestZnsReclaim.table()
    bad = zns.zone(zones[1]).chunks[0]
    FaultInjector(FaultPlan(grown_bad={bad: 1})).attach(device)
    with pytest.raises(ZoneError, match="retired"):
        device.sim.run_until(device.sim.spawn(env.delete_table_proc(handle)))
    census = env.census()
    assert census["offline"] == [bad]
    assert set(zns.zone(zones[1]).chunks) - {bad} <= set(census["in use"])
    assert list(zoned(env)) == []
