"""Randomized power-cut crash-consistency runs, one class per FTL the
checker has a durability contract for.

Each test drives :func:`repro.faults.checker.run_crash_check`: a seeded
workload against one ``CHECKER_SPECS`` entry with a fault plan attached,
a power cut at a random media-op count (or simulated time), recovery,
and the four invariant families (structure, durability, atomicity,
functionality) checked against a shadow model.  A violation raises
:class:`InvariantViolation` with the seed, so any failure here is a
one-line repro.

The seed ranges are fixed: these tests are deterministic, and together
with ``scripts/check.sh`` they keep ">= 50 randomized cut points per
FTL, zero violations" enforced in CI.
"""

import re

import pytest

from repro.errors import ReproError
from repro.faults.checker import CheckConfig, main, run_crash_check

PLAIN_SEEDS = range(18)
FAULT_SEEDS = range(100, 112)
TIME_SEEDS = range(200, 206)


class TestPowerCutConsistency:
    FTL = "oxblock"
    #: Counters the fixed seeds must drive above zero: space reclaimed
    #: before a cut, GC victims whose commit the cut found buffered, torn
    #: ws_min units, media faults, dropped txns, unit-committed txns
    #: replayed and torn ones dropped.
    COVERED = ("gc_chunks_recycled", "gc_victims_pending", "torn_chunks",
               "programs_failed", "erases_failed", "txns_dropped",
               "unit_txns_applied", "unit_txns_torn")
    LBAS_CHECKED = 500

    def check(self, seed, **flags):
        return run_crash_check(CheckConfig(seed=seed, ftl=self.FTL, **flags))

    @pytest.mark.parametrize("seed", PLAIN_SEEDS)
    def test_plain_power_cut(self, seed):
        self.check(seed)

    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    def test_power_cut_with_media_faults(self, seed):
        self.check(seed, media_faults=True)

    @pytest.mark.parametrize("seed", TIME_SEEDS)
    def test_power_cut_at_time(self, seed):
        self.check(seed, time_cut=True)

    def test_runs_are_deterministic(self):
        assert self.check(7) == self.check(7)

    def test_aggregate_coverage(self):
        """The fixed seed set must actually exercise the hard paths:
        cuts landing mid-workload, ops in flight at the cut, and every
        counter in ``COVERED``.  A plan change that quietly stops
        covering one of these should fail here, not silently weaken the
        suite."""
        results = [self.check(s) for s in PLAIN_SEEDS]
        results += [self.check(s, media_faults=True) for s in FAULT_SEEDS]
        results += [self.check(s, time_cut=True) for s in TIME_SEEDS]

        def total(attr):
            return sum(getattr(r, attr) for r in results)

        assert sum(r.cut_fired_during_workload for r in results) >= 10
        assert total("txns_acked") > 1000
        assert total("txns_maybe") >= 5          # ops in flight at the cut
        assert total("lbas_checked") > self.LBAS_CHECKED
        assert [name for name in self.COVERED if not total(name)] == []
        assert sum(r.probe_ran for r in results) >= len(results) // 2


class TestEleosPowerCutConsistency(TestPowerCutConsistency):
    """Appends in flight at the cut, segments freed before it, erases a
    free left running when the cut came, torn units, appends committed
    and torn in their stamps, chunks retired by failed erases, and
    appends whose FUA run failed to program.  The ring carries no OX-ELEOS
    txn, so ``txns_dropped`` is always 0 here.  An append's runs are
    durable at its ack, so no page is lost behind an ack any more except
    beside a later run that fails in the same chunk; ``tests/
    test_ox_eleos.py::
    test_a_failed_run_in_a_shared_chunk_loses_the_acked_pages_beside_it``
    places that case, which these seeds never reach."""

    FTL = "eleos"
    COVERED = ("gc_chunks_recycled", "erases_in_flight", "torn_chunks",
               "programs_failed", "erases_failed", "unit_txns_applied",
               "unit_txns_torn")
    LBAS_CHECKED = 400      # its page ids are 0..11


@pytest.mark.parametrize("ftl", ["zns", "lightlsm"])
def test_an_ftl_without_a_written_contract_is_refused(ftl):
    with pytest.raises(ReproError, match=f"CheckConfig.ftl '{ftl}'"):
        CheckConfig(seed=0, ftl=ftl)


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_a_gate_of_no_runs_is_refused(seeds, capsys):
    """``--seeds 0`` used to print "0 runs ... 0 violations" and pass."""
    with pytest.raises(SystemExit, match="2"):
        main(["--seeds", seeds])
    assert "--seeds: must be >= 1" in capsys.readouterr().err


def test_the_summary_line_names_the_windows_its_cuts_hit(capsys):
    """One line per FTL: its runs, txns and lbas, then how many cuts hit
    each crash window, each count the sum of the runs' ``CheckResult``."""
    assert main(["--seeds", "1", "--base-seed", "300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    windows = ("gc_victims_pending", "gc_copies_cached", "erases_in_flight",
               "torn_chunks", "txns_dropped", "unit_txns_applied",
               "unit_txns_torn")
    shape = re.compile(
        r"crash-consistency (\w+): 3 runs, \d+ acked txns, \d+ in-flight "
        r"txns, \d+ lbas verified, 0 violations; cuts hit "
        + ", ".join(rf"{name} (\d+)" for name in windows) + "$")
    assert [shape.match(line)[1] for line in lines] == ["oxblock", "eleos"]
    results = [run_crash_check(CheckConfig(seed=seed, ftl="oxblock", **flags))
               for seed, flags in ((300, {}), (400, {"media_faults": True}),
                                   (500, {"time_cut": True}))]
    assert [int(count) for count in shape.match(lines[0]).groups()[1:]] \
        == [sum(getattr(r, name) for r in results) for name in windows]
