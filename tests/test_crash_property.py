"""Property-based crash testing over the crash checker's shadow model.

Any interleaving of writes, trims (OX-Block) or frees of emptied segments
(OX-ELEOS), flushes, checkpoints, ``kill -9`` and power cuts (in flight
or at idle), each crash followed by recovery, must pass the checker's
invariants: every sector reads back an acknowledged version of itself at
or above the durable floor, never torn or misdirected, multi-sector
writes all or nothing; and a flushed write still survives one more
crash.  This is §4.3's "back to a consistent state", on every FTL the
checker has a durability contract for.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.faults import FaultInjector, FaultPlan
from repro.faults.checker import (
    CHECKER_SPECS, FTL_OPS, _Shadow, probe, recover_after_cut, run_op,
    verify)
from repro.stack import StackSpec, build_stack
from tests.cuts import checkpoint, cut_in

ANY = st.integers(0, 1 << 16)


class CrashOracle(RuleBasedStateMachine):
    FTL = "oxblock"

    def __init__(self):
        super().__init__()
        stack = build_stack(StackSpec(**CHECKER_SPECS[self.FTL]))
        self.device, self.ftl = stack.device, stack.ftl
        self.ops, self.shadow, self.version = FTL_OPS[self.FTL], _Shadow(), 1
        self.injector = FaultInjector(FaultPlan(torn_unit_prob=0.5))
        self.injector.attach(self.device)

    def _run(self, kind, lba, span=1, injector=None):
        start = lba % (self.ops.lbas - span + 1)
        run_op(self.ftl, self.ops, self.shadow, kind,
               list(range(start, start + span)), self.version, injector)
        self.version += 1

    def _recovered(self, ftl, report):
        lost = set(self.ops.lost(self.ftl)) | set(report.lost_lbas)
        self.ftl = ftl
        observed = verify(ftl, self.ops, self.shadow, lost, self.FTL)
        # Recovery ends with a checkpoint: what reads back now is durable,
        # and the history the next crash is checked against (0: unmapped).
        self.shadow = _Shadow()
        for lba, version in observed.items():
            self.shadow.record(lba, version, version == 0)
        self.shadow.raise_floor()

    @rule(lba=ANY, span=st.integers(1, 4))
    def write(self, lba, span):
        self._run("write", lba, span)

    @rule(lba=ANY)
    def trim_or_free(self, lba):
        self._run(self.ops.trim_kind, lba)

    @rule()
    def flush(self):
        run_op(self.ftl, self.ops, self.shadow, "flush", [], self.version)

    @rule()
    def take_checkpoint(self):
        checkpoint(self.ftl)    # pads, then drains the cache: a barrier
        self.shadow.raise_floor()

    @rule()
    def kill_and_recover(self):
        self._recovered(*recover_after_cut(None, self.ftl))

    @rule(lba=ANY, span=st.integers(1, 4), delay=st.floats(1e-6, 4e-3))
    def power_cut_and_recover(self, lba, span, delay):
        """The cut lands *delay* into a write, or at idle after it."""
        injector = self.injector
        cut_in(injector, delay)
        self._run("write", lba, span, injector)
        injector.power_cut()
        self._recovered(*recover_after_cut(injector, self.ftl))
        injector.detach()       # a tripped injector stays tripped
        self.injector = FaultInjector(FaultPlan(
            seed=self.version, torn_unit_prob=0.5)).attach(self.device)

    def teardown(self):
        """Every example ends with a crash: the steps after its last one
        are checked too."""
        self.kill_and_recover()
        probe(self.ftl, self.ops, self.version, self.FTL)


class EleosCrashOracle(CrashOracle):
    FTL = "eleos"


TestCrashOracle = CrashOracle.TestCase
TestEleosCrashOracle = EleosCrashOracle.TestCase
TestCrashOracle.settings = TestEleosCrashOracle.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None)
