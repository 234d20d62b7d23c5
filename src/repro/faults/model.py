"""The fault injector: a seeded plan of what breaks, and when.

Design rules:

* **Zero cost when disabled.**  The device and every chip carry a
  ``faults`` attribute that is ``None`` in normal operation; the hot paths
  pay one attribute load and identity check per media op, nothing else.
* **Deterministic.**  All randomness comes from one ``random.Random``
  seeded by the plan; media ops are counted in simulation order, so the
  same (plan, workload) pair replays the same faults and the same cut.
* **Power cuts reuse the crash contract.**  A cut optionally tears the
  admitted-but-unflushed tail of some chunks at sector granularity (a
  torn ``ws_min`` write unit), then calls the device's
  :meth:`~repro.ocssd.device.OpenChannelSSD.crash_volatile` — the same
  epoch-bump / cache-drop / write-pointer-rollback path the controller
  already implements — and freezes the media: every later command
  completes with ``POWER_FAIL`` until :meth:`FaultInjector.power_cycle`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ReproError
from repro.sidecar import FAULTS_SLOT, Sidecar

if TYPE_CHECKING:
    from repro.ocssd.device import OpenChannelSSD

PuKey = Tuple[int, int]


@dataclass
class FaultPlan:
    """A deterministic description of what goes wrong, and when.

    JSON-shaped: it is also a :class:`repro.stack.StackSpec`'s ``faults``
    block, so every field is a number or a list of them.
    """

    seed: int = 0
    #: Per-program-operation probability of a permanent program failure
    #: (the block grows bad, the op raises ``MediaError``).
    program_fail_prob: float = 0.0
    #: Per-read-operation probability of an uncorrectable read error.
    read_fail_prob: float = 0.0
    #: Per-erase-operation probability of an erase failure (block retires).
    erase_fail_prob: float = 0.0
    #: ``[group, pu, block, erase_cycle]`` rows: the block grows bad at
    #: that erase cycle.
    grown_bad: List[List[int]] = field(default_factory=list)
    #: Cut power once the device has performed this many media ops.
    power_cut_at_op: Optional[int] = None
    #: Cut power at this simulated time (checked on the next media op).
    power_cut_at_time: Optional[float] = None
    #: Probability that a chunk with admitted-but-unflushed sectors keeps
    #: a partial prefix of them at the cut (a torn write unit).
    torn_unit_prob: float = 0.0
    #: Groups exempt from the *probabilistic* faults — e.g. a metadata
    #: region a deployment would put on SLC.  Power cuts and torn units
    #: still apply everywhere.
    protect_groups: List[int] = field(default_factory=list)

    def validate(self) -> None:
        """Each failure names its field as a spec's ``faults`` block
        does (``faults.erase_fail_prob``)."""
        for name in ("program_fail_prob", "read_fail_prob",
                     "erase_fail_prob", "torn_unit_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ReproError(
                    f"faults.{name} must be in [0, 1], got {value}")
        if self.power_cut_at_op is not None and self.power_cut_at_op < 1:
            raise ReproError(f"faults.power_cut_at_op must be >= 1, got "
                             f"{self.power_cut_at_op}")
        if self.power_cut_at_time is not None and self.power_cut_at_time < 0:
            raise ReproError(f"faults.power_cut_at_time must be >= 0, got "
                             f"{self.power_cut_at_time}")
        for row in self.grown_bad:
            if not (isinstance(row, (list, tuple)) and len(row) == 4
                    and all(type(value) is int for value in row)):
                raise ReproError(f"faults.grown_bad rows are [group, pu, "
                                 f"block, erase_cycle]; got {row!r}")
        early = {tuple(row[:3]): row[3] for row in self.grown_bad
                 if row[3] < 1}
        if early:       # chip.erase counts cycles from 1
            raise ReproError(
                f"faults.grown_bad erase cycles start at 1, got {early}")


@dataclass
class FaultStats:
    media_ops: int = 0
    programs_failed: int = 0
    reads_failed: int = 0
    erases_failed: int = 0
    power_cuts: int = 0
    torn_chunks: int = 0


class FaultInjector(Sidecar):
    """Attaches one :class:`FaultPlan` to one device."""

    slot = FAULTS_SLOT

    def __init__(self, plan: FaultPlan):
        super().__init__()
        plan.validate()
        self.plan = plan
        self.powered = True
        self.tripped = False          # has the power cut fired?
        self.cut_time: Optional[float] = None
        self.stats = FaultStats()
        self._rng = random.Random(plan.seed)
        self._quiesced = False
        # The plan's rows as the media ops look them up.
        self._grown_bad = {(group, pu, block): cycle
                           for group, pu, block, cycle in plan.grown_bad}
        self._protected = frozenset(plan.protect_groups)

    # -- wiring (Sidecar protocol) -----------------------------------------

    def sidecar_targets(self, device: "OpenChannelSSD"):
        # The controller carries no faults slot: injection happens at the
        # device boundary (power state) and inside the chips (media ops).
        return (device, *device.chips.values())

    def _sidecar_validate(self, device: "OpenChannelSSD") -> None:
        """A block or group the device lacks would never fire."""
        geometry = device.geometry
        shape = (geometry.num_groups, geometry.pus_per_group,
                 geometry.chunks_per_pu)
        outside = [key for key in self._grown_bad
                   if not all(0 <= i < n for i, n in zip(key, shape))]
        if outside:
            raise ReproError(f"faults.grown_bad {outside}: no such (group, "
                             f"pu, block) on a {shape} device")
        outside = sorted(self._protected - set(range(geometry.num_groups)))
        if outside:
            raise ReproError(f"faults.protect_groups {outside}: the device "
                             f"has {geometry.num_groups} groups")

    def _sidecar_wire(self, device: "OpenChannelSSD") -> None:
        for (group, pu), chip in device.chips.items():
            chip.fault_key = (group, pu)

    def power_cycle(self, ftl=None) -> None:
        """The rest of a power cut, up to the point recovery can start:
        *ftl* (if any) dies with the host, the processes the cut abandoned
        mid-op run to their POWER_FAIL — noise that must not surface
        inside recovery's ``run_until`` — and the device comes back
        powered, with the media exactly as the cut froze it, and quiesced:
        no probabilistic fault, grown-bad plan or pending cut fires again,
        so the post-crash world is only as broken as the crash left it."""
        if ftl is not None:
            ftl.crash()
        while True:
            try:
                self.device.sim.run()
                break
            except ReproError:
                continue
        self._quiesced = True
        self.powered = True

    # -- chip / device hook entry points ----------------------------------

    def on_media_op(self, kind: str) -> bool:
        """Count one media op and fire a pending power cut.

        Returns False when the device is unpowered: the op must then have
        no effect at all (the chip returns 0.0 media time untouched).
        """
        if not self.powered:
            return False
        if self._quiesced:
            return True
        self.stats.media_ops += 1
        plan = self.plan
        if (plan.power_cut_at_op is not None
                and self.stats.media_ops >= plan.power_cut_at_op):
            self.power_cut()
            return False
        if (plan.power_cut_at_time is not None
                and self.device.sim.now >= plan.power_cut_at_time):
            self.power_cut()
            return False
        return True

    def _roll(self, key: PuKey, prob: float) -> bool:
        if self._quiesced or not prob or key[0] in self._protected:
            return False
        return self._rng.random() < prob

    def program_fails(self, key: PuKey) -> bool:
        if self._roll(key, self.plan.program_fail_prob):
            self.stats.programs_failed += 1
            return True
        return False

    def read_fails(self, key: PuKey) -> bool:
        if self._roll(key, self.plan.read_fail_prob):
            self.stats.reads_failed += 1
            return True
        return False

    def erase_fails(self, key: PuKey, block: int, erase_count: int) -> bool:
        if not self._quiesced:
            planned = self._grown_bad.get((key[0], key[1], block))
            if planned is not None and erase_count >= planned:
                self.stats.erases_failed += 1
                return True
        if self._roll(key, self.plan.erase_fail_prob):
            self.stats.erases_failed += 1
            return True
        return False

    # -- the cut ----------------------------------------------------------

    def power_cut(self) -> None:
        """Cut power now.

        First, optionally tear: each chunk with admitted-but-unflushed
        sectors keeps, with ``torn_unit_prob``, a random non-empty prefix
        of them — the partially-programmed write unit a real power loss
        leaves behind.  Then the device loses everything volatile
        (``crash_volatile``) and goes dark until ``power_cycle``.
        """
        if self.device is None:
            raise ReproError("fault injector is not attached to a device")
        if self.tripped:
            return
        self.tripped = True
        self.powered = False
        self.cut_time = self.device.sim.now
        self.stats.power_cuts += 1
        torn_prob = self.plan.torn_unit_prob
        if torn_prob:
            for chunk in self.device.chunks.values():
                unflushed = chunk.write_pointer - chunk.flushed_pointer
                if unflushed <= 0:
                    continue
                if self._rng.random() >= torn_prob:
                    continue
                keep = self._rng.randrange(1, unflushed + 1)
                chunk.mark_flushed(chunk.flushed_pointer + keep)
                self.stats.torn_chunks += 1
        self.device.crash_volatile()
