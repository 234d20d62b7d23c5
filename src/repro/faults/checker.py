"""Crash-consistency checking: randomized power cuts vs. a shadow model.

One :func:`run_crash_check` call builds an OX-Block stack, attaches a
seeded :class:`~repro.faults.FaultInjector`, runs a randomized
write/trim/flush workload until the planned power cut fires, recovers,
and then checks four invariant families against a shadow model of what
the FTL acknowledged:

* **A — structural**: the recovered mapping, chunk table and provisioner
  agree with each other and with a physical chunk scan.
* **B — durability**: every LBA reads back a version the shadow model
  allows — at least the durable floor (the newest acked version covered
  by a flush or checkpoint), never an older one, and never a torn or
  misdirected sector.
* **C — atomicity**: a multi-sector transaction is applied entirely or
  not at all; no LBA shows a transaction that its siblings lack (unless
  something newer superseded them).
* **D — functional**: the recovered FTL still round-trips a write
  through a second crash.

The shadow model mirrors the stack's documented contract: every
acknowledged operation's *mapping* is WAL-durable, but its *data* may sit
in the write buffer or device cache until a flush or checkpoint — so the
durable floor only advances at those barriers (and on acked trims, which
carry no data).  Data destroyed with an offline chunk is excused via the
FTL's ``lost_lbas`` ledger.  The operation in flight when power failed may
land either way ("maybe" versions).  Any observation outside the allowed
set raises :class:`~repro.errors.InvariantViolation` with the seed, so a
failure is a one-line repro.
"""

from __future__ import annotations

import argparse
import random
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import InvariantViolation, OutOfSpaceError, ReproError
from repro.faults.model import FaultInjector, FaultPlan
from repro.ocssd.chunk import ChunkState
from repro.ox import MediaManager, OXBlock
from repro.ox.ftl.metadata import FtlChunkState
from repro.stack import StackSpec, build_stack

_STAMP = struct.Struct("<II")   # (version, lba) tiled across the sector


@dataclass(frozen=True)
class CheckConfig:
    """One crash-consistency run: seed + fault profile + workload shape."""

    seed: int
    #: Add probabilistic program/erase faults (group 0 — the metadata
    #: region — stays protected, as a deployment would pin it to SLC).
    media_faults: bool = False
    #: Cut at a simulated time instead of a media-op count.
    time_cut: bool = False
    ops: int = 320
    lba_space: int = 96
    flush_prob: float = 0.12
    trim_prob: float = 0.06


@dataclass
class CheckResult:
    """What one run exercised — tests assert aggregate coverage on these."""

    seed: int
    cut_fired_during_workload: bool = False
    ops_run: int = 0
    txns_acked: int = 0
    txns_maybe: int = 0
    lbas_checked: int = 0
    lost_lbas: int = 0
    torn_chunks: int = 0
    programs_failed: int = 0
    erases_failed: int = 0
    gc_chunks_recycled: int = 0
    txns_replayed: int = 0
    txns_dropped: int = 0
    probe_ran: bool = False


@dataclass
class _Shadow:
    """Per-LBA acknowledged history and durable floor."""

    #: lba -> [(version, is_trim)] in global version order.
    history: Dict[int, List[Tuple[int, bool]]] = field(default_factory=dict)
    #: lba -> version of the newest item known durable (flush/ckpt/trim).
    floor: Dict[int, int] = field(default_factory=dict)
    #: lba -> versions of the operation in flight at the cut.
    maybe: Dict[int, Set[int]] = field(default_factory=dict)
    maybe_trim: Set[int] = field(default_factory=set)
    #: (version, [lbas], certain) per multi-or-single-sector write txn.
    txns: List[Tuple[int, List[int], bool]] = field(default_factory=list)

    def record(self, lba: int, version: int, is_trim: bool) -> None:
        self.history.setdefault(lba, []).append((version, is_trim))
        if is_trim:
            # Trims are WAL-flushed (FUA) before they are acknowledged and
            # carry no data: durable the moment they return.
            self.floor[lba] = version

    def raise_floor(self, before_version: Optional[int] = None) -> None:
        """A durability barrier: the newest acked item of every LBA (or
        the newest older than *before_version*) is now on media."""
        for lba, items in self.history.items():
            for version, __ in reversed(items):
                if before_version is None or version < before_version:
                    if version > self.floor.get(lba, -1):
                        self.floor[lba] = version
                    break


#: The checker's stack, declaratively: a small OX-Block drive whose GC
#: and WAL-pressure paths all fire within a few hundred ops.
CHECKER_SPEC = dict(
    geometry={"num_groups": 2, "pus_per_group": 2,
              "chunks_per_pu": 8, "pages_per_block": 6},
    ftl="oxblock",
    ftl_config={"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2,
                "gc_low_watermark": 3, "gc_high_watermark": 6,
                "wal_pressure_threshold": 0.5})


def _plan_for(cfg: CheckConfig) -> FaultPlan:
    prng = random.Random(cfg.seed ^ 0xFA17)
    return FaultPlan(
        seed=cfg.seed ^ 0xFA17,
        torn_unit_prob=0.5,
        power_cut_at_op=(None if cfg.time_cut
                         else prng.randrange(20, 1500)),
        power_cut_at_time=(prng.uniform(0.002, 0.2) if cfg.time_cut
                           else None),
        program_fail_prob=0.004 if cfg.media_faults else 0.0,
        erase_fail_prob=0.05 if cfg.media_faults else 0.0,
        # Probabilistic erase faults almost never fire before the cut:
        # GC stays in its marked group (group 0) while victims remain,
        # and group 0 is protected.  Plant grown-bad blocks instead —
        # they bypass the protection — choosing group-0 *data* chunks
        # (4..7; 0..3 hold the WAL and checkpoint slots) so the first
        # GC reset of one exercises the erase-failure + retirement path.
        grown_bad=({(0, prng.randrange(2), prng.randrange(4, 8)): 1}
                   if cfg.media_faults else {}),
        protect_groups=frozenset({0}) if cfg.media_faults else frozenset())


def _payload(version: int, lba: int, sector_size: int) -> bytes:
    return _STAMP.pack(version, lba) * (sector_size // _STAMP.size)


def _violation(cfg: CheckConfig, invariant: str, detail: str):
    raise InvariantViolation(
        f"[seed={cfg.seed} media_faults={cfg.media_faults} "
        f"time_cut={cfg.time_cut}] invariant {invariant}: {detail}")


def _parse_sector(cfg: CheckConfig, lba: int, data: bytes,
                  sector_size: int) -> int:
    """Stamp of one read-back sector; 0 means unmapped/trimmed."""
    if not any(data):
        return 0
    tile = data[:_STAMP.size]
    if data != tile * (sector_size // _STAMP.size):
        _violation(cfg, "B", f"lba {lba} read back a torn sector")
    version, stamped_lba = _STAMP.unpack(tile)
    if stamped_lba != lba:
        _violation(cfg, "B",
                   f"lba {lba} read back data stamped for lba "
                   f"{stamped_lba} (misdirected write or read)")
    return version


def run_crash_check(cfg: CheckConfig) -> CheckResult:
    """One randomized power-cut run; raises InvariantViolation on any
    post-recovery disagreement with the shadow model."""
    # The injector attaches *after* the FTL formats, so format-time media
    # ops never count toward the op-indexed power cut.
    stack = build_stack(StackSpec(**CHECKER_SPEC))
    device, media, ftl = stack.device, stack.media, stack.ftl
    injector = FaultInjector(_plan_for(cfg))
    injector.attach(device)
    geometry = media.geometry
    sector_size = geometry.sector_size

    result = CheckResult(seed=cfg.seed)
    shadow = _Shadow()
    rng = random.Random(cfg.seed ^ 0x5EED)
    next_version = 1

    # -- workload, until the cut -----------------------------------------
    for __ in range(cfg.ops):
        if injector.tripped:
            break
        ckpt_before = ftl.stats.checkpoints
        pre_version = next_version
        roll = rng.random()
        ok = True
        if roll < cfg.flush_prob:
            kind, lbas, version = "flush", [], 0
            try:
                ftl.flush()
            except ReproError:
                ok = False
        elif roll < cfg.flush_prob + cfg.trim_prob:
            kind = "trim"
            version = next_version
            next_version += 1
            lbas = [rng.randrange(cfg.lba_space)]
            try:
                ftl.trim(lbas[0])
            except ReproError:
                ok = False
        else:
            kind = "write"
            version = next_version
            next_version += 1
            span = rng.randint(1, 4)
            start = rng.randrange(cfg.lba_space - span + 1)
            lbas = list(range(start, start + span))
            data = b"".join(_payload(version, lba, sector_size)
                            for lba in lbas)
            try:
                ftl.write(start, data)
            except ReproError:
                ok = False
        result.ops_run += 1

        if injector.tripped:
            # In flight at the cut: may have landed either way, whatever
            # the call reported (a real power loss kills the host before
            # any acknowledgment is acted upon).
            if kind == "write":
                for lba in lbas:
                    shadow.maybe.setdefault(lba, set()).add(version)
                shadow.txns.append((version, lbas, False))
                result.txns_maybe += 1
            elif kind == "trim":
                shadow.maybe_trim.add(lbas[0])
            break
        if ok:
            if kind == "write":
                for lba in lbas:
                    shadow.record(lba, version, False)
                shadow.txns.append((version, lbas, True))
                result.txns_acked += 1
            elif kind == "trim":
                shadow.record(lbas[0], version, True)
            if ftl.stats.checkpoints > ckpt_before:
                # A checkpoint drains the cache before it snapshots:
                # everything acked before this op is durable now.
                shadow.raise_floor(before_version=pre_version)
            if kind == "flush":
                shadow.raise_floor()
        else:
            # Failed without a cut (media fault, space exhaustion): the
            # FTL made no durability promise, but partial effects may
            # still surface — treat like an in-flight op.
            if kind == "write":
                for lba in lbas:
                    shadow.maybe.setdefault(lba, set()).add(version)
                shadow.txns.append((version, lbas, False))
                result.txns_maybe += 1
            elif kind == "trim":
                shadow.maybe_trim.add(lbas[0])

    result.cut_fired_during_workload = injector.tripped
    if not injector.tripped:
        injector.power_cut()    # quiet system: cut at idle
    result.gc_chunks_recycled = ftl.gc.stats.chunks_recycled
    result.torn_chunks = injector.stats.torn_chunks
    result.programs_failed = injector.stats.programs_failed
    result.erases_failed = injector.stats.erases_failed
    injector.power_cycle(ftl)
    lost = set(ftl.lost_lbas)

    # -- recover ----------------------------------------------------------
    ftl2, report = OXBlock.recover(MediaManager(device), ftl.config)
    lost.update(report.lost_lbas)
    result.lost_lbas = len(lost)
    result.txns_replayed = report.txns_applied
    result.txns_dropped = report.txns_dropped

    # -- invariant A: structure -------------------------------------------
    data_keys = set(ftl2.layout.data_chunk_keys())
    mapped_per_chunk: Dict[Tuple[int, int, int], int] = {}
    for lba, linear in ftl2.page_map.items():
        ppa = geometry.delinearize(linear)
        key = ppa.chunk_key()
        if key not in data_keys:
            _violation(cfg, "A", f"lba {lba} maps outside the data region "
                                 f"({key})")
        descriptor = media.chunk_info(ppa)
        if descriptor.state is ChunkState.OFFLINE:
            _violation(cfg, "A", f"lba {lba} maps into offline chunk {key}")
        if ppa.sector >= descriptor.write_pointer:
            _violation(cfg, "A",
                       f"lba {lba} maps at {ppa} above the chunk write "
                       f"pointer {descriptor.write_pointer}")
        mapped_per_chunk[key] = mapped_per_chunk.get(key, 0) + 1
    free_rows = 0
    for key, info in ftl2.chunk_table.items():
        mapped = mapped_per_chunk.get(key, 0)
        if info.state is FtlChunkState.BAD and mapped:
            _violation(cfg, "A", f"bad chunk {key} still has {mapped} "
                                 f"mapped sectors")
        if info.valid_count != mapped:
            _violation(cfg, "A",
                       f"chunk {key} valid_count={info.valid_count} but "
                       f"{mapped} lbas map into it")
        if info.state is FtlChunkState.FREE:
            free_rows += 1
    if ftl2.provisioner.free_chunks() != free_rows:
        _violation(cfg, "A",
                   f"provisioner sees {ftl2.provisioner.free_chunks()} "
                   f"free chunks, chunk table has {free_rows}")

    # -- invariant B: durability ------------------------------------------
    check_lbas = (set(shadow.history) | set(shadow.maybe)
                  | shadow.maybe_trim)
    observed: Dict[int, int] = {}
    for lba in sorted(check_lbas):
        data = ftl2.read(lba, 1)
        version = _parse_sector(cfg, lba, data, sector_size)
        observed[lba] = version
        result.lbas_checked += 1
        if lba in lost:
            continue   # destroyed with its chunk: any content excused
        items = shadow.history.get(lba, [])
        floor = shadow.floor.get(lba)
        allowed = {v for v, is_trim in items
                   if not is_trim and (floor is None or v >= floor)}
        allowed |= shadow.maybe.get(lba, set())
        if version == 0:
            zero_ok = (floor is None
                       or any(is_trim and v >= floor for v, is_trim in items)
                       or lba in shadow.maybe_trim)
            if not zero_ok:
                _violation(cfg, "B",
                           f"lba {lba} reads unmapped but version {floor} "
                           f"was acked and durable")
        elif version not in allowed:
            _violation(cfg, "B",
                       f"lba {lba} reads version {version}; allowed "
                       f"{sorted(allowed)} (floor {floor})")

    # -- invariant C: atomicity -------------------------------------------
    for version, lbas, __certain in shadow.txns:
        if len(lbas) < 2:
            continue
        if not any(observed.get(lba) == version for lba in lbas):
            continue
        for lba in lbas:
            if observed.get(lba) == version or lba in lost:
                continue
            newer = [v for v, __ in shadow.history.get(lba, [])
                     if v > version]
            newer += [v for v in shadow.maybe.get(lba, set())
                      if v > version]
            if observed.get(lba) in newer:
                continue
            if observed.get(lba) == 0 and (
                    lba in shadow.maybe_trim
                    or any(is_trim and v > version
                           for v, is_trim in shadow.history.get(lba, []))):
                continue
            _violation(cfg, "C",
                       f"txn {version} partially applied: lba {lba} "
                       f"reads {observed.get(lba)} while a sibling "
                       f"reads {version}")

    # -- invariant D: functional round-trip -------------------------------
    probe_lba = 0
    probe_version = next_version
    probe = _payload(probe_version, probe_lba, sector_size)
    try:
        ftl2.write(probe_lba, probe)
        ftl2.flush()
    except OutOfSpaceError:
        pass    # device genuinely full; the write path already degraded
    else:
        ftl2.crash()
        ftl3, __ = OXBlock.recover(MediaManager(device), ftl.config)
        if ftl3.read(probe_lba, 1) != probe:
            _violation(cfg, "D",
                       "flushed post-recovery write did not survive a "
                       "second crash")
        result.probe_ran = True
    injector.detach()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Randomized power-cut crash-consistency checker")
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds per profile (default 10)")
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args(argv)

    configs: List[CheckConfig] = []
    for i in range(args.seeds):
        configs.append(CheckConfig(seed=args.base_seed + i))
        configs.append(CheckConfig(seed=args.base_seed + 100 + i,
                                   media_faults=True))
        configs.append(CheckConfig(seed=args.base_seed + 200 + i,
                                   time_cut=True))
    acked = maybe = checked = 0
    for cfg in configs:
        result = run_crash_check(cfg)
        acked += result.txns_acked
        maybe += result.txns_maybe
        checked += result.lbas_checked
    print(f"crash-consistency: {len(configs)} runs, {acked} acked txns, "
          f"{maybe} in-flight txns, {checked} lbas verified, 0 violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
