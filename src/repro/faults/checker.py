"""Crash-consistency checking: randomized power cuts vs. a shadow model.

One :func:`run_crash_check` call builds one :data:`CHECKER_SPECS` entry
(an FTL that keeps a journal), attaches a seeded
:class:`~repro.faults.FaultInjector`, runs a randomized write /
trim-or-free / flush workload until the planned power cut fires,
recovers, and then checks four invariant families against a shadow model
of what the FTL acknowledged:

* **A — structure**: every data chunk is in exactly one state of its
  pool's census (:func:`repro.ox.media.census_problems`); per FTL,
  OX-Block's mapping and chunk table agree with each other and with the
  device, and on OX-ELEOS no unit is owned twice, no page maps into an
  offline chunk and no segment is empty.
* **B — durability**: every LBA reads back a version the shadow model
  allows — at least the durable floor (the newest acked version covered
  by a barrier), never an older one, and never a torn or misdirected
  sector.
* **C — atomicity**: a multi-sector transaction is applied entirely or
  not at all; no LBA shows a transaction that its siblings lack (unless
  something newer superseded them).
* **D — functional**: the recovered FTL still round-trips a write
  through a second crash.

The per-FTL part is one :class:`FtlOps` row.  On OX-ELEOS an LBA is a
page id, a write is one LSS buffer of sector-sized pages, and the trim
slot frees a segment the workload emptied (a host whose free pool ran
dry frees them all before it appends).  The shadow mirrors the stacks'
documented contract: an acked operation's *mapping* is durable at its
ack — in the WAL or in its units' stamps — but its *data* may sit in the
write buffer or device cache until a barrier —
a flush, a checkpoint, an OX-ELEOS free (it flushes before it erases) —
or an acked trim, which carries no data.  Data that died with an offline
chunk is excused via the FTL's lost-LBA report.  The operation in flight
when power failed may land either way ("maybe" versions).  Any
observation outside the allowed set raises
:class:`~repro.errors.InvariantViolation` with the seed: a one-line repro.
"""

from __future__ import annotations

import argparse
import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import InvariantViolation, OutOfSpaceError, ReproError
from repro.faults.model import FaultInjector, FaultPlan
from repro.ocssd.chunk import ChunkState
from repro.ox import MediaManager
from repro.ox.ftl.metadata import FtlChunkState
from repro.ox.media import census_problems
from repro.stack import StackSpec, build_stack

_STAMP = struct.Struct("<II")   # (version, lba) tiled across the sector

#: The workload: ops per run (the cut usually fires first), OX-Block's LBA
#: space, and the share of flushes and of trim-slot ops.
OPS = 320
LBA_SPACE = 96
FLUSH_PROB = 0.12
TRIM_PROB = 0.06


@dataclass(frozen=True)
class CheckConfig:
    """One crash-consistency run: seed, FTL and fault profile."""

    seed: int
    #: The :data:`CHECKER_SPECS` entry to run.
    ftl: str = "oxblock"
    #: Add probabilistic program/erase faults (group 0 — the metadata
    #: region — stays protected, as a deployment would pin it to SLC).
    media_faults: bool = False
    #: Cut at a simulated time instead of a media-op count.
    time_cut: bool = False

    def __post_init__(self):
        if self.ftl not in CHECKER_SPECS:
            raise ReproError(f"CheckConfig.ftl {self.ftl!r}: no written "
                             f"durability contract; one of "
                             f"{tuple(CHECKER_SPECS)}")


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
    #: Space reclaimed before the cut: chunks OX-Block's GC recycled,
    #: segments OX-ELEOS freed.
    gc_chunks_recycled: int = 0
    #: OX-ELEOS chunk erases the cut found in flight (a free returns
    #: before its erases finish).
    erases_in_flight: int = 0
    #: OX-Block GC victims the cut found with their commit buffered.
    gc_victims_pending: int = 0
    #: 1 if the cut found an OX-Block GC commit on media while a copy it
    #: names was still above its chunk's flushed pointer (and so lost).
    gc_copies_cached: int = 0
    txns_replayed: int = 0
    txns_dropped: int = 0
    unit_txns_applied: int = 0
    unit_txns_torn: int = 0
    probe_ran: bool = False


@dataclass
class _Shadow:
    """Per-LBA acknowledged history and durable floor."""

    #: lba -> [(version, is_trim)] in global version order.
    history: Dict[int, List[Tuple[int, bool]]] = field(default_factory=dict)
    #: lba -> version of the newest item known durable (flush/ckpt/trim).
    floor: Dict[int, int] = field(default_factory=dict)
    #: lba -> versions of the operation in flight at the cut (0: a trim).
    maybe: Dict[int, Set[int]] = field(default_factory=dict)
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


@dataclass(frozen=True)
class FtlOps:
    """How the checker drives and reads one FTL; a ``"free"`` trim slot
    reclaims space and unmaps nothing, *structure* yields what breaks
    invariant A, *barriers* counts the ones the FTL ran on its own,
    *erasing* the erases it has in flight, *pending* the GC victims whose
    commit is still buffered, *cached* whether a GC commit on media
    outran a copy it names; *units* makes every fourth write or so whole
    write units."""

    write: Callable[[object, int, bytes], object]
    read: Callable[[object, int], bytes]
    trim: Callable[[object, int], object]
    flush: Callable[[object], object]
    structure: Callable[[object], Iterator[str]]
    barriers: Callable[[object], int]
    reclaimed: Callable[[object], int]
    lost: Callable[[object], List[int]] = lambda ftl: []
    erasing: Callable[[object], int] = lambda ftl: 0
    pending: Callable[[object], int] = lambda ftl: 0
    cached: Callable[[object], int] = lambda ftl: 0
    trim_kind: str = "trim"
    lbas: int = LBA_SPACE
    units: bool = False


def _oxblock_structure(ftl) -> Iterator[str]:
    data_keys = set(ftl.layout.data_chunk_keys())
    mapped_per_chunk: Dict[Tuple[int, int, int], int] = {}
    for lba, linear in ftl.page_map.items():
        ppa = ftl.geometry.delinearize(linear)
        key = ppa.chunk_key()
        if key not in data_keys:
            yield f"lba {lba} maps outside the data region ({key})"
        descriptor = ftl.media.chunk_info(ppa)
        if descriptor.state is ChunkState.OFFLINE:
            yield f"lba {lba} maps into offline chunk {key}"
        if ppa.sector >= descriptor.write_pointer:
            yield (f"lba {lba} maps at {ppa} above the chunk write "
                   f"pointer {descriptor.write_pointer}")
        mapped_per_chunk[key] = mapped_per_chunk.get(key, 0) + 1
    census = ftl.provisioner.census()   # a BAD row not offline is "in use"
    for key, info in ftl.chunk_table.items():
        mapped = mapped_per_chunk.get(key, 0)
        if info.state is FtlChunkState.BAD and mapped:
            yield f"bad chunk {key} still has {mapped} mapped sectors"
        if info.state is FtlChunkState.BAD and key not in census["offline"]:
            yield f"bad chunk {key} is not offline on the device"
        if info.valid_count != mapped:
            yield (f"chunk {key} valid_count={info.valid_count} but "
                   f"{mapped} lbas map into it")
    yield from census_problems(ftl.media, data_keys, census)


def _eleos_structure(ftl) -> Iterator[str]:
    census = ftl.census()
    yield from census_problems(ftl.media, ftl.pool.keys, census)
    offline = set(census["offline"])
    owners: Dict[int, List[int]] = {}
    for segment, units in ftl.segments.items():
        for unit in units:
            owners.setdefault(unit, []).append(segment)
    twice = sorted(unit for unit, segments in owners.items()
                   if len(segments) > 1)
    if twice:
        yield f"units {twice} are owned by more than one segment"
    for page_id, entry in ftl.vmap.items():
        key = ftl.geometry.delinearize(entry.first_sector).chunk_key()
        if key in offline:
            yield f"page {page_id} maps into offline chunk {key}"
    empty = [seg for seg in ftl.segments if not ftl.segment_live_pages(seg)]
    if empty:
        yield f"segments {empty} hold no page"


def _free_emptied(ftl, limit: Optional[int] = None) -> None:
    for segment in [seg for seg in sorted(ftl.segments)
                    if not ftl.segment_live_pages(seg)][:limit]:
        ftl.free_segment(segment)


def _eleos_write(ftl, lba: int, data: bytes) -> None:
    if not ftl.free_unit_count():
        _free_emptied(ftl)
    size = ftl.geometry.sector_size
    ftl.append_buffer([(lba + i, data[i * size:(i + 1) * size])
                       for i in range(len(data) // size)])


FTL_OPS: Dict[str, FtlOps] = {
    "oxblock": FtlOps(
        write=lambda ftl, lba, data: ftl.write(lba, data),
        read=lambda ftl, lba: ftl.read(lba, 1),
        trim=lambda ftl, lba: ftl.trim(lba), flush=lambda ftl: ftl.flush(),
        structure=_oxblock_structure,
        barriers=lambda ftl: ftl.stats.checkpoints,
        reclaimed=lambda ftl: ftl.gc.stats.chunks_recycled,
        lost=lambda ftl: ftl.lost_lbas,
        pending=lambda ftl: len(ftl.gc.pending),
        # The carry's WAL flush took the victims out of ``pending``; the
        # cut set each chunk's write pointer back to its flushed pointer.
        cached=lambda ftl: int(not ftl.gc.pending and any(
            run.first + run.count > ftl.media.chunk_info(run[0]).write_pointer
            for run in ftl.gc.copies)), units=True),
    # Page ids 0..11: at most 12 write units hold a live page.
    "eleos": FtlOps(
        write=_eleos_write,
        read=lambda ftl, lba: (ftl.read_page(lba) if lba in ftl.vmap
                               else bytes(ftl.geometry.sector_size)),
        trim=lambda ftl, lba: _free_emptied(ftl, 1),
        flush=lambda ftl: ftl.media.flush(), structure=_eleos_structure,
        barriers=lambda ftl: ftl.stats.checkpoints + ftl.stats.segments_freed,
        reclaimed=lambda ftl: ftl.stats.segments_freed,
        erasing=lambda ftl: len(ftl.pool.erasing), trim_kind="free", lbas=12),
}

#: The checker's stacks: small drives whose GC (or frees) and WAL-pressure
#: paths fire within a few hundred ops, one journal layout (group 0's
#: chunks 4..7, where grown-bad blocks are planted, hold data).
_GEOMETRY = {"num_groups": 2, "pus_per_group": 2,
             "chunks_per_pu": 8, "pages_per_block": 6}
CHECKER_SPECS: Dict[str, dict] = {
    "oxblock": dict(
        geometry=_GEOMETRY, ftl="oxblock",
        ftl_config={"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2,
                    "gc_low_watermark": 3, "gc_high_watermark": 6,
                    "wal_pressure_threshold": 0.5}),
    "eleos": dict(
        geometry=_GEOMETRY, ftl="eleos", host="none",
        ftl_config={"ckpt_chunks_per_slot": 2}),
}


def recover_after_cut(injector: Optional[FaultInjector], ftl):
    """*ftl* dies with the host — the rest of *injector*'s power cut, or a
    ``kill -9`` without one — and its device recovers on a fresh media
    manager: ``(recovered ftl, RecoveryReport)``."""
    if injector is None:
        ftl.crash()
    else:
        injector.power_cycle(ftl)
    return type(ftl).recover(MediaManager(ftl.media.device), ftl.config)


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
        # OX-Block's GC stays in its marked group (group 0, protected) while
        # victims remain.  A grown-bad block bypasses the protection; on a
        # group-0 *data* chunk (4..7) its first reset fails and retires it.
        grown_bad=([[0, prng.randrange(2), prng.randrange(4, 8), 1]]
                   if cfg.media_faults else []),
        protect_groups=[0] if cfg.media_faults else [])


def _payload(version: int, lba: int, sector_size: int) -> bytes:
    return _STAMP.pack(version, lba) * (sector_size // _STAMP.size)


def _violation(where: str, invariant: str, detail: str):
    raise InvariantViolation(f"{where} invariant {invariant}: {detail}")


def _parse_sector(where: str, lba: int, data: bytes) -> int:
    """Stamp of one read-back sector; 0 means unmapped/trimmed."""
    if not any(data):
        return 0
    tile = data[:_STAMP.size]
    if data != tile * (len(data) // _STAMP.size):
        _violation(where, "B", f"lba {lba} read back a torn sector")
    version, stamped_lba = _STAMP.unpack(tile)
    if stamped_lba != lba:
        _violation(where, "B",
                   f"lba {lba} read back data stamped for lba "
                   f"{stamped_lba} (misdirected write or read)")
    return version


def run_op(ftl, ops: FtlOps, shadow: _Shadow, kind: str, lbas: List[int],
           version: int, injector: Optional[FaultInjector] = None) -> None:
    """Run one ``write`` (one transaction over *lbas*, stamped *version*),
    ``trim``, ``free`` or ``flush`` and book it in *shadow*."""
    barriers = ops.barriers(ftl)
    try:
        if kind == "write":
            ops.write(ftl, lbas[0], b"".join(
                _payload(version, lba, ftl.geometry.sector_size)
                for lba in lbas))
        elif kind == "flush":
            ops.flush(ftl)
        else:
            ops.trim(ftl, lbas[0])
        # In flight at the cut, whatever the call reported (a real power
        # loss kills the host before any acknowledgment is acted upon), or
        # failed (media fault, space exhaustion: no durability promise, but
        # partial effects may surface): it may have landed either way.
        ok = injector is None or not injector.tripped
    except ReproError:
        ok = False
    if kind == "write":
        shadow.txns.append((version, lbas, ok))
    for lba in lbas if kind in ("write", "trim") else ():
        if ok:
            shadow.record(lba, version, kind == "trim")
        else:
            shadow.maybe.setdefault(lba, set()).add(
                0 if kind == "trim" else version)
    if ok and ops.barriers(ftl) > barriers:
        # A checkpoint drains the cache before it snapshots, a free before
        # it erases: everything acked before this op is durable now.
        shadow.raise_floor(before_version=version)
    if ok and kind == "flush":
        shadow.raise_floor()


def verify(ftl, ops: FtlOps, shadow: _Shadow, lost: Set[int],
           where: str) -> Dict[int, int]:
    """Invariants A-C on the recovered *ftl*; returns the version each
    checked LBA reads (0: unmapped).  LBAs in *lost* died with their
    chunk: any content is excused."""
    for detail in ops.structure(ftl):
        _violation(where, "A", detail)
    observed: Dict[int, int] = {}
    for lba in sorted(set(shadow.history) | set(shadow.maybe)):
        version = _parse_sector(where, lba, ops.read(ftl, lba))
        observed[lba] = version
        floor = shadow.floor.get(lba)
        allowed = {0 if is_trim else v
                   for v, is_trim in shadow.history.get(lba, ())
                   if floor is None or v >= floor}
        allowed |= shadow.maybe.get(lba, set())
        if floor is None:
            allowed.add(0)
        if version not in allowed and lba not in lost:
            _violation(where, "B", f"lba {lba} reads version {version} (0: "
                       f"unmapped); allowed {sorted(allowed)} (floor {floor})")

    for version, lbas, __certain in shadow.txns:
        if len(lbas) < 2 or version not in [observed[lba] for lba in lbas]:
            continue
        for lba in lbas:
            later = {0 if is_trim else v
                     for v, is_trim in shadow.history.get(lba, ())
                     if v > version}
            later |= {v for v in shadow.maybe.get(lba, ())
                      if v == 0 or v > version}
            if observed[lba] not in later | {version} and lba not in lost:
                _violation(where, "C", f"txn {version} partially applied: "
                           f"lba {lba} reads {observed[lba]} while a sibling "
                           f"reads {version}")
    return observed


def probe(ftl, ops: FtlOps, version: int, where: str) -> bool:
    """Invariant D: a flushed write to LBA 0 of the recovered *ftl*
    survives a second crash.  False: the device is too full to take it."""
    data = _payload(version, 0, ftl.geometry.sector_size)
    try:
        ops.write(ftl, 0, data)
        ops.flush(ftl)
    except OutOfSpaceError:
        return False
    if ops.read(recover_after_cut(None, ftl)[0], 0) != data:
        _violation(where, "D", "flushed post-recovery write did not "
                               "survive a second crash")
    return True


def run_crash_check(cfg: CheckConfig) -> CheckResult:
    """One randomized power-cut run; raises InvariantViolation on any
    post-recovery disagreement with the shadow model."""
    # The injector attaches *after* the FTL formats, so format-time media
    # ops never count toward the op-indexed power cut.
    stack = build_stack(StackSpec(**CHECKER_SPECS[cfg.ftl]))
    ftl, ops = stack.ftl, FTL_OPS[cfg.ftl]
    injector = FaultInjector(_plan_for(cfg)).attach(stack.device)
    result = CheckResult(seed=cfg.seed)
    shadow = _Shadow()
    rng = random.Random(cfg.seed ^ 0x5EED)
    version = 1
    while result.ops_run < OPS and not injector.tripped:
        roll = rng.random()
        if roll < FLUSH_PROB:
            kind, lbas = "flush", []
        elif roll < FLUSH_PROB + TRIM_PROB:
            kind, lbas = ops.trim_kind, [rng.randrange(ops.lbas)]
        else:
            span = rng.randint(1, 4)
            if ops.units and rng.random() < 0.25:
                span = ftl.geometry.ws_min * rng.randint(1, 2)
            start = rng.randrange(ops.lbas - span + 1)
            kind, lbas = "write", list(range(start, start + span))
        run_op(ftl, ops, shadow, kind, lbas, version, injector)
        version += kind != "flush"
        result.ops_run += 1

    result.cut_fired_during_workload = injector.tripped
    if not injector.tripped:
        injector.power_cut()    # quiet system: cut at idle
    result.gc_chunks_recycled = ops.reclaimed(ftl)
    result.erases_in_flight = ops.erasing(ftl)
    result.gc_victims_pending = ops.pending(ftl)
    result.gc_copies_cached = ops.cached(ftl)
    result.torn_chunks = injector.stats.torn_chunks
    result.programs_failed = injector.stats.programs_failed
    result.erases_failed = injector.stats.erases_failed
    recovered, report = recover_after_cut(injector, ftl)
    lost = set(ops.lost(ftl)) | set(report.lost_lbas)
    result.lost_lbas = len(lost)
    result.txns_replayed = report.txns_applied
    result.txns_dropped = report.txns_dropped
    result.unit_txns_applied = report.unit_txns_applied
    result.unit_txns_torn = report.unit_txns_torn
    result.txns_acked = sum(certain for *__, certain in shadow.txns)
    result.txns_maybe = len(shadow.txns) - result.txns_acked
    where = repr(cfg)       # a failure names its one-line repro
    result.lbas_checked = len(verify(recovered, ops, shadow, lost, where))
    result.probe_ran = probe(recovered, ops, version, where)
    injector.detach()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Randomized power-cut crash-consistency checker, over "
                    "every FTL with a written durability contract")
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds per FTL and fault profile (default 10)")
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"argument --seeds: must be >= 1, got {args.seeds}")
    profiles = ((0, {}), (100, {"media_faults": True}),
                (200, {"time_cut": True}))

    def hits(results):      # the windows the cuts found open
        return ", ".join(f"{name} {sum(getattr(r, name) for r in results)}"
                         for name in ("gc_victims_pending", "gc_copies_cached",
                                      "erases_in_flight", "torn_chunks",
                                      "txns_dropped", "unit_txns_applied",
                                      "unit_txns_torn"))
    for ftl in CHECKER_SPECS:
        results = [run_crash_check(CheckConfig(
            seed=args.base_seed + offset + i, ftl=ftl, **flags))
            for i in range(args.seeds) for offset, flags in profiles]
        print(f"crash-consistency {ftl}: {len(results)} runs, "
              f"{sum(r.txns_acked for r in results)} acked txns, "
              f"{sum(r.txns_maybe for r in results)} in-flight txns, "
              f"{sum(r.lbas_checked for r in results)} lbas verified, "
              f"0 violations; cuts hit {hits(results)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
