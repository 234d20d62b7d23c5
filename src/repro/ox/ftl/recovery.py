"""Crash recovery: checkpoint load + WAL replay + physical reconciliation.

After a failure "OX [relies] on recovery to reconstruct metadata and
mapping information and bring the Open-Channel SSD back to a consistent
state" (§4.3).  Recovery here:

1. reads the newest complete checkpoint (both slots, footer-validated);
2. replays the WAL of that checkpoint's epoch, applying *committed*
   transactions only — and only when every sector a transaction mapped is
   actually on media (below the post-crash write pointer).  Transactions
   whose data died in the controller cache are dropped whole, preserving
   atomicity; this is the paper's "some updates since last checkpoint
   might not be persisted".  Writes that committed in their units' OOB
   stamps ``(lba, txn, count)`` join them in id order; a torn one drops
   whole (:func:`stamp_scan_proc`, which OX-ELEOS's recovery shares);
3. reconciles the FTL chunk table with a device chunk scan and rebuilds
   the provisioner (adopting at most one partially-written chunk per PU,
   closing the rest early).

Every read is timed through the device, and replay pays a per-record CPU
cost, so the *recovery time* this module reports is the quantity Figure 3
plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.ocssd.address import PpaRun
from repro.ocssd.chunk import ChunkState
from repro.ox.ftl.journal import Journal
from repro.ox.ftl.mapping import PageMap
from repro.ox.ftl.metadata import ChunkTable, FtlChunkState
from repro.ox.ftl.provisioning import Provisioner
from repro.ox.ftl.serial import (NO_PPA, REC_CKPT_CHUNK, REC_CKPT_MAP,
                                 REC_COMMIT)
from repro.ox.media import MediaManager


@dataclass
class RecoveryReport:
    """What recovery did and how long it took (simulated seconds)."""

    duration: float = 0.0
    checkpoint_seq: int = 0
    wal_sectors_read: int = 0
    records_decoded: int = 0
    txns_applied: int = 0
    txns_dropped: int = 0
    unit_txns_applied: int = 0
    unit_txns_torn: int = 0
    #: LBAs whose mappings pointed into chunks that went offline (grown
    #: bad blocks): their data is gone, they read as zeroes from now on.
    lost_lbas: List[int] = field(default_factory=list)


@dataclass
class RecoveredState:
    page_map: PageMap
    chunk_table: ChunkTable
    provisioner: Provisioner
    report: RecoveryReport


def recover_proc(media: MediaManager, journal: Journal,
                 replay_cpu_per_record: float = 2e-6):
    """Process generator: rebuild FTL state from media, positioning
    *journal* on the way; returns :class:`RecoveredState`."""
    sim = media.sim
    started = sim.now
    report = RecoveryReport()
    geometry = media.geometry

    # 1. Checkpoint, and 2. the WAL of its epoch.
    tables, records = yield from journal.load_proc(report)
    since = journal.next_txn_id     # the checkpoint covers every id below
    chunk_table = ChunkTable(geometry,
                             iter(journal.layout.data_chunk_keys()))
    page_map = PageMap(chunk_table.total_sectors,
                       geometry.total_chunks * geometry.sectors_per_chunk)
    page_map.load(tables.get(REC_CKPT_MAP, ()))
    for row in tables.get(REC_CKPT_CHUNK, ()):
        chunk_table.load_row(*row)
    data_keys = set(key for key, __ in chunk_table.items())

    def classify(linear_ppa: int) -> str:
        """Where did this entry's data end up?

        ``"ok"``: durably on media.  ``"offline"``: the txn persisted but
        its chunk has since gone bad — the data is destroyed, the lba
        reads as zeroes (same policy as a live async retirement).
        ``"gone"``: the data died in the volatile cache — the txn never
        fully persisted and must be dropped whole for atomicity.
        """
        ppa = geometry.delinearize(linear_ppa)
        if ppa.chunk_key() not in data_keys:
            return "gone"
        info = media.chunk_info(ppa)
        if info.state is ChunkState.OFFLINE:
            return "offline"
        return "ok" if ppa.sector < info.write_pointer else "gone"

    # Pass 1: collect the committed transactions, logged or unit-committed,
    # in id order (paying the replay CPU cost) and index, per LBA, which
    # transactions write it and in what order.
    txns: List[Tuple[int, list]] = [
        (txn_id, entries) for rtype, txn_id, entries in journal.fold(records)
        if rtype == REC_COMMIT]
    txns += yield from _unit_txns_proc(media, journal, chunk_table, since,
                                       report)
    txns.sort(key=lambda txn: txn[0])
    writers: dict = {}   # lba -> [txn index, ...] in commit order
    for index, (txn_id, entries) in enumerate(txns):
        if replay_cpu_per_record:
            yield sim.timeout(replay_cpu_per_record * max(1, len(entries)))
        for lba, __, _old in entries:
            writers.setdefault(lba, []).append(index)

    # Pass 2: decide which transactions to drop.  A txn whose data died
    # in the volatile cache ("gone") must be dropped whole — applying it
    # partially would tear an atomic write.  But "gone" alone is not
    # enough: GC relocations and overwrites legitimately leave stale
    # entries pointing into chunks that were since erased, with a later
    # committed record superseding them.  Only an entry that would be the
    # *final* word on its LBA forces the drop; dropping a txn can in turn
    # expose an older txn's gone entry as final, so iterate to a fixed
    # point (each round drops at least one txn, so this terminates).
    dropped: set = set()

    def final_writer(lba: int) -> Optional[int]:
        for index in reversed(writers[lba]):
            if index not in dropped:
                return index
        return None

    while True:
        newly = set()
        for index, (txn_id, entries) in enumerate(txns):
            if index in dropped:
                continue
            for lba, new, __ in entries:
                if new == NO_PPA:
                    continue   # a trim cannot lose data
                if final_writer(lba) != index:
                    continue   # superseded by a later committed record
                if classify(new) == "gone":
                    newly.add(index)
                    break
        if not newly:
            break
        dropped.update(newly)

    # Pass 3: apply the surviving transactions in commit order.  Gone
    # entries of surviving txns are skipped (a later survivor overwrites
    # them — that is why the txn survived); offline entries persisted but
    # their data died with the chunk, so the LBA reads as zeroes.
    report.txns_dropped = len(dropped)
    for index, (txn_id, entries) in enumerate(txns):
        if index in dropped:
            continue
        for lba, new, __ in entries:
            status = "trim" if new == NO_PPA else classify(new)
            if status == "gone":
                continue
            if status == "ok":
                previous = page_map.update(lba, new)
                chunk_table.add_valid(geometry.delinearize(new).chunk_key())
            else:   # trim, or data lost with its offline chunk
                previous = page_map.remove(lba)
                if status == "offline":
                    report.lost_lbas.append(lba)
            if previous is not None:
                chunk_table.invalidate(
                    geometry.delinearize(previous).chunk_key())
        report.txns_applied += 1

    # 3. Physical reconciliation + provisioner rebuild.
    open_candidates = []
    offline_keys = set()
    for descriptor in media.scan_chunks():
        key = descriptor.ppa.chunk_key()
        if key not in data_keys:
            continue
        info = chunk_table.get(key)
        if descriptor.state is ChunkState.OFFLINE:
            info.state = FtlChunkState.BAD
            info.valid_count = 0
            offline_keys.add(key)
        elif descriptor.state is ChunkState.FREE:
            info.state = FtlChunkState.FREE
            info.valid_count = 0
            info.write_next = 0
        elif descriptor.state is ChunkState.CLOSED:
            info.state = FtlChunkState.FULL
            info.write_next = descriptor.capacity
        else:  # OPEN
            info.state = FtlChunkState.FULL  # provisional: close early
            info.write_next = descriptor.write_pointer
            if descriptor.write_pointer % geometry.ws_min == 0:
                open_candidates.append((key, descriptor.write_pointer))
            # A torn write unit leaves the pointer mid-unit: the chunk
            # cannot be resumed (programs start at unit boundaries), so
            # it stays closed early and GC reclaims it eventually.

    if offline_keys:
        # The checkpoint may predate a retirement: drop mappings into
        # chunks that ended up offline, mirroring the live policy of
        # zero-reads for data lost with its chunk.  Validity counts were
        # zeroed with the chunk above, so only the map needs cleaning.
        dropped = [lba for lba, linear in list(page_map.items())
                   if geometry.delinearize(linear).chunk_key()
                   in offline_keys]
        for lba in dropped:
            page_map.remove(lba)
        report.lost_lbas.extend(dropped)
    # Only mapped sectors keep an owner: OXBlock.recover ends with a
    # checkpoint, which drains the cache, so no dead sector needs guarding.
    page_map.own_mapped()

    provisioner = Provisioner(media, chunk_table)
    for key, write_pointer in open_candidates:
        provisioner.adopt_open_chunk(key, write_pointer, stream="user")

    report.duration = sim.now - started
    return RecoveredState(page_map=page_map, chunk_table=chunk_table,
                          provisioner=provisioner, report=report)


def _unit_txns_proc(media: MediaManager, journal: Journal,
                    chunk_table: ChunkTable, since: int,
                    report: RecoveryReport):
    """Process generator, once the log is folded: OX-Block's complete unit
    commits with ids from *since* on, as ``(txn_id, entries)``.  An open
    chunk is scanned; any other only if its first stamp is new.  A logged
    commit proves the acks of every id below it."""
    per_chunk = media.geometry.sectors_per_chunk
    chunks = [(key, chunk_table.get(key).linear * per_chunk, write_pointer,
               None if chunk_table.get(key).state is FtlChunkState.OPEN
               else 0)
              for key, write_pointer in written_chunks(media, chunk_table)]
    complete, found = yield from stamp_scan_proc(
        media, journal, chunks, since, journal.next_txn_id - 2, report)
    return [(txn, [(lba, linear, NO_PPA)
                   for linear, lba in found[txn].items()])
            for txn in complete]


def written_chunks(media: MediaManager, keys) -> List[Tuple[tuple, int]]:
    """``(key, write_pointer)`` of each chunk of *keys* that holds
    something and is not offline."""
    return [(info.ppa.chunk_key(), info.write_pointer)
            for info in media.scan_chunks() if info.write_pointer
            and info.ppa.chunk_key() in keys
            and info.state is not ChunkState.OFFLINE]


def stamp_scan_proc(media: MediaManager, journal: Journal, chunks,
                    since: int, proven: int, report: RecoveryReport):
    """Process generator: the commits an FTL's write units carry in their
    OOB stamps, ``(what, txn, count[, horizon])`` — *count* sectors in
    all, *what* the lba or page rows a sector holds.  *chunks* are
    ``(key, base, write_pointer, probe)``, read meta-only side by side:
    whole when *probe* is None, else only if the stamp at sector *probe*
    has an id from *since* on.  A txn is complete when all its sectors are
    found, or when a durable stamp proves its ack: a stamp's *horizon*,
    or its id less one where it carries none (writes that run one at a
    time), or *proven* reaches it.  Returns ``(complete, found)``: the
    complete ids ascending and ``{txn: {linear sector: what}}`` of every
    txn found, torn ones included; ``next_txn_id`` moves past the newest."""

    def stamps_proc(key, write_pointer, probe):
        reads = ((0, write_pointer),) if probe is None \
            else ((probe, 1), (0, write_pointer))
        for first, sectors in reads:
            completion = yield from media.read_proc(
                PpaRun(key, first, sectors), meta_only=True)
            stamps = [(first + sector, stamp)
                      for sector, stamp in enumerate(completion.oob or ())
                      if type(stamp) is tuple and stamp[1] >= since]
            if not stamps:
                break
        return stamps

    scans = yield from media.sim.join_proc(
        [stamps_proc(key, pointer, probe)
         for key, __, pointer, probe in chunks], "recovery-scan")
    found: dict = {}     # txn -> (count, {linear: what})
    newest = journal.next_txn_id - 1
    for (__, base, __p, __q), stamps in zip(chunks, scans):
        for sector, stamp in stamps:
            txn, count = stamp[1], stamp[2]
            newest = max(newest, txn)
            proven = max(proven, stamp[3] if len(stamp) > 3 else txn - 1)
            if count:
                found.setdefault(txn, (count, {}))[1][base + sector] = stamp[0]
    journal.next_txn_id = max(journal.next_txn_id, newest + 1)
    complete = sorted(txn for txn, (count, got) in found.items()
                      if len(got) == count or proven >= txn)
    report.unit_txns_applied = len(complete)
    report.unit_txns_torn = len(found) - len(complete)
    return complete, {txn: got for txn, (__, got) in found.items()}
