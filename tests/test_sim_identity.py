"""Sim-identity pins: the one file that holds the golden numbers.

Reclaim bookkeeping is host-side accounting: however it is kept, the
simulated timeline must not move.  Each scenario below runs a smoke-scale
reclaim loop and compares ``(sim.now, sim.events_processed)`` plus every
public counter of the layers involved against golden values captured on
the commit *before* incremental liveness accounting landed (c0a1c8d).  A
miscounted valid sector, a reordered victim or a dropped device command
changes at least one of them.  The mixed-shape scenario does the
same for foreground reads and writes of every shape (goldens from aaf8de2,
the commit before they moved onto one run-based lane each way).

Two rows pin planes that are opt-in and must cost nothing, in simulated
time, while off: ``perf_macro`` (the perf-trajectory macro bench lands
where the collector did before the planes existed) and ``lsm_default_fill`` (a LightLSM fill with every worker count
at 1 keeps the single-daemon engine's timeline, down to the digest of
the per-put latency series).  ``lsm_zns_scan`` and
``lsm_lightlsm_get`` pin the LSM data plane itself — flush, compaction,
scan and get over OX-ZNS and LightLSM — down to the bytes of every block
and meta blob written and every value delivered (goldens from ea53b43,
the commit before entries moved a decoded block at a time).

``metadata_greedy`` and ``metadata_eleos_llama`` pin the FTL metadata
plane's on-media format: a sha256 per writer (WAL, checkpoint) over every
sector it hands the media manager — payload and OOB tag, in write order —
during the ``greedy`` and ``eleos_llama`` scenarios (goldens from d55e796,
the commit before the record codec became one table).

A row moves only when a PR changes simulated behaviour on purpose:
regenerate with ``PYTHONPATH=src python tests/test_sim_identity.py`` in
the same commit and say why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import sys
import zlib

import pytest

from repro.nand.chip import FlashGeometry
from repro.ocssd.commands import VectorRead
from repro.ocssd.device import OpenChannelSSD
from repro.ocssd.geometry import DeviceGeometry
from repro.ox.media import MediaManager
from repro.stack import StackSpec, build_stack
from repro.units import KIB, MIB

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:   # run as a script, not under pytest
    sys.path.insert(0, REPO_ROOT)

from benchmarks.bench_perf_trajectory import MACRO, run_macro  # noqa: E402


def _run_eleos_llama_clean_loop(obs: bool = False):
    stack = build_stack(StackSpec(
        name="pin-eleos-llama", seed=3,
        geometry={"num_groups": 2, "pus_per_group": 2,
                  "chunks_per_pu": 24, "pages_per_block": 6},
        ftl="eleos",
        ftl_config={"buffer_bytes": 256 * KIB},
        llama={"consolidate_after": 4, "clean_live_ratio": 0.8,
               "cache_capacity": 20}, obs=obs))
    engine, ftl, sim = stack.engine, stack.ftl, stack.sim
    rng = random.Random(3)
    pages = 80
    for pid in range(pages):
        engine.replace(pid, bytes([65 + pid % 26]) * rng.randint(37, 9000))
    engine.flush()
    for __ in range(60):
        for __ in range(8):
            engine.update(rng.randrange(pages),
                          bytes([97 + rng.randrange(26)])
                          * rng.randint(16, 256))
        engine.flush()
        for __ in range(10):
            engine.read(rng.randrange(pages))
        engine.clean_once()
    return stack, {
        "now": sim.now, "events": sim.events_processed,
        "eleos": dataclasses.asdict(ftl.stats),
        "llama": dataclasses.asdict(engine.stats),
        # Which chunks each surviving segment took: pins the allocator's
        # round-robin order, not only how many it handed out.
        "segments_crc": zlib.crc32(
            repr(sorted(ftl.segments.items())).encode())}


def _eleos_llama_clean_loop():
    return _run_eleos_llama_clean_loop()[1]


def _run_zipf_overwrite_gc(obs: bool = False):
    stack = build_stack(StackSpec(
        name="pin-gc-zipf", seed=5,
        geometry={"num_groups": 2, "pus_per_group": 2,
                  "chunks_per_pu": 12, "pages_per_block": 6},
        ftl="oxblock",
        ftl_config={"gc_low_watermark": 6, "gc_high_watermark": 10},
        obs=obs))
    ftl, sim = stack.ftl, stack.sim
    geometry = stack.device.geometry
    unit = geometry.ws_min
    sector = geometry.sector_size
    span_units = int(ftl.provisioner.free_chunks()
                     * geometry.sectors_per_chunk * 0.75) // unit
    for index in range(span_units):
        ftl.write(index * unit, bytes([index % 251]) * (sector * unit))
    ftl.flush()
    rng = random.Random(5)
    for step in range(500):
        # Skewed overwrites (hot quarter takes 3 in 4), single-sector
        # reads and the occasional trim: dead, live and trimmed sectors
        # all reach the victim scan.
        hot = rng.random() < 0.75
        target = (rng.randrange(span_units // 4) if hot
                  else rng.randrange(span_units))
        draw = rng.random()
        if draw < 0.70:
            ftl.write(target * unit, bytes([step % 251]) * (sector * unit))
        elif draw < 0.95:
            ftl.read(target * unit + rng.randrange(unit), 1)
        else:
            ftl.trim(target * unit, unit)
    ftl.flush()
    return stack, {
        "now": sim.now, "events": sim.events_processed,
        "gc": dataclasses.asdict(ftl.gc.stats),
        "sectors_written": stack.device.controller.stats.sectors_written,
        "sectors_read": stack.device.controller.stats.sectors_read}


def _zipf_overwrite_gc():
    return _run_zipf_overwrite_gc()[1]


def _run_mixed_shapes(host: str, obs: bool = False):
    """Every foreground shape OX-Block serves, in one run: 1-unit, 2-unit,
    unaligned 5-sector and single-sector writes, 1- and 2..8-sector reads
    from any start (chunks hold two units, so they straddle unit and
    chunk boundaries), trims — bare, or behind the wlfc host whose
    evictions arrive as multi-unit unaligned transactions."""
    stack = build_stack(StackSpec(
        name="pin-mixed-shapes", seed=7,
        geometry={"num_groups": 2, "pus_per_group": 2,
                  "chunks_per_pu": 16, "pages_per_block": 12},
        ftl="oxblock",
        ftl_config={"gc_low_watermark": 6, "gc_high_watermark": 10},
        host=host, wlfc={"cache_sectors": 96} if host == "wlfc" else {},
        obs=obs))
    ftl, sim = stack.ftl, stack.sim
    front = stack.wlfc if host == "wlfc" else ftl
    geometry = stack.device.geometry
    unit = geometry.ws_min
    sector = geometry.sector_size
    span = int(ftl.provisioner.free_chunks()
               * geometry.sectors_per_chunk * 0.3) // unit * unit
    rng = random.Random(7)
    lba = 0
    while lba < span:
        units = min(rng.choice((1, 1, 2)), (span - lba) // unit)
        front.write(lba, bytes([lba % 251]) * (sector * unit * units))
        lba += unit * units
    front.flush()
    reads_crc = 0
    for step in range(600):
        draw = rng.random()
        fill = bytes([step % 251])
        if draw < 0.15:
            front.write(rng.randrange(span // unit) * unit,
                        fill * (sector * unit))
        elif draw < 0.25:
            front.write(rng.randrange(span // unit - 1) * unit,
                        fill * (sector * unit * 2))
        elif draw < 0.40:
            front.write(rng.randrange(span - 5), fill * (sector * 5))
        elif draw < 0.55:
            front.write(rng.randrange(span), fill * sector)
        elif draw < 0.75:
            reads_crc = zlib.crc32(front.read(rng.randrange(span), 1),
                                   reads_crc)
        elif draw < 0.97:
            count = rng.randint(2, 8)
            reads_crc = zlib.crc32(
                front.read(rng.randrange(span - count), count), reads_crc)
        else:
            front.trim(rng.randrange(span - 3), 3)
    front.flush()
    return stack, {
        "now": sim.now, "events": sim.events_processed,
        "block": dataclasses.asdict(ftl.stats),
        "gc": dataclasses.asdict(ftl.gc.stats),
        "sectors_written": stack.device.controller.stats.sectors_written,
        "sectors_read": stack.device.controller.stats.sectors_read,
        "reads_crc": reads_crc}


def _mixed_shapes(host: str):
    return _run_mixed_shapes(host)[1]


def _metadata_bytes(scenario, *args):
    """Run *scenario* hashing every WAL and checkpoint sector on its way
    to the media manager: the payload (a short tail zero-filled, as it
    reads back) and the OOB tag, per writer, in write order."""
    digests = {"wal": hashlib.sha256(), "ckpt": hashlib.sha256()}
    sectors = dict.fromkeys(digests, 0)
    write_proc = MediaManager.write_proc

    def hashed_write_proc(self, ppas, data, oob=None, **kwargs):
        kind = oob[0][0] if oob and isinstance(oob[0], tuple) else None
        if kind in digests:
            size = self.geometry.sector_size
            payload = bytes(data).ljust(len(oob) * size, b"\x00")
            assert len(payload) == len(oob) * size
            for index, tag in enumerate(oob):
                digests[kind].update(payload[index * size:(index + 1) * size])
                digests[kind].update(repr(tag).encode())
            sectors[kind] += len(oob)
        return write_proc(self, ppas, data, oob=oob, **kwargs)

    MediaManager.write_proc = hashed_write_proc
    try:
        scenario(*args)
    finally:
        MediaManager.write_proc = write_proc
    return {f"{kind}_{what}": value for kind in digests for what, value in
            (("sectors", sectors[kind]),
             ("sha256", digests[kind].hexdigest()[:16]))}


def _perf_macro():
    metrics = run_macro(MACRO)
    return {"sim_seconds": metrics["sim_seconds"],
            "events_processed": metrics["events_processed"]}


def _lsm_default_fill():
    stack = build_stack(StackSpec(
        name="pin-lsm-fill", ftl="lightlsm",
        geometry={"num_groups": 4, "pus_per_group": 2,
                  "chunks_per_pu": 80, "pages_per_block": 6},
        db={"block_size": 96 * KIB, "write_buffer_bytes": 1 * MIB,
            "l0_compaction_trigger": 2, "level_size_multiplier": 2},
        obs=True))
    bench = stack.dbbench()
    bench.fill_sequential(clients=4, ops_per_client=6000)
    bench.quiesce()
    samples = stack.obs.metrics.histogram("lsm.put.latency_s").samples()
    digest = hashlib.sha256(
        repr([round(x, 12) for x in samples]).encode()).hexdigest()[:16]
    stats = stack.db.stats
    return {"sim_seconds": round(stack.sim.now, 9),
            "events_processed": stack.sim.events_processed,
            "put_latency_digest": digest,
            "stall_seconds": round(stats.stall_seconds, 9),
            "slowdown_puts": stats.slowdown_puts,
            "flushes": stats.flushes,
            "compactions": stats.compactions}


def _hash_env_writes(env, digest) -> None:
    """Feed *digest* every data block and meta blob the engine hands to
    *env*, in hand-over order."""
    create = env.create_writer

    def create_writer(sstable_id, level, block_size):
        writer = create(sstable_id, level, block_size)
        append, finish = writer.append_block_proc, writer.finish_proc

        def append_block_proc(block):
            digest.update(block)
            return append(block)

        def finish_proc(meta_blob):
            digest.update(meta_blob)
            return finish(meta_blob)

        writer.append_block_proc = append_block_proc
        writer.finish_proc = finish_proc
        return writer

    env.create_writer = create_writer


def _lsm_row(stack, written, delivered) -> dict:
    stats = stack.db.stats
    return {"sim_seconds": round(stack.sim.now, 9),
            "events_processed": stack.sim.events_processed,
            "written_sha256": written.hexdigest()[:16],
            "delivered_sha256": delivered.hexdigest()[:16],
            "blocks_read": stats.blocks_read,
            "tables_written": stats.tables_written,
            "flushes": stats.flushes,
            "compactions": stats.compactions}


def _run_all(sim, procs) -> None:
    sim.run_until(sim.all_of([sim.spawn(proc) for proc in procs]))


def _lsm_key(index: int) -> bytes:
    return f"{index:016d}".encode()


def _lsm_zns_scan():
    """The LSM data plane over OX-ZNS: random-key puts and deletes from
    four clients, then limited scans beside overwrites, a quiesce and one
    unlimited scan.  Value sizes vary, so entries straddle block
    boundaries at every offset.  The scans beside the overwrites see a
    state that moves with the sim clock; the unlimited one must deliver
    exactly ``model``, updated as each put/delete returns (a put returns
    right after its memtable insert, so return order is write order)."""
    stack = build_stack(StackSpec(
        name="pin-lsm-zns-scan", seed=11, ftl="zns",
        geometry={"num_groups": 4, "pus_per_group": 2,
                  "chunks_per_pu": 80, "pages_per_block": 6},
        ftl_config={"chunks_per_zone": 4, "max_open_zones": 16},
        db={"block_size": 96 * KIB, "write_buffer_bytes": 512 * KIB,
            "l0_compaction_trigger": 2, "level_size_multiplier": 2}))
    db, sim = stack.db, stack.sim
    written, delivered = hashlib.sha256(), hashlib.sha256()
    _hash_env_writes(stack.env, written)
    key_space = 3000
    model, scanned = {}, []

    def writer(name: str, ops: int, think: float = 0.0):
        rng = random.Random(f"zns-scan-{name}")
        for __ in range(ops):
            if think:
                yield sim.timeout(think)
            key = _lsm_key(rng.randrange(key_space))
            if rng.random() < 0.06:
                yield from db.delete_proc(key)
                model.pop(key, None)
            else:
                value = bytes([33 + rng.randrange(90)]) \
                    * rng.randint(100, 1400)
                yield from db.put_proc(key, value)
                model[key] = value

    def on_entry(key: bytes, value: bytes) -> None:
        delivered.update(key)
        delivered.update(value)
        scanned.append((key, value))

    def scanner(limit: int):
        for __ in range(2):
            count = yield from db.scan_proc(limit, on_entry)
            delivered.update(b"|%d|" % count)

    _run_all(sim, [writer(f"fill-{client}", 2500) for client in range(4)])
    _run_all(sim, [scanner(700), scanner(1100),
         writer("over-0", 900, think=25e-6),
         writer("over-1", 900, think=25e-6)])
    stack.dbbench().quiesce()
    del scanned[:]
    _run_all(sim, [scanner(0)])
    assert scanned == sorted(model.items()) * 2
    zones = stack.ftl.stats
    return {**_lsm_row(stack, written, delivered),
            "zones_finished": zones.zones_finished,
            "zone_resets": zones.zone_resets}


def _lsm_lightlsm_get():
    """The same plane over LightLSM, point reads: four clients overwrite
    one key sequence (every fourth key deleted again), then random gets
    over present, deleted and never-written keys, each checked against
    ``model``, updated as each put/delete returns (return order is write
    order, as in ``lsm_zns_scan``)."""
    stack = build_stack(StackSpec(
        name="pin-lsm-lightlsm-get", seed=13, ftl="lightlsm",
        geometry={"num_groups": 4, "pus_per_group": 2,
                  "chunks_per_pu": 80, "pages_per_block": 6},
        db={"block_size": 96 * KIB, "write_buffer_bytes": 1 * MIB,
            "l0_compaction_trigger": 2, "level_size_multiplier": 2}))
    db, sim = stack.db, stack.sim
    written, delivered = hashlib.sha256(), hashlib.sha256()
    _hash_env_writes(stack.env, written)
    keys = 3000
    model = {}

    def filler(client: int):
        rng = random.Random(f"lightlsm-get-fill-{client}")
        for index in range(keys):
            key = _lsm_key(index)
            value = bytes([65 + client]) * rng.randint(300, 1500)
            yield from db.put_proc(key, value)
            model[key] = value
            if index % 4 == client:
                key = _lsm_key(index - client)
                yield from db.delete_proc(key)
                model.pop(key, None)

    def reader(client: int):
        rng = random.Random(f"lightlsm-get-read-{client}")
        for __ in range(400):
            key = _lsm_key(rng.randrange(keys + keys // 8))
            value = yield from db.get_proc(key)
            assert value == model.get(key)
            delivered.update(key)
            delivered.update(b"-" if value is None else value)

    _run_all(sim, [filler(client) for client in range(4)])
    stack.dbbench().quiesce()
    _run_all(sim, [reader(client) for client in range(4)])
    return _lsm_row(stack, written, delivered)


# Captured by `PYTHONPATH=src python tests/test_sim_identity.py`; CHANGES.md
# names every row regenerated since, with its old values.
GOLDEN = {
 # LLAMA over OX-ELEOS (0.46069335937499023 s until a run placed
 # each page inside as few sense groups as it spans).
 'eleos_llama': {'now': 0.4548800781249898,
                 'events': 4688,
                 'eleos': {'buffers_appended': 85,
                           'pages_appended': 670,
                           'bytes_appended': 3424005,
                           'pages_read': 817,
                           'segments_freed': 58,
                           'checkpoints': 11,
                           'chunks_retired': 0},
                 'llama': {'updates': 560,
                           'reads': 600,
                           'cache_misses': 412,
                           'flushes': 61,
                           'pages_flushed': 544,
                           'consolidations': 86,
                           'segments_cleaned': 58,
                           'pages_relocated': 126},
                 'segments_crc': 4247090977},
 'greedy': {'now': 2.6745269531249143,
            'events': 8520,
            'gc': {'chunks_recycled': 329,
                   'sectors_relocated': 7224,
                   'resets': 329,
                   'reset_failures': 0,
                   'group_rotations': 245,
                   'skips_no_space': 4,
                   'deferrals_unsafe': 0},
            'sectors_written': 19416,
            'sectors_read': 7329},
 # The two mixed-shape rows (every foreground read/write shape).
 'mixed_none': {'now': 1.9166406250000099,
                'events': 8603,
                'block': {'writes': 390,
                          'reads': 237,
                          'trims': 20,
                          'sectors_written': 7573,
                          'sectors_read': 727,
                          'checkpoints': 18,
                          'forced_checkpoints': 17,
                          'chunks_retired': 0,
                          'sectors_lost': 0},
                'gc': {'chunks_recycled': 53,
                       'sectors_relocated': 587,
                       'resets': 53,
                       'reset_failures': 0,
                       'group_rotations': 1,
                       'skips_no_space': 1,
                       'deferrals_unsafe': 0},
                'sectors_written': 17592,
                'sectors_read': 1705,
                'reads_crc': 1595401565},
 'mixed_wlfc': {'now': 2.1573730468749823,
                'events': 8010,
                'block': {'writes': 455,
                          'reads': 223,
                          'trims': 20,
                          'sectors_written': 7158,
                          'sectors_read': 684,
                          'checkpoints': 22,
                          'forced_checkpoints': 21,
                          'chunks_retired': 0,
                          'sectors_lost': 0},
                'gc': {'chunks_recycled': 45,
                       'sectors_relocated': 497,
                       'resets': 45,
                       'reset_failures': 0,
                       'group_rotations': 1,
                       'skips_no_space': 1,
                       'deferrals_unsafe': 0},
                'sectors_written': 19152,
                'sectors_read': 1446,
                'reads_crc': 1595401565},
 'metadata_greedy': {'wal_sectors': 2016,
                     'wal_sha256': 'cbfc3fbe1ac70d9c',
                     'ckpt_sectors': 216,
                     'ckpt_sha256': '3d4ca9fdef8a7079'},
 # The metadata plane's on-media bytes (metadata_eleos_llama: 3432 WAL
 # sectors until SEGMENT_FREE stopped paying for a flush of its own, 2040
 # until an append stopped logging at all: its ring stays empty; checkpoint
 # sha '0b97621b92d5ba09' until vmap rows held sense-aligned offsets).
 'metadata_eleos_llama': {'wal_sectors': 0,
                          'wal_sha256': 'e3b0c44298fc1c14',
                          'ckpt_sectors': 264,
                          'ckpt_sha256': 'd56a139d18278758'},
 # The default policies' perf_macro fingerprint (7.906991 s / 80150 events
 # until its checkpoints' slot chunks were erased and written side by side).
 'perf_macro': {'sim_seconds': 5.673047, 'events_processed': 70503},
 # The single-daemon LSM engine (0.60142025 s / 27861 events, 96
 # slowdown puts and 13 compactions from before the concurrency plane
 # until compactions read each input at its table's width and a LightLSM
 # table committed in its meta's last unit; 0.39976075 s / 27498 events,
 # 0 slowdown puts and 15 compactions until a table's durability barrier
 # waited only for its own chunks' earlier writes; 0.34803575 s / 27284
 # events, digest '70b2b37f94c2bfff', 0.901337 s stalled, 4 slowdown puts
 # and 14 compactions until a table kept one block write in flight per
 # channel and erased its chunks in one join; 0.3690895 s / 28281 events,
 # digest '258f3ab98286e1a4', 0.880752 s stalled until horizontal
 # placement walked the PUs channel-first; 28228 events until a LightLSM
 # block write waited for the previous write on its channel, not for the
 # oldest write in a full window).
 'lsm_default_fill': {'sim_seconds': 0.367636375,
                      'events_processed': 28167,
                      'put_latency_digest': '06a12fe92663b2c3',
                      'stall_seconds': 0.8749395,
                      'slowdown_puts': 0,
                      'flushes': 24,
                      'compactions': 16},
 # The LSM data plane before it went block-wise (captured at ea53b43;
 # lsm_zns_scan again when a table began to keep one append in flight per
 # zone of a stripe across groups and a scan to open its tables side by
 # side, 0.40304425 s / 27154 events, written '692ae5a2ae3947f3',
 # delivered 'd30db72c990e7c5c', 32 tables and 8 compactions before:
 # table boundaries follow the clock, so both digests moved and the final
 # scan's check against the model still holds; again when a zone's chunks
 # began to be erased together,
 # 0.79943225 s before, when zone ids began to rotate groups and a
 # table's zones to be reset together, 0.78943225 s / 27465 events
 # before, and when compactions began to read a zone wide, 0.46361175 s /
 # 26927 events before: its scans beside overwrites see a state that
 # moves with the clock, the final one is checked against the put/delete
 # model; 0.4436535 s / 27330 events, 34 tables and 9 compactions until
 # zone finish, zone reset and table flush waited only for their own
 # chunks' earlier writes; 0.370386125 s / 28489 events, written
 # '1732e8ac898de2ab', delivered 'f3f75b4e005e5e67', 118 zones finished
 # and 104 reset until a committed table left its partly written zones to
 # the next table of its level: the clock moves where tables land, the
 # final scan still matches the model, and a return to finishing shows
 # in zones_finished).
 'lsm_zns_scan': {'sim_seconds': 0.280249625,
                  'events_processed': 27712,
                  'written_sha256': '066c408112fe6940',
                  'delivered_sha256': '2872107af5d9f784',
                  'blocks_read': 0,
                  'tables_written': 30,
                  'flushes': 17,
                  'compactions': 7,
                  'zones_finished': 0,
                  'zone_resets': 22},
 # lsm_lightlsm_get: 0.394306875 s / 20844 events, 17 tables and 6
 # compactions until the width-wide compaction reads and the one-unit
 # commit; 0.293477 s / 20506 events until the chunk-scoped table
 # barrier; 0.285602 s / 20482 events, written 'b5727ee6f0a906bb',
 # delivered 'bd801945e12144b2', 1081 blocks read, 15 tables and 4
 # compactions until a table's block writes and erases went side by side
 # (the delivered digest moves with the order clients return in);
 # 0.307098625 s / 21074 events, written 'fca43fd14a50fd6d', delivered
 # '9ec5370d7c596f5b' until horizontal placement walked the PUs
 # channel-first; 21020 events until a block write waited for the
 # previous write on its channel.  Every get is checked against the
 # put/delete model.
 'lsm_lightlsm_get': {'sim_seconds': 0.30108975,
                      'events_processed': 21002,
                      'written_sha256': '2d74d4aef775bc66',
                      'delivered_sha256': 'be097736f07eb43a',
                      'blocks_read': 1046,
                      'tables_written': 17,
                      'flushes': 10,
                      'compactions': 6}}


def test_eleos_llama_clean_loop_is_sim_identical():
    assert _eleos_llama_clean_loop() == GOLDEN["eleos_llama"]


def test_zipf_overwrite_gc_is_sim_identical():
    assert _zipf_overwrite_gc() == GOLDEN["greedy"]


def test_gc_scenario_builds_no_per_sector_addresses(monkeypatch):
    """A deterministic cost pin (counts, not clocks): ``Ppa`` objects
    constructed per host write over the greedy scenario above.  146.7
    while every vector was one ``Ppa`` per sector (c4f051a); 4.63 once
    addresses travelled as runs; 3.65 now that a victim (and a WAL ring
    chunk) shares one ``Ppa(*key, 0)`` between its chunk-info probe and
    its reset — what is left is that, and the victim scan's
    ``delinearize`` per superseding chunk.  The bound may only go down
    without a CHANGES note."""
    from repro.ocssd.address import Ppa
    from repro.ox.block import OXBlock
    made, writes = [], []
    new, write = Ppa.__new__, OXBlock.write
    monkeypatch.setattr(Ppa, "__new__", lambda cls, *args, **kwargs: (
        made.append(1), new(cls, *args, **kwargs))[1])
    monkeypatch.setattr(OXBlock, "write", lambda self, lba, data: (
        writes.append(1), write(self, lba, data))[1])
    assert _zipf_overwrite_gc() == GOLDEN["greedy"]
    assert len(made) / len(writes) <= 5.0


@pytest.mark.parametrize("host", ["none", "wlfc"])
def test_mixed_shapes_are_sim_identical(host):
    assert _mixed_shapes(host) == GOLDEN[f"mixed_{host}"]


def test_metadata_plane_writes_the_same_bytes():
    assert _metadata_bytes(_zipf_overwrite_gc) \
        == GOLDEN["metadata_greedy"]
    assert _metadata_bytes(_eleos_llama_clean_loop) \
        == GOLDEN["metadata_eleos_llama"]


def test_default_policies_keep_the_perf_macro_timeline():
    assert _perf_macro() == GOLDEN["perf_macro"]


def test_default_worker_counts_keep_the_lsm_fill_timeline():
    assert _lsm_default_fill() == GOLDEN["lsm_default_fill"]


def test_block_wise_lsm_data_plane_is_sim_and_byte_identical():
    assert _lsm_zns_scan() == GOLDEN["lsm_zns_scan"]
    assert _lsm_lightlsm_get() == GOLDEN["lsm_lightlsm_get"]


@pytest.mark.parametrize("host", ["none", "wlfc"])
def test_obs_rides_the_same_read_lane(host, monkeypatch):
    """obs attached or not, foreground reads execute the same code: same
    bytes, same timeline, and one ``ocssd``/``read`` root span per device
    read command the untraced run issued."""
    device_reads = []
    lane, submit = OpenChannelSSD.read_sectors_proc, OpenChannelSSD.submit

    def counted_lane(self, linears, **kwargs):
        device_reads.append(len(linears))
        return lane(self, linears, **kwargs)

    def counted_submit(self, command, parent=None):
        if isinstance(command, VectorRead):    # reads beside the lane
            device_reads.append(len(command.ppas))
        return submit(self, command, parent=parent)

    monkeypatch.setattr(OpenChannelSSD, "read_sectors_proc", counted_lane)
    monkeypatch.setattr(OpenChannelSSD, "submit", counted_submit)
    __, plain = _run_mixed_shapes(host)
    issued = len(device_reads)
    stack, traced = _run_mixed_shapes(host, obs=True)
    assert traced == plain == GOLDEN[f"mixed_{host}"]
    spans = [span for span in stack.obs.tracer.spans
             if (span.layer, span.name) == ("ocssd", "read")]
    assert len(spans) == issued
    assert stack.obs.metrics.histogram(
        "ocssd.read.latency_s").count == issued


#: What each traced reclaim scenario must show, as ``(layer, name)``.
TRACED = {
    "eleos_llama": (_run_eleos_llama_clean_loop, (), {
        ("ftl", "append"), ("ftl", "read"), ("ftl", "free"),
        ("ftl", "checkpoint"), ("ftl", "erase"), ("llama", "flush"),
        ("llama", "read"), ("llama", "clean"), ("llama", "fetch")}),
    "greedy": (_run_zipf_overwrite_gc, (), {
        ("ftl", "checkpoint"), ("ftl.wal", "truncate"),
        ("ftl.gc", "collect"), ("ftl.gc", "copy"),
        ("ftl.gc", "flush"), ("ftl.gc", "reset")}),
}


@pytest.mark.parametrize("row", list(TRACED))
def test_reclaim_spans_ride_the_same_timeline(row):
    """The reclaim paths open spans (LLAMA over OX-ELEOS; the GC round's
    phases; checkpoint and WAL truncation) on the lines they run
    untraced: obs on, the row is its golden one, and the spans nest and
    add up.  The round's phases and the truncation's erases run side by
    side, OX-ELEOS's erases outlive the frees that issued them, and no
    row's critical-path time goes negative."""
    from repro.obs import attribute, validate_nesting
    run, args, wanted = TRACED[row]
    stack, traced = run(*args, obs=True)
    assert traced == GOLDEN[row]
    spans = stack.obs.tracer.spans
    assert validate_nesting(spans) == []
    table = attribute(spans)
    assert table.consistent and not stack.obs.tracer.dropped
    assert wanted <= set(table.names)
    # OX-ELEOS commits in its stamps: nothing of it touches the ring.
    assert row != "eleos_llama" or not any(
        layer == "ftl.wal" for layer, __ in table.names)
    _assert_no_negative_rows(table)
    # The GC round's phases are children of its collect span; the device
    # flush and the resets run under whatever carried its commit (a write
    # or a checkpoint; a flush, or a round that found every group stuck,
    # has no span).
    by_id = {span.span_id: span for span in spans}
    carriers = {None, ("ftl", "write"), ("ftl", "checkpoint")}
    for span in spans:
        if span.layer == "ftl.gc" and span.name != "collect":
            parent = by_id.get(span.parent_id)
            where = parent and (parent.layer, parent.name)
            assert where in (carriers if span.name in ("flush", "reset")
                             else {("ftl.gc", "collect")})
    # Every OX-ELEOS page read runs under the LLAMA call that needs it:
    # a read, a clean, or the fetch of an update to an uncached page.
    reads = [span for span in spans if row == "eleos_llama"
             and (span.layer, span.name) == ("ftl", "read")]
    assert all(span.parent_id is not None
               and by_id[span.parent_id].layer == "llama" for span in reads)
    # An OX-ELEOS erase is a root of its own: it starts as its free ends
    # and runs on after it.
    frees = {span.end for span in spans
             if (span.layer, span.name) == ("ftl", "free")}
    erases = [span for span in spans
              if (span.layer, span.name) == ("ftl", "erase")]
    assert bool(erases) == (row == "eleos_llama")
    assert all(span.parent_id is None and span.start in frees
               and (span.end is None or span.end > span.start)
               for span in erases)


def _assert_no_negative_rows(table) -> None:
    rows = {**table.layers, **table.names}
    assert {key: row.exclusive for key, row in rows.items()
            if row.exclusive < 0} == {}


def test_a_zone_reset_join_splits_along_its_critical_path():
    """An OX-ZNS table delete resets its zones in one ``sim.join_proc``,
    and each zone's chunk erases run side by side: the erases overlap
    inside every ``zns/reset`` span, and the fold charges none of them
    twice."""
    from repro.obs import Obs, attribute
    from repro.lsm.znsenv import ZnsEnv
    from repro.zns import OXZns, ZnsConfig
    device = OpenChannelSSD(geometry=DeviceGeometry(
        num_groups=4, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6)))
    obs = Obs().attach(device)
    zns = OXZns(MediaManager(device),
                ZnsConfig(chunks_per_zone=4, max_open_zones=16))
    env, sim = ZnsEnv(zns), device.sim
    block = zns.zone_capacity * env.sector_size

    def write_proc():
        writer = env.create_writer(1, 0, block)
        for index in range(3):
            yield from writer.append_block_proc(bytes([index]) * block)
        return (yield from writer.finish_proc(b"meta"))

    handle = sim.run_until(sim.spawn(write_proc()))
    first = len(obs.tracer.spans)
    sim.run_until(sim.spawn(env.delete_table_proc(handle)))
    spans = obs.tracer.spans[first:]
    resets = [span for span in spans if (span.layer, span.name)
              == ("zns", "reset")]
    assert len(resets) == 4
    # The zones' resets overlap each other, and inside each the erases do.
    assert max(span.start for span in resets) \
        < min(span.end for span in resets)
    table = attribute(spans)
    erases = table.names["ocssd", "reset"]
    assert erases.total > sum(span.duration for span in resets)
    assert table.consistent and not obs.tracer.dropped
    _assert_no_negative_rows(table)


if __name__ == "__main__":   # regenerate: PYTHONPATH=src python tests/test_sim_identity.py
    import pprint
    golden = {"eleos_llama": _eleos_llama_clean_loop()}
    golden["greedy"] = _zipf_overwrite_gc()
    for host in ("none", "wlfc"):
        golden[f"mixed_{host}"] = _mixed_shapes(host)
    golden["metadata_greedy"] = _metadata_bytes(_zipf_overwrite_gc)
    golden["metadata_eleos_llama"] = _metadata_bytes(_eleos_llama_clean_loop)
    golden["perf_macro"] = _perf_macro()
    golden["lsm_default_fill"] = _lsm_default_fill()
    golden["lsm_zns_scan"] = _lsm_zns_scan()
    golden["lsm_lightlsm_get"] = _lsm_lightlsm_get()
    pprint.pprint(golden, sort_dicts=False, width=78)
