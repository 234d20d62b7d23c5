"""The ledger's six closed-loop workloads, one per FTL personality.

Every workload is a :class:`Workload`: a :class:`StackSpec`, an input
generator driven only by ``--seed``, a set-up step (prefill), and a
timed phase that drives the stack through its public API while a shadow
model checks the bytes of every read.  Inputs are generated before the
clock starts; the stack only ever sees the generated inputs.

The harness sits *outside* ``src/repro``: latency samples are
``sim.now`` after minus before each public call, failures are counted
here, and nothing in the library knows it is being measured.

Why these six, and what each is meant to move, is in README.md (the
workload rationale and the interaction table) and, in one line each, in
``BENCHMARK.json``.
"""

from __future__ import annotations

import random
import time
from time import perf_counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.benchhelpers import evaluation_spec
from repro.errors import ReproError
from repro.stack import Stack, StackSpec
from repro.units import KIB, MIB
from repro.workloads import ZipfianKeyChooser, derive_stream_seed

@dataclass
class Tally:
    """What the harness observed during one timed phase."""

    read_lat: List[float] = field(default_factory=list)    # sim seconds
    write_lat: List[float] = field(default_factory=list)   # sim seconds
    #: Host clock beside every latency sample, in the order taken: the
    #: simulation replays one (workload, seed) op for op, so stamp *k* is
    #: the same point of the run in every child (run.py ``segments``).
    stamps: List[float] = field(default_factory=list)
    attempted: int = 0
    raised: int = 0
    mismatched: int = 0
    payload_bytes: int = 0     # host payload written (the WAF denominator)
    #: phase name -> (host ops, wall seconds); phased workloads only.
    phases: Dict[str, Tuple[int, float]] = field(default_factory=dict)


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(derive_stream_seed(seed, stream))


def _scaled(scale: str, full: int, smoke: int) -> int:
    return full if scale == "full" else smoke


class BlockPattern:
    """Checkable payloads for the LBA workloads.

    Sector ``lba`` of a unit last written at version ``v`` holds a
    4-byte tag, repeated: ``((unit + v) % K) * ws_min + lba % ws_min``.
    A stale version, a neighbouring unit and a shifted sector all read
    back as a different tag.  Payloads are slices of one ring buffer,
    memoised, so the device's zero-copy chunk store keeps references to
    at most ``K`` objects per size instead of one copy per write.
    """

    K = 16
    #: Largest transaction, in units; the ring repeats its head this far
    #: so a payload or a read run that wraps past slot K-1 is one slice.
    MAX_UNITS = 2

    def __init__(self, unit: int, sector_size: int):
        self.unit = unit
        self.sector_size = sector_size
        tags = [(k % self.K) * unit + j
                for k in range(self.K + self.MAX_UNITS)
                for j in range(unit)]
        self.sectors = [tag.to_bytes(4, "little") * (sector_size // 4)
                        for tag in tags[:self.K * unit]]
        self.ring = b"".join(self.sectors[tag] for tag in tags)
        self._payloads: Dict[Tuple[int, int], bytes] = {}

    def payload(self, unit_index: int, version: int, units: int = 1) -> bytes:
        slot = (unit_index + version) % self.K
        memo = self._payloads.get((slot, units))
        if memo is None:
            size = self.unit * self.sector_size
            memo = self.ring[slot * size:(slot + units) * size]
            self._payloads[(slot, units)] = memo
        return memo

    def sector(self, lba: int, version: int) -> bytes:
        slot = (lba // self.unit + version) % self.K
        return self.sectors[slot * self.unit + lba % self.unit]

    def run(self, lba: int, sectors: int) -> bytes:
        """*sectors* consecutive version-0 sectors starting at *lba*."""
        start = ((lba // self.unit) % self.K) * self.unit + lba % self.unit
        return self.ring[start * self.sector_size:
                         (start + sectors) * self.sector_size]


#: 251 one-KiB-plus value bodies; a K/V value is a prefix of one of them.
VALUE_SLOTS = 251
VALUE_MAX = 1536


def _value_bodies() -> List[bytes]:
    return [slot.to_bytes(2, "little") * (VALUE_MAX // 2)
            for slot in range(VALUE_SLOTS)]


def _key(index: int) -> bytes:
    return b"%016d" % index


@dataclass
class Workload:
    name: str
    spec: Callable[[int, bool], StackSpec]
    #: (stack, seed, scale) -> plan; generates the inputs from the seed
    #: (``plan["inputs"]``, what the seed decides) and prefills.
    prepare: Callable[[Stack, int, str], dict]
    #: (stack, plan, tally) -> None; the timed phase.
    run: Callable[[Stack, dict, Tally], None]


# -- 1. oxblock_fill_read --------------------------------------------------------

def _fill_read_spec(seed: int, obs: bool) -> StackSpec:
    # wal 32 / ckpt 32: the perf_macro values (16/4) cannot checkpoint a
    # map of this size ("checkpoint needs 216 sectors").
    return StackSpec(
        name="oxblock_fill_read", seed=seed, obs=obs,
        geometry={"num_groups": 8, "pus_per_group": 4,
                  "chunks_per_pu": 128, "pages_per_block": 6},
        ftl="oxblock",
        ftl_config={"wal_chunk_count": 32, "ckpt_chunks_per_slot": 32},
        tenants=[{"name": "bench"}])


def _fill_read_prepare(stack: Stack, seed: int, scale: str) -> dict:
    # One tenant, no rate cap: every command pays the qos scheduler path.
    stack.media.tenant = stack.tenant("bench")
    geometry = stack.device.geometry
    unit = geometry.ws_min
    fill_units = _scaled(scale, 2_700, 120)
    read_ops = _scaled(scale, 68_000, 2_000)
    rng = _rng(seed, "oxblock_fill_read")
    # Sequential fill; four in five transactions are one write unit (the
    # fused whole-unit staging path), the rest two units (the general
    # path).  The mix is drawn from the seed.
    writes: List[Tuple[int, int]] = []
    cursor = 0
    while cursor < fill_units:
        units = 1 if rng.random() < 0.8 else 2
        writes.append((cursor, units))
        cursor += units
    span = cursor * unit
    # Uniform reads; three in four are single-sector (the fused read
    # lane), the rest 2..8 sectors (the vector path).
    reads: List[Tuple[int, int]] = []
    for __ in range(read_ops):
        sectors = 1 if rng.random() < 0.75 else rng.randint(2, 8)
        reads.append((rng.randrange(span - sectors + 1), sectors))
    return {"inputs": (writes, reads),
            "pattern": BlockPattern(unit, geometry.sector_size)}


def _fill_read_run(stack: Stack, plan: dict, tally: Tally) -> None:
    ftl, sim = stack.ftl, stack.sim
    writes, reads = plan["inputs"]
    pattern: BlockPattern = plan["pattern"]
    unit = pattern.unit
    write_lat, read_lat = tally.write_lat, tally.read_lat
    stamps = tally.stamps
    started = time.perf_counter()
    for unit_index, units in writes:
        before = sim.now
        try:
            ftl.write(unit_index * unit,
                      pattern.payload(unit_index, 0, units))
        except ReproError:
            tally.raised += 1
        write_lat.append(sim.now - before)
        stamps.append(perf_counter())
        tally.payload_bytes += units * unit * pattern.sector_size
    ftl.flush()
    middle = time.perf_counter()
    for lba, sectors in reads:
        before = sim.now
        try:
            data = ftl.read(lba, sectors)
        except ReproError:
            tally.raised += 1
        else:
            if data != pattern.run(lba, sectors):
                tally.mismatched += 1
        read_lat.append(sim.now - before)
        stamps.append(perf_counter())
    ended = time.perf_counter()
    tally.attempted = len(writes) + len(reads)
    tally.phases = {"fill": (len(writes), middle - started),
                    "read": (len(reads), ended - middle)}


# -- 2/3. oxblock_gc_zipf and wlfc_zipf_overwrite --------------------------------

def _zipf_spec(name: str, host: str) -> Callable[[int, bool], StackSpec]:
    def spec(seed: int, obs: bool) -> StackSpec:
        # bench_policy_ablation.py's device and watermarks with twice the
        # chunks: small enough that every overwrite pays for reclamation,
        # but at 8 chunks per PU foreground reclaim is cornered
        # (OutOfSpaceError) after ~4 900 overwrites at 80 % full.
        return StackSpec(
            name=name, seed=seed, obs=obs,
            geometry={"num_groups": 4, "pus_per_group": 2,
                      "chunks_per_pu": 16, "pages_per_block": 6},
            ftl="oxblock",
            ftl_config={"gc_low_watermark": 8, "gc_high_watermark": 14},
            gc_policy="greedy", host=host,
            wlfc={"cache_sectors": 512} if host == "wlfc" else {})
    return spec


def _zipf_prepare(stack: Stack, seed: int, scale: str) -> dict:
    ftl = stack.ftl
    surface = stack.wlfc if stack.wlfc is not None else ftl
    geometry = stack.device.geometry
    unit = geometry.ws_min
    data_sectors = (ftl.provisioner.free_chunks()
                    * geometry.sectors_per_chunk)
    span_units = int(data_sectors * 0.80) // unit
    pattern = BlockPattern(unit, geometry.sector_size)
    for index in range(span_units):
        surface.write(index * unit, pattern.payload(index, 0))
    surface.flush()
    # One stream name for both workloads: the two rows run byte-for-byte
    # the same ops, so only the host layer differs between them.
    ops_count = _scaled(scale, 7_000, 400)
    zipf = ZipfianKeyChooser(span_units, theta=0.99, seed=seed,
                             stream="zipf_overwrite")
    rng = _rng(seed, "zipf_overwrite.mix")
    ops: List[Tuple[bool, int]] = []
    for __ in range(ops_count):
        target = zipf.next()
        if rng.random() < 0.70:
            ops.append((True, target))
        else:
            ops.append((False, target * unit + rng.randrange(unit)))
    return {"inputs": ops, "pattern": pattern, "surface": surface,
            "versions": [0] * span_units}


def _zipf_run(stack: Stack, plan: dict, tally: Tally) -> None:
    sim = stack.sim
    surface = plan["surface"]
    pattern: BlockPattern = plan["pattern"]
    versions: List[int] = plan["versions"]
    unit = pattern.unit
    unit_bytes = unit * pattern.sector_size
    write_lat, read_lat = tally.write_lat, tally.read_lat
    stamps = tally.stamps
    for is_write, target in plan["inputs"]:
        before = sim.now
        try:
            if is_write:
                version = versions[target] + 1
                surface.write(target * unit,
                              pattern.payload(target, version))
                versions[target] = version
                tally.payload_bytes += unit_bytes
            elif surface.read(target, 1) != pattern.sector(
                    target, versions[target // unit]):
                tally.mismatched += 1
        except ReproError:
            tally.raised += 1
        (write_lat if is_write else read_lat).append(sim.now - before)
        stamps.append(perf_counter())
    surface.flush()
    tally.attempted = len(plan["inputs"])


# -- 4. lightlsm_dbbench ----------------------------------------------------------

DB_CONFIG = {"block_size": 96 * KIB, "write_buffer_bytes": 4 * MIB}
CLIENTS = 4


def _lightlsm_spec(seed: int, obs: bool) -> StackSpec:
    return evaluation_spec(name="lightlsm_dbbench", seed=seed, obs=obs,
                           ftl="lightlsm", placement="horizontal",
                           db=dict(DB_CONFIG))


def _lightlsm_prepare(stack: Stack, seed: int, scale: str) -> dict:
    puts = _scaled(scale, 60_000, 1_500)
    gets = _scaled(scale, 1_500, 150)
    rng = _rng(seed, "lightlsm_dbbench")
    # Value sizes come from the seed (mean 1 KiB), so memtable rotations
    # and table boundaries move with it.
    sizes = [rng.randint(512, VALUE_MAX) for __ in range(puts)]
    lookups = []
    for client in range(CLIENTS):
        client_rng = _rng(seed, f"lightlsm_dbbench.get{client}")
        lookups.append([client_rng.randrange(puts) for __ in range(gets)])
    return {"inputs": (sizes, lookups),
            "keys": [_key(i) for i in range(puts)],
            "bodies": _value_bodies()}


def _run_clients(stack: Stack, clients) -> None:
    sim = stack.sim
    sim.run_until(sim.all_of([sim.spawn(client, name=f"ledger-{index}")
                              for index, client in enumerate(clients)]))


def _lightlsm_run(stack: Stack, plan: dict, tally: Tally) -> None:
    db, sim = stack.db, stack.sim
    sizes, lookups = plan["inputs"]
    keys, bodies = plan["keys"], plan["bodies"]
    write_lat, read_lat = tally.write_lat, tally.read_lat
    stamps = tally.stamps

    def value(index: int) -> bytes:
        return bodies[index % VALUE_SLOTS][:sizes[index]]

    def filler(client: int):
        # db_bench fill-sequential: every client writes the same key
        # sequence, so compaction has duplicates to drop.
        stream = f"fill-{client}"
        for index, key in enumerate(keys):
            before = sim.now
            try:
                yield from db.put_proc(key, value(index), stream=stream)
            except ReproError:
                tally.raised += 1
            write_lat.append(sim.now - before)
            stamps.append(perf_counter())

    def reader(client: int):
        stream = f"readrand-{client}"
        for index in lookups[client]:
            before = sim.now
            try:
                found = yield from db.get_proc(keys[index], stream=stream)
            except ReproError:
                tally.raised += 1
            else:
                if found != value(index):
                    tally.mismatched += 1
            read_lat.append(sim.now - before)
            stamps.append(perf_counter())

    started = time.perf_counter()
    _run_clients(stack, [filler(c) for c in range(CLIENTS)])
    stack.dbbench().quiesce()
    middle = time.perf_counter()
    _run_clients(stack, [reader(c) for c in range(CLIENTS)])
    ended = time.perf_counter()
    fills = CLIENTS * len(keys)
    gets = CLIENTS * len(lookups[0])
    tally.attempted = fills + gets
    tally.payload_bytes = CLIENTS * sum(16 + size for size in sizes)
    tally.phases = {"fill": (fills, middle - started),
                    "read": (gets, ended - middle)}


# -- 5. zns_dbbench_scan ----------------------------------------------------------

def _zns_spec(seed: int, obs: bool) -> StackSpec:
    return evaluation_spec(
        name="zns_dbbench_scan", seed=seed, obs=obs, ftl="zns",
        ftl_config={"chunks_per_zone": 4, "max_open_zones": 32},
        db=dict(DB_CONFIG))


VALUE_SIZE = 1024
#: Simulated pause of an overwriting client between two puts.
THINK_S = 25e-6


def _zns_prepare(stack: Stack, seed: int, scale: str) -> dict:
    key_space = _scaled(scale, 30_000, 1_200)
    fill_puts = _scaled(scale, 20_000, 900)     # per client, 4 clients
    overwrites = _scaled(scale, 9_000, 200)     # per client, 2 clients
    scans = _scaled(scale, 5, 2)                # per client, 2 clients
    scan_limit = _scaled(scale, 3_000, 150)
    fills = []
    for client in range(CLIENTS):
        client_rng = _rng(seed, f"zns_dbbench_scan.fill{client}")
        fills.append([client_rng.randrange(key_space)
                      for __ in range(fill_puts)])
    # Phase 2 overwrites only keys phase 1 wrote, so the key set (and
    # with it what an ordered scan must deliver) is fixed while scans run.
    present = sorted({index for client in fills for index in client})
    rewrites = []
    for client in range(2):
        client_rng = _rng(seed, f"zns_dbbench_scan.over{client}")
        rewrites.append([present[client_rng.randrange(len(present))]
                         for __ in range(overwrites)])
    return {"inputs": (fills, rewrites),
            "keys": {index: _key(index) for index in present},
            "scans": scans, "scan_limit": scan_limit, "present": present,
            "bodies": _value_bodies(), "versions": {}}


def _zns_run(stack: Stack, plan: dict, tally: Tally) -> None:
    db, sim = stack.db, stack.sim
    fills, rewrites = plan["inputs"]
    keys, bodies = plan["keys"], plan["bodies"]
    versions: Dict[int, int] = plan["versions"]
    write_lat, read_lat = tally.write_lat, tally.read_lat
    stamps = tally.stamps
    limit = plan["scan_limit"]
    head = plan["present"][:limit]

    def value(index: int, version: int) -> bytes:
        return bodies[(index + version) % VALUE_SLOTS][:VALUE_SIZE]

    def writer(stream: str, indexes: List[int], think: float = 0.0):
        for index in indexes:
            if think:
                yield sim.timeout(think)
            version = versions.get(index, 0) + 1
            before = sim.now
            try:
                yield from db.put_proc(keys[index], value(index, version),
                                       stream=stream)
            except ReproError:
                tally.raised += 1
            else:
                # put_proc returns straight after the memtable insert,
                # so "last to return" is "last written".
                versions[index] = version
            write_lat.append(sim.now - before)
            stamps.append(perf_counter())

    def scanner(client: int):
        for __ in range(plan["scans"]):
            # A scan reads the database as of its first step.
            expected = [(keys[index], value(index, versions[index]))
                        for index in head]
            cursor = [0, sim.now]

            def on_entry(key: bytes, found: bytes) -> None:
                position = cursor[0]
                if (position >= len(expected)
                        or (key, found) != expected[position]):
                    tally.mismatched += 1
                read_lat.append(sim.now - cursor[1])
                stamps.append(perf_counter())
                cursor[0] = position + 1
                cursor[1] = sim.now

            try:
                delivered = yield from db.scan_proc(
                    limit=limit, on_entry=on_entry,
                    stream=f"scan-{client}")
            except ReproError:
                tally.raised += 1
            else:
                # Entries the scan owed but never delivered.
                tally.mismatched += len(expected) - delivered

    started = time.perf_counter()
    _run_clients(stack, [writer(f"fill-{c}", fills[c])
                         for c in range(CLIENTS)])
    middle = time.perf_counter()
    # A put costs 2 simulated us, a scanned entry 15: without think time
    # the overwriters would be done before the first scan is a tenth in.
    _run_clients(stack, [scanner(0), scanner(1),
                         writer("over-0", rewrites[0], THINK_S),
                         writer("over-1", rewrites[1], THINK_S)])
    stack.dbbench().quiesce()
    ended = time.perf_counter()
    filled = sum(len(client) for client in fills)
    mixed = (2 * plan["scans"] * len(head)
             + sum(len(client) for client in rewrites))
    tally.attempted = filled + mixed
    tally.payload_bytes = len(write_lat) * (16 + VALUE_SIZE)
    tally.phases = {"fill": (filled, middle - started),
                    "read": (mixed, ended - middle)}


# -- 6. eleos_llama ----------------------------------------------------------------

def _eleos_spec(seed: int, obs: bool) -> StackSpec:
    # examples/log_structured_eleos.py, with a page cache a quarter of
    # the page count so reads miss.
    return StackSpec(
        name="eleos_llama", seed=seed, obs=obs,
        geometry={"num_groups": 4, "pus_per_group": 4,
                  "chunks_per_pu": 48, "pages_per_block": 24},
        ftl="eleos",
        ftl_config={"buffer_bytes": 2 * MIB, "wal_chunk_count": 8},
        llama={"consolidate_after": 4, "clean_live_ratio": 0.8,
               "cache_capacity": 200})


PAGES = 800


def _eleos_prepare(stack: Stack, seed: int, scale: str) -> dict:
    engine = stack.engine
    rounds = _scaled(scale, 1_000, 30)
    updates = _scaled(scale, 12, 8)
    reads = _scaled(scale, 20, 12)
    rng = _rng(seed, "eleos_llama")
    shadow: List[bytearray] = []
    for pid in range(PAGES):
        body = bytes([65 + pid % 26]) * rng.randint(37, 20_000)
        shadow.append(bytearray(b"record-%d:" % pid + body))
        engine.replace(pid, bytes(shadow[pid]))
    engine.flush()
    plan_rounds = []
    for __ in range(rounds):
        deltas = [(rng.randrange(PAGES),
                   bytes([97 + rng.randrange(26)]) * rng.randint(16, 256))
                  for __ in range(updates)]
        plan_rounds.append(
            (deltas, [rng.randrange(PAGES) for __ in range(reads)]))
    return {"inputs": ([len(page) for page in shadow], plan_rounds),
            "shadow": shadow}


def _eleos_run(stack: Stack, plan: dict, tally: Tally) -> None:
    engine, sim = stack.engine, stack.sim
    shadow: List[bytearray] = plan["shadow"]
    write_lat, read_lat = tally.write_lat, tally.read_lat
    stamps = tally.stamps
    for deltas, reads in plan["inputs"][1]:
        for pid, delta in deltas:
            try:
                engine.update(pid, delta)
            except ReproError:
                tally.raised += 1
            else:
                shadow[pid] += delta
                tally.payload_bytes += len(delta)
        # update() appends to the cached page (fetching it on a miss);
        # flush() is the one call that writes to the device, so it is
        # the write latency sample.
        before = sim.now
        try:
            engine.flush()
        except ReproError:
            tally.raised += 1
        write_lat.append(sim.now - before)
        stamps.append(perf_counter())
        for pid in reads:
            before = sim.now
            try:
                if engine.read(pid) != shadow[pid]:
                    tally.mismatched += 1
            except ReproError:
                tally.raised += 1
            read_lat.append(sim.now - before)
            stamps.append(perf_counter())
        try:
            engine.clean_once()
        except ReproError:
            tally.raised += 1
        tally.attempted += len(deltas) + 1 + len(reads)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("oxblock_fill_read",
             _fill_read_spec, _fill_read_prepare, _fill_read_run),
    Workload("oxblock_gc_zipf",
             _zipf_spec("oxblock_gc_zipf", "none"), _zipf_prepare, _zipf_run),
    Workload("wlfc_zipf_overwrite",
             _zipf_spec("wlfc_zipf_overwrite", "wlfc"), _zipf_prepare,
             _zipf_run),
    Workload("lightlsm_dbbench",
             _lightlsm_spec, _lightlsm_prepare, _lightlsm_run),
    Workload("zns_dbbench_scan", _zns_spec, _zns_prepare, _zns_run),
    Workload("eleos_llama", _eleos_spec, _eleos_prepare, _eleos_run),
)}
