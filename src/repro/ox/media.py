"""The OX media manager: the bottom OX layer (§4.1).

"The bottom layer focuses on media management, it is responsible for
abstracting various forms of underlying storage media under a common
representation of the physical address space."  Here the one media type is
the simulated Open-Channel SSD; the media manager exposes a narrow,
FTL-facing API (vector I/O, reset, copy, flush, chunk scans, notification
drain) of generator (in-simulation) entry points, plus a synchronous
:meth:`MediaManager.flush`.

A media manager optionally carries a :class:`~repro.qos.TenantContext`
(``MediaManager.tenant``): every command it submits is tagged with that
tenant, which is how the FTL above feeds tenant identity into the
device's QoS scheduler and per-tenant metrics without any per-call
plumbing in the FTL code.

All four FTLs (OX-Block, OX-ELEOS, LightLSM and OX-ZNS) keep their chunks
in a :class:`ChunkPool` and erase them only through it (OX-Block's WAL
ring and checkpoint slots, in no pool, through :meth:`reset_dirty_proc`),
and :func:`census_problems` checks any FTL's chunks the same way.
"""

from __future__ import annotations

from collections import deque
from itertools import cycle
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import MediaError, ReproError
from repro.ocssd.address import Ppa, PpaVector
from repro.ocssd.commands import (
    Buffer,
    ChunkReset,
    Completion,
    VectorCopy,
    VectorRead,
    VectorWrite,
)
from repro.ocssd.chunk import ChunkState
from repro.ocssd.device import ChunkDescriptor, ChunkNotification, OpenChannelSSD
from repro.ocssd.geometry import DeviceGeometry

ChunkKey = Tuple[int, int, int]
PuKey = Tuple[int, int]


class MediaManager:
    """FTL-facing facade over one Open-Channel SSD.

    *tenant* tags every command this manager submits; ``None`` leaves
    commands untagged (infrastructure I/O, single-tenant stacks).
    """

    def __init__(self, device: OpenChannelSSD, tenant=None):
        self.device = device
        self.sim = device.sim
        self.tenant = tenant

    @property
    def geometry(self) -> DeviceGeometry:
        return self.device.report_geometry()

    # -- generator API (for use inside simulation processes) --------------------
    #
    # These return the device's generator directly instead of delegating
    # with ``yield from``: callers drive them identically, but each I/O
    # carries one generator frame less through every resume.

    def write_proc(self, ppas: PpaVector, data: Buffer,
                   oob: Optional[List[object]] = None, fua: bool = False,
                   parent=None):
        """Write the one buffer *data* (see :class:`VectorWrite`)."""
        return self.device.submit(
            VectorWrite(ppas=ppas, data=data, oob=oob, fua=fua,
                        tenant=self.tenant),
            parent=parent)

    def read_proc(self, ppas: PpaVector, parent=None,
                  meta_only: bool = False):
        return self.device.submit(
            VectorRead(ppas=ppas, tenant=self.tenant, meta_only=meta_only),
            parent=parent)

    def read_sectors_proc(self, linears: List[int], parent=None):
        """Payload-only read by linear address; see
        :meth:`repro.ocssd.OpenChannelSSD.read_sectors_proc`."""
        return self.device.read_sectors_proc(linears, tenant=self.tenant,
                                             parent=parent)

    def reset_proc(self, ppa: Ppa, parent=None):
        return self.device.submit(ChunkReset(ppa=ppa, tenant=self.tenant),
                                  parent=parent)

    def dirty(self, keys: Iterable[ChunkKey]) -> List[ChunkKey]:
        """Those of the chunks *keys* that hold anything (written, or not
        FREE): the ones an erase must visit."""
        dirty = []
        for key in keys:
            info = self.device.chunk_info(Ppa(*key, 0))
            if info.write_pointer or info.state is not ChunkState.FREE:
                dirty.append(key)
        return dirty

    def reset_dirty_proc(self, keys, name: str, parent=None):
        """Erase, side by side (processes called *name*), the
        :meth:`dirty` ones of the chunks *keys*; returns their
        completions."""
        return self.sim.join_proc(
            [self.reset_proc(Ppa(*key, 0), parent=parent)
             for key in self.dirty(keys)], name)

    def copy_proc(self, src: PpaVector, dst: PpaVector,
                  dst_oob: Optional[List[object]] = None, parent=None):
        return self.device.submit(
            VectorCopy(src=src, dst=dst, dst_oob=dst_oob,
                       tenant=self.tenant),
            parent=parent)

    def flush_proc(self, chunks=None):
        return self.device.flush_proc(chunks)

    def flush(self) -> None:
        """Synchronous device flush, for callers outside the simulation."""
        self.device.flush()

    # -- metadata / management -------------------------------------------------------

    def chunk_info(self, ppa: Ppa) -> ChunkDescriptor:
        return self.device.chunk_info(ppa)

    def scan_chunks(self) -> List[ChunkDescriptor]:
        """Full chunk-descriptor scan, used by recovery to rebuild the
        provisioner's view of the physical space."""
        return list(self.device.iter_chunk_info())

    def pop_notifications(self) -> List[ChunkNotification]:
        return self.device.pop_notifications()

    def require_ok(self, completion: Completion, context: str) -> Completion:
        """Raise :class:`MediaError` unless *completion* succeeded."""
        if not completion.ok:
            raise MediaError(
                f"{context}: {completion.status.value}"
                + (f" ({completion.error})" if completion.error else ""))
        return completion


class ChunkPool:
    """The data chunks of one FTL, counted in one place (§4.1).

    Built from *keys* in the owner's order (a partition is a smaller key
    set), *free* of them (default: all) queued FIFO per PU.  The pool
    holds, erases, retires and rebuilds; the owner picks the queue, when
    to erase and what counts as in use.  A failed erase retires its chunk,
    counted in ``stats.chunks_retired`` and reported as a *layer* error;
    the erase processes are called ``<name>-erase``.
    """

    def __init__(self, media: MediaManager, keys: Iterable[ChunkKey],
                 free: Optional[Iterable[ChunkKey]] = None, *,
                 name: str = "pool", layer: str = "ftl", stats=None):
        self.media, self.sim = media, media.sim
        self.name, self.layer, self.stats = name, layer, stats
        self.keys: List[ChunkKey] = list(keys)
        self.free: Dict[PuKey, Deque[ChunkKey]] = {
            pu: deque() for pu in dict.fromkeys(key[:2] for key in self.keys)}
        self._group_free = dict.fromkeys((key[0] for key in self.keys), 0)
        self.held: Dict[ChunkKey, int] = {}         # never erased
        self.erasing: Dict[ChunkKey, object] = {}   # oldest first
        for key in self.keys if free is None else free:
            self.put(key)

    def take(self, pu: PuKey) -> ChunkKey:
        key = self.free[pu].popleft()
        self._group_free[key[0]] -= 1
        return key

    def take_group(self, group: int,
                   count: int) -> Optional[List[ChunkKey]]:
        """*count* free chunks of *group*, round robin over its PUs from
        the first; None if the group has fewer."""
        if self._group_free.get(group, 0) < count:
            return None
        queues = cycle([queue for pu, queue in self.free.items()
                        if pu[0] == group])
        chosen: List[ChunkKey] = []
        for __ in range(count):
            queue = next(queues)
            while not queue:
                queue = next(queues)
            chosen.append(queue.popleft())
        self._group_free[group] -= count
        return chosen

    def put(self, key: ChunkKey) -> None:
        self.free[key[:2]].append(key)
        self._group_free[key[0]] += 1

    def free_count(self) -> int:
        return sum(self._group_free.values())

    def group_free(self, group: int) -> int:
        return self._group_free.get(group, 0)

    def hold(self, key: ChunkKey) -> None:
        self.held[key] = self.held.get(key, 0) + 1

    def release(self, key: ChunkKey) -> bool:
        """Undo one :meth:`hold`; True if that left *key* unheld."""
        self.held[key] -= 1
        if self.held[key]:
            return False
        del self.held[key]
        return True

    def reclaim_proc(self, keys: List[ChunkKey],
                     dirty: Optional[List[ChunkKey]] = None, parent=None):
        """Erase the *dirty* ones of *keys* (default: all) side by side in
        one join, then queue *keys* in order, retiring each whose erase
        failed; queue nothing if the power went meanwhile.  Returns the
        keys whose erase failed, each with its error."""
        dirty = keys if dirty is None else dirty
        controller = self.media.device.controller
        epoch = controller.epoch
        done = yield from self.sim.join_proc(
            [self.media.reset_proc(Ppa(*key, 0), parent=parent)
             for key in dirty], f"{self.name}-erase")
        failed = {key: completion.error or str(key)
                  for key, completion in zip(dirty, done) if not completion.ok}
        if controller.epoch != epoch:
            return failed
        for key in keys:
            if key in failed:
                self._retire("reset-failed", failed[key])
            else:
                self.put(key)
        return failed

    def erase(self, keys: Iterable[ChunkKey]) -> None:
        """Erase behind the caller, one process and root span each, every
        chunk of *keys* that is unheld, not erasing and not offline."""
        for key in keys:
            if key not in self.held and key not in self.erasing \
                    and self.media.chunk_info(Ppa(*key, 0)).state \
                    is not ChunkState.OFFLINE:
                self.erasing[key] = self.sim.spawn(self._erase_proc(key),
                                                   f"{self.name}-erase")

    def _erase_proc(self, key: ChunkKey):
        obs = self.sim.obs
        span = obs.begin("ftl", "erase") if obs is not None else None
        try:
            yield from self.reclaim_proc([key], parent=span)
        except ReproError as exc:   # nobody waits on it: absorbed
            self._retire("erase-absorbed", str(exc))
        del self.erasing[key]
        if obs is not None:
            obs.end(span, chunk=key)

    def _retire(self, kind: str, detail: str) -> None:
        if self.stats is not None:
            self.stats.chunks_retired += 1
        if self.sim.obs is not None:
            self.sim.obs.error(self.layer, kind, detail)

    def rebuild_proc(self, live):
        """After recovery: queue, in key order, every chunk outside *live*
        that is not offline, the written ones erased first in one join."""
        for queue in self.free.values():
            queue.clear()
        self._group_free = dict.fromkeys(self._group_free, 0)
        infos = {key: self.media.chunk_info(Ppa(*key, 0)) for key in self.keys
                 if key not in live}
        keys = [key for key, info in infos.items()
                if info.state is not ChunkState.OFFLINE]
        yield from self.reclaim_proc(
            keys, [key for key in keys if infos[key].write_pointer])

    def census(self, in_use: Iterable[ChunkKey]) -> Dict[str, List[ChunkKey]]:
        """Every chunk by state: free, erasing, offline (as the device
        reports it) and in use (the owner's *in_use*, less offline ones);
        lists, so a chunk booked twice shows twice."""
        offline = [key for key in self.keys if self.media.chunk_info(
            Ppa(*key, 0)).state is ChunkState.OFFLINE]
        return {"free": [key for queue in self.free.values()
                         for key in queue],
                "erasing": list(self.erasing), "offline": offline,
                "in use": [key for key in in_use if key not in offline]}


def census_problems(media: MediaManager, keys: Iterable[ChunkKey],
                    census: Dict[str, List[ChunkKey]]) -> Iterator[str]:
    """What breaks the chunk invariant of every FTL: each of *keys* in
    exactly one state of *census* and no other chunk in any, a free chunk
    at write pointer 0 on the device, an offline one offline there."""
    states: Dict[ChunkKey, List[str]] = {key: [] for key in keys}
    for state, members in census.items():
        for key in members:
            states.setdefault(key, ["not owned"]).append(state)
    for key, names in states.items():
        if len(names) != 1:
            yield f"chunk {key} is {' and '.join(names) or 'in no state'}"
    for key in census.get("free", ()):
        if media.chunk_info(Ppa(*key, 0)).write_pointer:
            yield f"free chunk {key} holds data"
    for key in census.get("offline", ()):
        if media.chunk_info(Ppa(*key, 0)).state is not ChunkState.OFFLINE:
            yield f"offline chunk {key} is not offline on the device"
