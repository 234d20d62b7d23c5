"""The LLAMA-lite engine: page cache + batched flush + segment cleaner.

Write path: updates accumulate as deltas on cached pages; ``flush()``
serializes every dirty page into one LSS I/O buffer and hands it to
OX-ELEOS as a single batched write — the CPU-efficiency trick of [9].
Read path: a page miss fetches exactly one (variable-sized) page through
OX-ELEOS, whatever number of sectors that touches.

Cleaning: flushing relocates pages, so old segments lose live pages over
time; :meth:`clean_once` picks the segment with the lowest live ratio,
re-appends its remaining live pages, and frees it.  Segment liveness is
OX-ELEOS's to keep (it survives a crash there); the engine only asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import FTLError, ReproError
from repro.llama.pages import DeltaPage
from repro.ox.eleos import OXEleos


@dataclass(frozen=True)
class LlamaConfig:
    """Engine tunables."""

    consolidate_after: int = 8     # delta-chain length triggering consolidation
    clean_live_ratio: float = 0.5  # segments below this live fraction get cleaned
    cache_capacity: int = 0        # cached pages kept in memory; 0 = unlimited


@dataclass
class LlamaStats:
    updates: int = 0
    reads: int = 0
    cache_misses: int = 0
    flushes: int = 0
    pages_flushed: int = 0
    consolidations: int = 0
    segments_cleaned: int = 0
    pages_relocated: int = 0


class LlamaEngine:
    """A log-structured page store over OX-ELEOS."""

    def __init__(self, ftl: OXEleos, config: Optional[LlamaConfig] = None):
        self.ftl = ftl
        self.sim = ftl.sim
        self.obs = ftl.obs          # repro.obs hub, None unless attached
        self.config = config or LlamaConfig()
        self._cache: Dict[int, DeltaPage] = {}
        self.stats = LlamaStats()

    # -- write path -----------------------------------------------------------

    def update(self, pid: int, delta: bytes) -> None:
        """Append *delta* to the page's chain in memory.  A page that is
        flushed but not cached is first read back synchronously (one
        page read on the FTL, under a ``("llama", "fetch")`` span), as
        :meth:`replace` does."""
        page = self._cached_or_new(pid)
        page.apply_delta(delta)
        if page.chain_length >= self.config.consolidate_after:
            page.consolidate()
            self.stats.consolidations += 1
        self.stats.updates += 1

    def replace(self, pid: int, content: bytes) -> None:
        """Overwrite the page's content wholesale."""
        self._cached_or_new(pid).replace_base(content)
        self.stats.updates += 1

    def flush(self) -> Optional[int]:
        """Persist all dirty pages in one LSS buffer; returns the segment
        id (None if nothing was dirty)."""
        return self.sim.run_until(self.sim.spawn(self.flush_proc()))

    def flush_proc(self):
        dirty = [page for page in self._cache.values() if page.dirty]
        if not dirty:
            return None
        obs = self.obs
        span = obs.begin("llama", "flush") if obs is not None else None
        segment_id = None
        batch: List[Tuple[int, bytes]] = []
        batch_bytes = 0
        limit = self.ftl.config.buffer_bytes
        for page in sorted(dirty, key=lambda p: p.pid):
            blob = page.serialize()
            if len(blob) > limit:
                raise ReproError(
                    f"page {page.pid} serializes to {len(blob)} bytes, "
                    f"larger than the LSS buffer ({limit})")
            if batch_bytes + len(blob) > limit:
                segment_id = yield from self.ftl.append_buffer_proc(
                    batch, span)
                batch, batch_bytes = [], 0
            batch.append((page.pid, blob))
            batch_bytes += len(blob)
        if batch:
            segment_id = yield from self.ftl.append_buffer_proc(batch, span)
        for page in dirty:
            page.dirty = False
        self.stats.flushes += 1
        self.stats.pages_flushed += len(dirty)
        self._evict_clean_pages()
        if obs is not None:
            obs.end(span, pages=len(dirty))
        return segment_id

    # -- read path ----------------------------------------------------------------

    def read(self, pid: int) -> bytes:
        """The page's current logical content (cache, else one FTL read)."""
        return self.sim.run_until(self.sim.spawn(self.read_proc(pid)))

    def read_proc(self, pid: int):
        obs = self.obs
        span = obs.begin("llama", "read") if obs is not None else None
        self.stats.reads += 1
        page = self._cache.get(pid)
        if page is None:
            self.stats.cache_misses += 1
            blob = yield from self.ftl.read_page_proc(pid, span)
            page = DeltaPage.deserialize(pid, blob)
            self._cache[pid] = page
        if obs is not None:
            obs.end(span, page=pid)
        return page.materialize()

    # -- cleaning ----------------------------------------------------------------------

    def segment_live_ratio(self, segment_id: int) -> float:
        """Live pages of the segment / pages originally written to it."""
        return self.ftl.segment_live_ratio(segment_id)

    def clean_once(self) -> Optional[int]:
        """Clean the coldest segment below the live-ratio threshold;
        returns the freed segment id (None if nothing qualified)."""
        return self.sim.run_until(self.sim.spawn(self.clean_once_proc()))

    def clean_once_proc(self):
        ftl = self.ftl
        obs = self.obs
        span = obs.begin("llama", "clean") if obs is not None else None
        threshold = self.config.clean_live_ratio
        candidates = [(ratio, seg) for seg in ftl.segments
                      if (ratio := ftl.segment_live_ratio(seg)) <= threshold]
        segment_id = None
        if candidates:
            __, segment_id = min(candidates)
            live_pids = ftl.segment_live_pages(segment_id)
            if live_pids:
                # Nothing orders one page read after another: the pages
                # not in the cache are fetched side by side.
                blobs = {pid: page.serialize() for pid in live_pids
                         if (page := self._cache.get(pid)) is not None}
                missing = [pid for pid in live_pids if pid not in blobs]
                fetched = yield from self.sim.join_proc(
                    [ftl.read_page_proc(pid, span) for pid in missing],
                    "llama-clean")
                blobs.update(zip(missing, fetched))
                self.stats.pages_relocated += len(live_pids)
                yield from ftl.append_buffer_proc(
                    [(pid, blobs[pid]) for pid in live_pids], span)
            try:
                yield from ftl.free_segment_proc(segment_id, span)
                self.stats.segments_cleaned += 1
            except FTLError:
                # A page moved into the segment between selection and
                # free (possible with concurrent flushes): skip this round.
                segment_id = None
        if obs is not None:
            obs.end(span, segment=segment_id)
        return segment_id

    # -- internals ----------------------------------------------------------------------

    def _cached_or_new(self, pid: int) -> DeltaPage:
        page = self._cache.get(pid)
        if page is None:
            if pid in self.ftl.vmap:
                obs = self.obs
                span = (obs.begin("llama", "fetch")
                        if obs is not None else None)
                blob = self.ftl.read_page(pid, span)
                if obs is not None:
                    obs.end(span, page=pid)
                page = DeltaPage.deserialize(pid, blob)
            else:
                page = DeltaPage(pid=pid)
            self._cache[pid] = page
        return page

    def _evict_clean_pages(self) -> None:
        capacity = self.config.cache_capacity
        if not capacity or len(self._cache) <= capacity:
            return
        evictable = [pid for pid, page in self._cache.items()
                     if not page.dirty]
        excess = len(self._cache) - capacity
        for pid in evictable[:excess]:
            del self._cache[pid]
