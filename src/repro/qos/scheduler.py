"""Controller-side QoS scheduler: the host owns the I/O schedule.

Without a scheduler attached, the device grants channels and chips in
arrival order (FIFO) — one tenant's program/erase burst can sit in front
of another tenant's reads, which is precisely the unpredictability the
paper attributes to black-box SSDs.  :class:`QosScheduler` replaces the
FIFO channel grant with a three-part policy:

1. **Read priority.**  Each channel serves its read class strictly
   before its write/program class; a 75 µs read never queues behind a
   900 µs program train unless the channel is already mid-transfer.
2. **Weighted deficit round robin** within each class, across per-tenant
   queues.  Each visit deposits ``weight × quantum_bytes`` of credit; a
   tenant whose head request exceeds its deficit rotates away, so
   bandwidth converges to the weight ratio for backlogged tenants
   without any per-grant sorting.
3. **Token-bucket throttles** per tenant, applied before a request may
   even contend for the channel (see :mod:`repro.qos.tokenbucket`).

The scheduler follows the repo's zero-cost-when-absent convention: the
controller's hot paths test ``if self.qos is None`` and fall back to the
original FIFO behaviour; with a scheduler attached but only one tenant
active, every acquisition takes the no-wait fast path below (no Event is
created), so an idle scheduler adds one attribute test per command.

Two DRR refinements keep pathological weights safe:

* **Fast-forward** — when a full sweep of a class grants nothing (every
  deficit is below its head cost), all active flows receive ``k`` rounds
  of quantum at once, where ``k`` is the smallest round count that makes
  some flow affordable.  A weight-1e-9 tenant costs O(1) work, not
  millions of rotations.
* **Aging** — a flow visited ``starvation_rounds`` times without service
  is served regardless of deficit.  Combined with fast-forward this
  bounds any tenant's wait to ``starvation_rounds`` grants, whatever the
  weights.

Background work (GC, compaction) consults :meth:`backlog` through
:meth:`background_gate_proc` and yields while foreground reads are
queued, implementing the issue's "background work yields under load".
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional

from repro.qos.tenant import SYSTEM_TENANT, TenantContext
from repro.qos.tokenbucket import TokenBucket
from repro.sidecar import QOS_SLOT, Sidecar
from repro.sim.core import Event, Simulator


@dataclass(frozen=True)
class QosConfig:
    """Tunables for the scheduler; defaults match the isolation bench."""

    #: DRR credit per visit is ``weight * quantum_bytes`` — sized to one
    #: write unit (24 sectors × 4 KB) so a weight-1 tenant earns a full
    #: program transfer per round.
    quantum_bytes: int = 96 * 1024
    #: Chip-lock priorities used by the controller when a scheduler is
    #: attached (lower wins; the sim Resource serves priority-then-FIFO;
    #: programs take the lock at 0, FUA ones at -1, qos or not).
    read_priority: int = -1
    erase_priority: int = 1
    #: Serve a flow regardless of deficit after this many unserved visits.
    starvation_rounds: int = 64
    #: One DRR sweep approves up to this many grants at once; later
    #: releases hand the channel over in O(1) from the approved backlog
    #: instead of re-running deficit/aging bookkeeping per command.  The
    #: grant *order* is the order repeated single-grant sweeps would
    #: produce; only arrivals newer than the sweep wait for the next
    #: burst (reads still preempt any approved write backlog).
    burst_grants: int = 8
    #: Background work yields while ``backlog() >= bg_backlog_threshold``...
    bg_backlog_threshold: int = 1
    #: ...sleeping this long per yield...
    bg_pause_s: float = 200e-6
    #: ...but never deferring one background step longer than this, so
    #: GC can always make forward progress (no livelock under a
    #: permanently saturated foreground).
    bg_max_wait_s: float = 5e-3


class _Pending:
    """One queued channel request."""

    __slots__ = ("event", "cost", "enqueued_at", "cancelled")

    def __init__(self, event: Event, cost: int, enqueued_at: float):
        self.event = event
        self.cost = cost
        self.enqueued_at = enqueued_at
        self.cancelled = False


class _Flow:
    """Per-tenant DRR state inside one class queue."""

    __slots__ = ("tenant", "quantum", "queue", "deficit", "visited",
                 "unserved", "active")

    def __init__(self, tenant: TenantContext, quantum_bytes: int):
        self.tenant = tenant
        self.quantum = tenant.weight * quantum_bytes
        self.queue: deque[_Pending] = deque()
        self.deficit = 0.0
        self.visited = False     # quantum already deposited this visit
        self.unserved = 0        # visits since last service (aging)
        self.active = False      # present in the class round-robin order

    def _deactivate(self) -> None:
        self.active = False
        self.deficit = 0.0
        self.visited = False
        self.unserved = 0


class _ClassQueue:
    """One service class (reads, or writes/programs) of one channel."""

    __slots__ = ("order", "flows", "waiting")

    def __init__(self):
        self.order: deque[_Flow] = deque()
        self.flows: Dict[TenantContext, _Flow] = {}
        self.waiting = 0


class _Gate:
    """Admission state of one channel: at most one holder at a time.

    ``approved_read``/``approved_write`` hold requests a DRR sweep has
    already ordered for service; they count as waiting (for backlog and
    the fast-path test) until the grant actually fires.
    """

    __slots__ = ("busy", "read", "write", "approved_read", "approved_write")

    def __init__(self):
        self.busy = False
        self.read = _ClassQueue()
        self.write = _ClassQueue()
        self.approved_read: deque = deque()
        self.approved_write: deque = deque()


class QosScheduler(Sidecar):
    """Weighted-DRR channel scheduler with read priority and throttles.

    Attach to a device with :meth:`attach`; thereafter the controller
    routes every channel acquisition through
    :meth:`channel_acquire_proc` / :meth:`channel_release`.
    """

    slot = QOS_SLOT

    def __init__(self, sim: Simulator, config: Optional[QosConfig] = None):
        super().__init__()
        self.sim = sim
        self.config = config or QosConfig()
        self._gates: Dict[int, _Gate] = {}
        self._buckets: Dict[TenantContext, TokenBucket] = {}
        self._waiting_total = 0
        self._reads_blocked = 0
        # The scheduler's counts, always on (cheap ints); obs adds the
        # wait histograms.
        self.grants = 0
        self.fast_grants = 0
        self.throttle_delays = 0

    # -- wiring (Sidecar protocol) -------------------------------------------

    def sidecar_targets(self, device):
        # No chip slot: qos acts at the channel gates and chip-lock
        # priorities, both of which live in the controller.  The simulator
        # carries the slot so layers built later (the LSM engine's
        # background gate) inherit the scheduler from ``sim.qos``.
        return (device, device.controller, device.sim)

    def _sidecar_validate(self, device) -> None:
        if device.sim is not self.sim:
            raise ValueError("scheduler and device belong to different "
                             "simulators")

    def register_tenant(self, tenant: TenantContext) -> TenantContext:
        """Create the tenant's ingress throttle (a no-op bucket when the
        tenant has no rate).  Flows are created lazily on first I/O."""
        if tenant not in self._buckets:
            self._buckets[tenant] = TokenBucket(
                self.sim, tenant.rate_bytes_per_sec, tenant.burst_bytes)
        return tenant

    # -- channel admission --------------------------------------------------

    def try_channel_acquire(self, tenant: Optional[TenantContext],
                            group: int) -> bool:
        """Non-blocking twin of :meth:`channel_acquire_proc`'s fast path.

        Grants the gate synchronously when the tenant is unthrottled and
        the channel is idle with empty queues (the uncontended common
        case), sparing the caller a generator round-trip.  Returns False
        with no side effects when the full path must run instead.
        """
        if tenant is None:
            tenant = SYSTEM_TENANT
        bucket = self._buckets.get(tenant)
        if bucket is not None and bucket.rate is not None:
            return False
        gate = self._gates.get(group)
        if gate is None:
            gate = self._gates[group] = _Gate()
        if (not gate.busy and not gate.read.waiting
                and not gate.write.waiting):
            gate.busy = True
            self.fast_grants += 1
            return True
        return False

    def channel_acquire_proc(self, tenant: Optional[TenantContext],
                             kind: str, group: int, num_bytes: int):
        """Process generator: throttle, then win the channel gate.

        ``kind`` is ``"read"`` for host reads (served with strict
        priority); everything else lands in the write/program class.
        The caller owns the channel until :meth:`channel_release`.
        """
        if tenant is None:
            tenant = SYSTEM_TENANT
        bucket = self._buckets.get(tenant)
        if bucket is not None and bucket.rate is not None:
            before = self.sim.now
            yield from bucket.acquire_proc(num_bytes)
            waited = self.sim.now - before
            if waited > 0:
                self.throttle_delays += 1
                obs = self.sim.obs
                if obs is not None:
                    obs.metrics.histogram(
                        f"qos.throttle.{tenant.name}.wait_s").record(waited)

        gate = self._gates.get(group)
        if gate is None:
            gate = self._gates[group] = _Gate()
        if (not gate.busy and not gate.read.waiting
                and not gate.write.waiting):
            # Fast path: idle channel, empty queues — grant synchronously.
            # The single-tenant case always lands here, so an attached
            # but uncontended scheduler adds no events and no latency.
            gate.busy = True
            self.fast_grants += 1
            return

        cq = gate.read if kind == "read" else gate.write
        flow = cq.flows.get(tenant)
        if flow is None:
            flow = cq.flows[tenant] = _Flow(tenant, self.config.quantum_bytes)
        grant = self.sim.event()
        pending = _Pending(grant, num_bytes, self.sim.now)
        grant.abandon_callback = (
            lambda event, g=group, p=pending: self._abandon(g, p, event))
        flow.queue.append(pending)
        if not flow.active:
            flow.active = True
            cq.order.append(flow)
        cq.waiting += 1
        self._waiting_total += 1
        yield grant
        # The dispatcher marked the gate busy on our behalf before
        # succeeding the event; record how long we queued.
        obs = self.sim.obs
        if obs is not None:
            obs.metrics.histogram("qos.sched.wait_s").record(
                self.sim.now - pending.enqueued_at)
            obs.metrics.histogram(
                f"qos.tenant.{tenant.name}.sched_wait_s").record(
                self.sim.now - pending.enqueued_at)

    def channel_release(self, group: int) -> None:
        """Hand the channel back; dispatch the next queued request."""
        gate = self._gates.get(group)
        if gate is None or not gate.busy:
            return
        pending = self._next_grant(gate)
        if pending is None:
            gate.busy = False
            return
        # Gate stays busy for the new holder.
        self._waiting_total -= 1
        self.grants += 1
        obs = self.sim.obs
        if obs is not None:
            obs.metrics.counter("qos.sched.grants").increment()
        pending.event.succeed()

    def _next_grant(self, gate: _Gate) -> Optional[_Pending]:
        """The next request to own the channel, or None if all queues are
        idle.  Reads first: an approved write backlog never outranks a
        queued read, so strict read priority survives batching."""
        for cq, approved in ((gate.read, gate.approved_read),
                             (gate.write, gate.approved_write)):
            while True:
                while approved:
                    head = approved.popleft()
                    if not head.cancelled:
                        cq.waiting -= 1
                        return head
                if cq.waiting and cq.order:
                    self._drr_burst(cq, approved)
                    if approved:
                        continue
                break
        return None

    def _abandon(self, group: int, pending: _Pending, event: Event) -> None:
        """An interrupted waiter hands its (possibly granted) slot back."""
        if event.triggered:
            self.channel_release(group)
        elif not pending.cancelled:
            pending.cancelled = True
            gate = self._gates[group]
            for cq, approved in ((gate.read, gate.approved_read),
                                 (gate.write, gate.approved_write)):
                if pending in approved:
                    cq.waiting -= 1
                    self._waiting_total -= 1
                    return
                for flow in cq.flows.values():
                    if pending in flow.queue:
                        cq.waiting -= 1
                        self._waiting_total -= 1
                        return

    # -- deficit round robin ------------------------------------------------

    def _drr_burst(self, cq: _ClassQueue, approved: deque) -> None:
        """One DRR sweep approving up to ``burst_grants`` requests.

        Emits grants into *approved* in exactly the order repeated
        single-grant sweeps would serve them — a flow burst-serves its
        head requests while its deficit lasts, then rotates — but pays
        the visited/deficit/aging bookkeeping once per sweep instead of
        once per grant.
        """
        order = cq.order
        burst = self.config.burst_grants
        starvation_rounds = self.config.starvation_rounds
        rotations = 0
        while order and len(approved) < burst:
            flow = order[0]
            queue = flow.queue
            while queue and queue[0].cancelled:
                queue.popleft()
            if not queue:
                order.popleft()
                flow._deactivate()
                rotations = 0   # membership changed; restart sweep count
                continue
            if not flow.visited:
                flow.visited = True
                flow.deficit += flow.quantum
                flow.unserved += 1
            served = False
            starved = flow.unserved > starvation_rounds
            while queue and len(approved) < burst:
                head = queue[0]
                if head.cancelled:
                    queue.popleft()
                    continue
                if flow.deficit >= head.cost or starved:
                    flow.deficit = (0.0 if starved
                                    else flow.deficit - head.cost)
                    starved = False
                    flow.unserved = 0
                    queue.popleft()
                    approved.append(head)
                    served = True
                else:
                    break
            if not queue:
                order.popleft()
                flow._deactivate()
                rotations = 0
                continue
            if len(approved) >= burst:
                # Quota reached: entering this iteration requires a free
                # slot, so something was served.  If the head is still
                # affordable, stay there with the visit open — the next
                # sweep resumes exactly where repeated single grants
                # would; otherwise rotate as a spent flow.
                if flow.deficit < queue[0].cost:
                    flow.visited = False
                    order.rotate(-1)
                return
            if served:
                rotations = 0
            else:
                rotations += 1
            flow.visited = False
            order.rotate(-1)
            if rotations and rotations >= len(order):
                # Full sweep, nothing affordable: jump everyone forward
                # by the smallest round count that unblocks some flow.
                self._fast_forward(cq)
                rotations = 0

    def _fast_forward(self, cq: _ClassQueue) -> None:
        rounds_needed = None
        for flow in list(cq.order):
            queue = flow.queue
            while queue and queue[0].cancelled:
                queue.popleft()
            if not queue:
                cq.order.remove(flow)
                flow._deactivate()
                continue
            need = math.ceil((queue[0].cost - flow.deficit) / flow.quantum)
            if rounds_needed is None or need < rounds_needed:
                rounds_needed = need
        if rounds_needed is None:
            return
        rounds_needed = max(1, rounds_needed)
        for flow in cq.order:
            flow.deficit += rounds_needed * flow.quantum
            flow.unserved += rounds_needed

    # -- foreground backlog / background backpressure -----------------------

    def note_read_blocked(self, delta: int) -> None:
        """Controller bookkeeping: a host read started (+1) or stopped
        (-1) waiting on a chip lock."""
        self._reads_blocked += delta

    def backlog(self) -> int:
        """Foreground read pressure: reads blocked on chips plus reads
        queued at channel gates."""
        total = self._reads_blocked
        for gate in self._gates.values():
            total += gate.read.waiting
        return total

    def queue_depth(self) -> int:
        """Requests currently queued at all channel gates."""
        return self._waiting_total

    def background_gate_proc(self):
        """Process generator: pause background work while foreground
        reads are backlogged, for at most ``bg_max_wait_s``."""
        config = self.config
        waited = 0.0
        yields = 0
        while (self.backlog() >= config.bg_backlog_threshold
               and waited < config.bg_max_wait_s):
            yield self.sim.timeout(config.bg_pause_s)
            waited += config.bg_pause_s
            yields += 1
        if yields:
            obs = self.sim.obs
            if obs is not None:
                obs.metrics.histogram("qos.bg.wait_s").record(waited)
