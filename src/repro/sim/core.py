"""The discrete-event simulation core: events, processes and the scheduler.

Design notes
------------
* Time is a float (seconds).  The event queue is a *calendar queue*: a
  heap of distinct trigger times, each owning a FIFO bucket of the
  entries scheduled for that instant.  Pushes append to the bucket (no
  tuple allocation, no heap traffic unless the time is new) and the run
  loop drains a whole bucket per heap pop, so same-timestamp events —
  zero-delay wakeups, event triggers at ``now``, parallel-unit
  completions — cost O(1) amortized instead of O(log n) each.
* Determinism: pushes happen in program order, so FIFO bucket order
  equals the ``(time, sequence)`` order of the classic one-entry-per-
  event heap.  :class:`HeapqSimulator` keeps that original engine alive,
  and the equivalence suite verifies both engines produce identical
  clocks, event counts and per-op latencies on randomized workloads.
* Processes are plain Python generators.  A process yields :class:`Event`
  objects (timeouts, resource requests, other processes) and is resumed with
  the event's value once the event triggers, mirroring simpy's protocol.
* An event is *triggered* when its outcome is decided and *processed* once
  its callbacks have run inside the event loop.  The distinction matters for
  :class:`Timeout`, which is triggered at creation but only processed after
  its delay elapses.
* There is deliberately no wall-clock anywhere: a simulation run is a pure
  function of its inputs, which the test suite relies on.
* The generator-driving path (``Process._resume``/``_advance``) and the
  scheduler loops are written allocation-free: no closures per step, no
  bootstrap Event per process, and ``yield sim.timeout(dt)`` — the dominant
  wait in the device model — registers the resumption directly on the
  timeout's callback list.  Every fast path schedules exactly as many
  entries as the general path it replaces, so event ordering (and
  therefore every simulated clock reading) is unchanged.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import ReproError, SimulationError

ProcessGenerator = Generator["Event", Any, Any]


def guarded(generator):
    """*generator*, returning a :class:`ReproError` instead of raising
    it, so a child that fails still joins with its siblings."""
    try:
        return (yield from generator)
    except ReproError as failure:
        return failure


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    Used by the failure-injection machinery (e.g. simulating ``kill -9`` of
    the OX process): the interrupt carries a ``cause`` describing why the
    process was killed.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts untriggered; calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once.  Callbacks run when the scheduler processes
    the event, at the simulation time it was triggered for.
    """

    __slots__ = ("sim", "value", "_callbacks", "_triggered", "_processed",
                 "_ok", "_defused", "abandon_callback")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []
        self._triggered = False
        self._processed = False
        self._ok = True
        self._defused = False
        # Resources set this so an interrupted waiter can hand back
        # whatever the event would have granted (see Process.interrupt).
        self.abandon_callback: Optional[Callable[["Event"], None]] = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters with *value*."""
        self._trigger(ok=True, value=value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters receive *exc* as a throw."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() requires an exception, got {exc!r}")
        self._trigger(ok=False, value=exc)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event is processed.

        Registering on an already-processed event schedules the callback at
        the current simulation time, so it still runs inside the event loop.
        """
        if self._processed:
            self.sim._schedule_call(lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator does not crash."""
        self._defused = True

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = ok
        self.value = value
        sim = self.sim
        sim._push(sim.now, self)

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                callback(self)
        elif not self._ok and not self._defused:
            # A failure nobody waited for must not vanish silently.
            raise self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("processed" if self._processed
                 else "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that is processed automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Flattened Event.__init__ + immediate trigger: a timeout is born
        # triggered, so the two-step init would write half these fields
        # twice on the hottest allocation in the simulator.
        self.sim = sim
        self.value = value
        self._callbacks = []
        self._triggered = True
        self._processed = False
        self._ok = True
        self._defused = False
        self.abandon_callback = None
        self.delay = delay
        sim._push(sim.now + delay, self)


class _BootstrapToken:
    """Placeholder ``_waiting_on`` value between Process creation and its
    first resumption.  Never enters the heap; only ``interrupt`` ever looks
    at it (and finds no abandon callback)."""

    __slots__ = ()
    abandon_callback = None


_BOOTSTRAP = _BootstrapToken()


class Process(Event):
    """A running generator.  As an :class:`Event` it triggers when the
    generator returns (value = the generator's return value) or raises
    (the failure propagates to any process joining on it)."""

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # First resumption goes straight on the heap as a bound-method call
        # instead of a throwaway bootstrap Event; one sequence number either
        # way, so sibling processes start in the same order as before.
        self._waiting_on: Optional[Any] = _BOOTSTRAP
        sim._schedule_call(self._bootstrap)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def _bootstrap(self) -> None:
        if self._waiting_on is not _BOOTSTRAP or self._triggered:
            # Interrupted (or failed) before the first step ran; the
            # scheduled Interrupt throw will reach the generator instead.
            return
        self._waiting_on = None
        self._advance(None, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Any event the process was waiting on is abandoned (a later wake-up
        from it is ignored); if that event carries an ``abandon_callback``
        — a resource grant, for instance — it is invoked so the resource
        can reclaim the unit.  Interrupting a finished process is a no-op,
        matching ``kill`` on an exited pid.
        """
        if self._triggered:
            return
        abandoned = self._waiting_on
        self._waiting_on = None
        if abandoned is not None and abandoned.abandon_callback is not None:
            abandoned.abandon_callback(abandoned)

        def deliver() -> None:
            if self._triggered:
                return
            self._advance(None, Interrupt(cause))

        self.sim._schedule_call(deliver)

    # -- generator driving ------------------------------------------------

    def _resume(self, event: Event) -> None:
        if self._triggered or event is not self._waiting_on:
            if not event._ok:
                event.defuse()
            return
        self._waiting_on = None
        if event._ok:
            self._advance(event.value, None)
        else:
            event.defuse()
            self._advance(None, event.value)

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        generator = self._generator
        try:
            if exc is None:
                target = generator.send(value)
            else:
                target = generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as failure:  # noqa: BLE001 - goes to joiners
            self.fail(failure)
            return
        # ``yield sim.timeout(dt)`` dominates device-model waits: a fresh
        # Timeout is by construction unprocessed with no other waiters, so
        # the resumption hooks onto its callback list directly.
        if target.__class__ is Timeout:
            self._waiting_on = target
            if target._processed:
                target.add_callback(self._resume)
            else:
                target._callbacks.append(self._resume)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                "processes may only yield Event instances"))
            return
        self._waiting_on = target
        if target._processed:
            target.add_callback(self._resume)
        else:
            target._callbacks.append(self._resume)


class Simulator:
    """The event loop: a clock plus a calendar queue of pending work.

    The queue is a heap of *distinct* trigger times plus one FIFO bucket
    (a deque of entries) per time.  Scheduling order is identical to a
    ``(time, sequence)`` heap — see :class:`HeapqSimulator`, the retained
    reference engine — but same-instant entries share one heap node.
    """

    def __init__(self):
        self.now: float = 0.0
        self._times: list[float] = []          # heap of distinct times
        self._buckets: dict[float, deque] = {}  # time -> FIFO of entries
        # Queue entries popped and executed so far; the perf harness
        # reports this as simulated-events-processed/sec.
        self.events_processed = 0
        # Observability (repro.obs): None unless a hub is attached.  Layers
        # built on this simulator inherit the hub from here, and the only
        # instrumented path in the core is spawn() — the inner event loop
        # stays untouched.
        self.obs = None
        # QoS scheduler (repro.qos): None unless one is attached.  Hosts
        # and FTL background work (GC, compaction) inherit it from here,
        # same as obs; the event loop never looks at it.
        self.qos = None

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires *delay* seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process driving *generator*."""
        if self.obs is not None:
            self.obs.on_spawn(name)
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds once every event in *events* has succeeded.

        Its value is the list of the constituent events' values, in input
        order.  The first failure fails the aggregate immediately.

        The fan-out over fresh :class:`Process` objects — how the device
        model joins one program per parallel unit — stays on the direct
        callback-list path below: a just-spawned process is never processed,
        so no per-constituent scheduling round-trip is needed.
        """
        events = list(events)
        done = Event(self)
        remaining = len(events)
        if remaining == 0:
            done.succeed([])
            return done

        def on_trigger(event: Event) -> None:
            nonlocal remaining
            if done._triggered:
                if not event._ok:
                    event.defuse()
                return
            if not event._ok:
                event.defuse()
                done.fail(event.value)
                return
            remaining -= 1
            if remaining == 0:
                done.succeed([e.value for e in events])

        for event in events:
            if event._processed:
                event.add_callback(on_trigger)
            else:
                event._callbacks.append(on_trigger)
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds when the first of *events* does.

        Its value is the ``(index, value)`` pair of the winning event.
        """
        events = list(events)
        if not events:
            raise SimulationError("any_of() requires at least one event")
        done = Event(self)

        def make_callback(index: int) -> Callable[[Event], None]:
            def on_trigger(event: Event) -> None:
                if done._triggered:
                    if not event._ok:
                        event.defuse()
                    return
                if not event._ok:
                    event.defuse()
                    done.fail(event.value)
                    return
                done.succeed((index, event.value))
            return on_trigger

        for index, event in enumerate(events):
            if event._processed:
                event.add_callback(make_callback(index))
            else:
                event._callbacks.append(make_callback(index))
        return done

    def join_proc(self, generators: list, name: str = "join"):
        """Process generator: run *generators* side by side and return
        their values in input order; a single one runs inline (no spawn
        and join for parallelism that is not there).  The caller owns the
        children: a :class:`ReproError` in one is raised only once every
        sibling has finished, an :class:`Interrupt` is passed on to them.
        """
        if len(generators) < 2:
            return [(yield from generators[0])] if generators else []
        children = [self.spawn(guarded(generator), name)
                    for generator in generators]
        try:
            results = yield self.all_of(children)
        except Interrupt as stop:
            for child in children:
                child.interrupt(stop.cause)
            raise
        for result in results:
            if isinstance(result, ReproError):
                raise result
        return results

    # -- scheduling internals ----------------------------------------------

    def _push(self, when: float, entry: Any) -> None:
        """Enqueue *entry* for time *when* (appends to that instant's
        FIFO bucket; the heap is touched only for a brand-new time)."""
        bucket = self._buckets.get(when)
        if bucket is None:
            heapq.heappush(self._times, when)
            bucket = self._buckets[when] = deque()
        bucket.append(entry)

    def _schedule_call(self, callback: Callable[[], None],
                       delay: float = 0.0) -> None:
        self._push(self.now + delay, callback)

    def queue_empty(self) -> bool:
        """True when no entry is pending (engine-agnostic emptiness).  An
        entry that raised out of a run loop can leave its drained bucket
        at the head of the heap; that bucket holds nothing."""
        times = self._times
        return not times or (len(times) == 1 and not self._buckets[times[0]])

    # -- running -------------------------------------------------------------

    def step(self) -> None:
        """Process the single next entry in the event queue."""
        times = self._times
        buckets = self._buckets
        while True:
            when = times[0]        # IndexError on an empty queue, as before
            bucket = buckets[when]
            if bucket:
                break
            # A run_until() that broke out mid-bucket can leave a drained
            # bucket behind; discard it and look at the next time.
            del buckets[when]
            heapq.heappop(times)
        entry = bucket.popleft()
        if not bucket:
            del buckets[when]
            heapq.heappop(times)
        self.now = when
        self.events_processed += 1
        if isinstance(entry, Event):
            entry._run_callbacks()
        else:
            entry()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until simulated time *until*.

        With ``until`` set, the clock is advanced to exactly ``until`` even
        if the last event fires earlier, so back-to-back ``run(until=...)``
        calls observe a monotone clock.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}; clock is already at {self.now}")
        # One heap pop per *distinct time*: the inner loop drains the
        # bucket, including entries appended to it mid-drain (a callback
        # scheduling at ``now`` lands in the bucket being drained, exactly
        # where the (time, sequence) order puts it).
        times = self._times
        buckets = self._buckets
        pop_time = heapq.heappop
        processed = self.events_processed
        try:
            while times:
                when = times[0]
                if until is not None and when > until:
                    break
                bucket = buckets[when]
                self.now = when
                while bucket:
                    entry = bucket.popleft()
                    processed += 1
                    if isinstance(entry, Event):
                        entry._run_callbacks()
                    else:
                        entry()
                del buckets[when]
                pop_time(times)
        finally:
            self.events_processed = processed
        if until is not None:
            self.now = max(self.now, until)

    def run_until(self, event: Event) -> Any:
        """Run until *event* is processed; return its value, raising if the
        event failed."""
        times = self._times
        buckets = self._buckets
        pop_time = heapq.heappop
        processed = self.events_processed
        # A processed event answers without touching queue or clock.
        event_processed = event._processed
        try:
            while not event_processed:
                if not times:
                    raise SimulationError(
                        "simulation deadlocked: event queue empty but the "
                        "awaited event never triggered")
                when = times[0]
                bucket = buckets[when]
                self.now = when
                while bucket:
                    entry = bucket.popleft()
                    processed += 1
                    if isinstance(entry, Event):
                        entry._run_callbacks()
                    else:
                        entry()
                    if event._processed:
                        # Stop exactly here, like the per-entry heap pop
                        # would: the rest of the bucket stays queued.
                        event_processed = True
                        break
                if not bucket:
                    del buckets[when]
                    pop_time(times)
        finally:
            self.events_processed = processed
        if not event._ok:
            event.defuse()
            raise event.value
        return event.value


class HeapqSimulator(Simulator):
    """The original one-heap-entry-per-event engine.

    Kept as the executable specification of scheduling order: entries are
    ``(time, sequence)`` tuples in a single binary heap.  The equivalence
    tests run identical workloads on both engines and assert identical
    clocks, event counts and latencies; production code uses the calendar
    queue of :class:`Simulator`.
    """

    def __init__(self):
        super().__init__()
        self._queue: list[tuple[float, int, Any]] = []
        self._sequence = 0

    def _push(self, when: float, entry: Any) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (when, self._sequence, entry))

    def queue_empty(self) -> bool:
        return not self._queue

    def step(self) -> None:
        when, __, entry = heapq.heappop(self._queue)
        self.now = when
        self.events_processed += 1
        if isinstance(entry, Event):
            entry._run_callbacks()
        else:
            entry()

    def run(self, until: Optional[float] = None) -> None:
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}; clock is already at {self.now}")
        queue = self._queue
        pop = heapq.heappop
        processed = self.events_processed
        try:
            while queue:
                when = queue[0][0]
                if until is not None and when > until:
                    break
                when, __, entry = pop(queue)
                self.now = when
                processed += 1
                if isinstance(entry, Event):
                    entry._run_callbacks()
                else:
                    entry()
        finally:
            self.events_processed = processed
        if until is not None:
            self.now = max(self.now, until)

    def run_until(self, event: Event) -> Any:
        queue = self._queue
        pop = heapq.heappop
        processed = self.events_processed
        try:
            while not event._processed:
                if not queue:
                    raise SimulationError(
                        "simulation deadlocked: event queue empty but the "
                        "awaited event never triggered")
                when, __, entry = pop(queue)
                self.now = when
                processed += 1
                if isinstance(entry, Event):
                    entry._run_callbacks()
                else:
                    entry()
        finally:
            self.events_processed = processed
        if not event._ok:
            event.defuse()
            raise event.value
        return event.value
