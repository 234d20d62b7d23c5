"""``Simulator`` against ``HeapqSimulator``, one API call at a time.

``HeapqSimulator`` is kept as the executable specification of scheduling
order; this state machine is what lets it earn that place.  Both engines
receive the same calls — spawn a process or a timeout, request and
release a resource, ``all_of`` / ``any_of`` over earlier events,
interrupt any process (finished or not), ``run_until`` on any event
created so far (processed or not), ``run(until=now + δ)``, ``step`` — and
after every call they must agree on ``now``, ``events_processed``, what
the call returned or raised, and the state of every event.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ReproError
from repro.sim import Interrupt, Resource, Simulator
from repro.sim.core import HeapqSimulator

#: Quantized delays: most wakeups share an instant with another one.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
#: One step of a process: sleep, hold the resource, or await an event.
STEPS = st.lists(st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("hold"), DELAYS, st.integers(-1, 1)),
    st.tuples(st.just("await"), st.integers(0, 1 << 16))), max_size=4)


def shape(value):
    """*value* with engine-specific objects replaced by what they are."""
    if isinstance(value, Resource):
        return "resource"
    if isinstance(value, BaseException):
        return type(value).__name__
    if isinstance(value, (list, tuple)):
        return type(value)(shape(item) for item in value)
    return value


def worker(sim, resource, steps, awaitable, value, fails, catches):
    """A process of *steps*; it returns *value*, or raises if *fails*."""
    try:
        for step in steps:
            if step[0] == "sleep":
                yield sim.timeout(step[1])
            elif step[0] == "hold":     # an interrupt mid-hold keeps it
                yield resource.request(step[2])
                yield sim.timeout(step[1])
                resource.release()
            elif awaitable:
                yield awaitable[step[1] % len(awaitable)]
    except Interrupt as stop:
        if not catches:
            raise
        return "interrupted", stop.cause, sim.now
    if fails:
        raise ReproError(f"worker {value} failed")
    return value, sim.now


class KernelLockstep(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.sims = (Simulator(), HeapqSimulator())
        self.resources = tuple(Resource(sim, capacity=2)
                               for sim in self.sims)
        self.events = ([], [])       # per engine, created in lockstep
        self.processes = ([], [])

    def _both(self, call):
        """Run ``call(engine)`` on each engine and compare the outcomes."""
        outcomes = []
        for engine in (0, 1):
            try:
                outcomes.append(("returned", shape(call(engine))))
            except Exception as exc:     # noqa: BLE001 - compared below
                outcomes.append(("raised", type(exc).__name__))
        assert outcomes[0] == outcomes[1]

    @rule(steps=STEPS, value=st.integers(0, 9), fails=st.booleans(),
          catches=st.booleans())
    def spawn(self, steps, value, fails, catches):
        for engine, sim in enumerate(self.sims):
            process = sim.spawn(worker(
                sim, self.resources[engine], steps,
                list(self.events[engine]), value, fails, catches))
            self.events[engine].append(process)
            self.processes[engine].append(process)

    @rule(delay=DELAYS, value=st.integers(0, 9))
    def timeout(self, delay, value):
        for engine, sim in enumerate(self.sims):
            self.events[engine].append(sim.timeout(delay, value))

    @rule(picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=3),
          first=st.booleans())
    def aggregate(self, picks, first):
        if self.events[0]:
            for engine, sim in enumerate(self.sims):
                events = self.events[engine]
                chosen = [events[pick % len(events)] for pick in picks]
                events.append(sim.any_of(chosen) if first
                              else sim.all_of(chosen))

    @rule(priority=st.integers(-1, 1))
    def request(self, priority):
        for engine, resource in enumerate(self.resources):
            self.events[engine].append(resource.request(priority))

    @rule()
    def release(self):
        self._both(lambda engine: self.resources[engine].release())

    @rule(choice=st.integers(0, 1 << 16), cause=st.integers(0, 9))
    def interrupt(self, choice, cause):
        if self.processes[0]:
            index = choice % len(self.processes[0])
            self._both(lambda engine:
                       self.processes[engine][index].interrupt(cause))

    @rule(choice=st.integers(0, 1 << 16))
    def run_until(self, choice):
        if self.events[0]:
            index = choice % len(self.events[0])
            self._both(lambda engine: self.sims[engine].run_until(
                self.events[engine][index]))

    @rule(delta=st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]))
    def run(self, delta):
        self._both(lambda engine: self.sims[engine].run(
            until=self.sims[engine].now + delta))

    @rule()
    def step(self):
        self._both(lambda engine: self.sims[engine].step())

    @invariant()
    def engines_agree(self):
        calendar, reference = self.sims
        assert calendar.now == reference.now
        assert calendar.events_processed == reference.events_processed
        assert calendar.queue_empty() == reference.queue_empty()
        assert self.resources[0].in_use == self.resources[1].in_use
        states = [[(event.triggered, event.processed, event.ok,
                    shape(event.value) if event.triggered else None)
                   for event in self.events[engine]] for engine in (0, 1)]
        assert states[0] == states[1]


TestKernelLockstep = KernelLockstep.TestCase
TestKernelLockstep.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
