"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import ReproError, SimulationError
from repro.sim import Interrupt, Resource, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return sim.now

    result = sim.run_until(sim.spawn(proc(sim)))
    assert result == 2.5
    assert sim.now == 2.5


def test_timeout_value_passed_to_process():
    sim = Simulator()

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        return value

    assert sim.run_until(sim.spawn(proc(sim))) == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0.1)
        return 42

    assert sim.run_until(sim.spawn(proc(sim))) == 42


def test_process_joins_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3.0)
        return "child-done"

    def parent(sim):
        result = yield sim.spawn(child(sim))
        return (result, sim.now)

    assert sim.run_until(sim.spawn(parent(sim))) == ("child-done", 3.0)


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run_until(sim.spawn(parent(sim))) == "caught boom"


def test_unjoined_process_failure_raises_from_run():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("unattended")

    sim.spawn(child(sim))
    with pytest.raises(ValueError, match="unattended"):
        sim.run()


def test_events_at_same_time_fire_in_creation_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_boundary():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(5.0)
        fired.append(sim.now)

    sim.spawn(proc(sim))
    sim.run(until=3.0)
    assert fired == []
    assert sim.now == 3.0
    sim.run(until=10.0)
    assert fired == [5.0]
    assert sim.now == 10.0


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_interrupt_wakes_waiting_process():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, sim.now)
        return "slept"

    proc = sim.spawn(sleeper(sim))

    def killer(sim):
        yield sim.timeout(2.0)
        proc.interrupt(cause="kill -9")

    sim.spawn(killer(sim))
    assert sim.run_until(proc) == ("interrupted", "kill -9", 2.0)


def test_interrupt_abandons_original_wait():
    """After an interrupt, the stale timeout must not resume the process."""
    sim = Simulator()
    resumed = []

    def sleeper(sim):
        try:
            yield sim.timeout(5.0)
            resumed.append("timeout")
        except Interrupt:
            yield sim.timeout(10.0)   # outlives the abandoned timeout
            resumed.append("post-interrupt")

    proc = sim.spawn(sleeper(sim))

    def killer(sim):
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.spawn(killer(sim))
    sim.run()
    assert resumed == ["post-interrupt"]
    assert sim.now == 11.0


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.5)
        return "done"

    proc = sim.spawn(quick(sim))
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()
    assert proc.value == "done"


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def proc(sim, delay, value):
        yield sim.timeout(delay)
        return value

    def main(sim):
        procs = [sim.spawn(proc(sim, 3.0, "slow")),
                 sim.spawn(proc(sim, 1.0, "fast"))]
        values = yield sim.all_of(procs)
        return (values, sim.now)

    assert sim.run_until(sim.spawn(main(sim))) == (["slow", "fast"], 3.0)


def test_all_of_empty_completes_immediately():
    sim = Simulator()

    def main(sim):
        values = yield sim.all_of([])
        return values

    assert sim.run_until(sim.spawn(main(sim))) == []


def test_any_of_returns_first_winner():
    sim = Simulator()

    def main(sim):
        winner = yield sim.any_of([sim.timeout(5.0, "slow"),
                                   sim.timeout(1.0, "fast")])
        return (winner, sim.now)

    assert sim.run_until(sim.spawn(main(sim))) == ((1, "fast"), 1.0)


def test_event_succeed_twice_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield "not an event"

    proc = sim.spawn(bad(sim))
    with pytest.raises(SimulationError, match="may only yield"):
        sim.run_until(proc)


def test_deadlock_detection_in_run_until():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered by anyone

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until(sim.spawn(stuck(sim)))


def test_determinism_two_identical_runs():
    """Two simulations of the same program produce identical traces."""

    def build_trace():
        sim = Simulator()
        trace = []

        def worker(sim, tag, delay):
            for __ in range(3):
                yield sim.timeout(delay)
                trace.append((tag, sim.now))

        sim.spawn(worker(sim, "x", 1.0))
        sim.spawn(worker(sim, "y", 0.7))
        sim.run()
        return trace

    assert build_trace() == build_trace()


# -- calendar-queue vs heapq engine equivalence -------------------------------
#
# HeapqSimulator is the executable specification of scheduling order (one
# (time, sequence) heap entry per event); the production Simulator must
# reproduce it exactly — same clock, same event counts, same per-op
# latencies — on workloads that stress shared-instant buckets, resource
# queues, and process joins.


def _randomized_storm(sim, seed, workers=8, ops=40):
    """Drive a random mix of timeouts, resource holds, and child joins;
    return the per-op latency trace (engine-order sensitive: quantized
    delays force many events to share trigger instants)."""
    import random as _random

    resource = Resource(sim, capacity=2)
    latencies = []

    def worker(wid):
        rng = _random.Random(seed * 1000 + wid)
        for __ in range(ops):
            started = sim.now
            choice = rng.random()
            if choice < 0.5:
                yield sim.timeout(rng.randrange(0, 8) * 0.25)
            elif choice < 0.8:
                if not resource.try_acquire():
                    yield resource.request(rng.randrange(-1, 2))
                yield sim.timeout(rng.randrange(1, 4) * 0.125)
                resource.release()
            else:
                def child(delay):
                    yield sim.timeout(delay)
                    return delay
                yield sim.spawn(child(rng.randrange(0, 5) * 0.5))
            latencies.append((wid, round(sim.now - started, 9)))
        return wid, sim.now

    procs = [sim.spawn(worker(wid)) for wid in range(workers)]
    done = sim.all_of(procs)
    # Awaited in a shuffled order, then all over again: most of these
    # events are already processed when run_until is handed them.
    awaited = []
    order = _random.Random(seed).sample(procs, len(procs))
    for event in order + [done] + procs + [done]:
        awaited.append((sim.run_until(event), sim.now,
                        sim.events_processed))
    return latencies, awaited


@pytest.mark.parametrize("seed", [1, 2, 3, 11, 29])
def test_engine_equivalence_randomized(seed):
    from repro.sim.core import HeapqSimulator

    runs = []
    for engine in (Simulator, HeapqSimulator):
        sim = engine()
        latencies, awaited = _randomized_storm(sim, seed)
        runs.append((sim.now, sim.events_processed, latencies, awaited))
    calendar, heapq_ref = runs
    assert calendar[0] == heapq_ref[0]      # identical clocks
    assert calendar[1] == heapq_ref[1]      # identical event counts
    assert calendar[2] == heapq_ref[2]      # identical op latencies
    # ... and identical answers, clocks and counts after every await,
    # of an unprocessed event or a processed one.
    assert calendar[3] == heapq_ref[3]
    # The second pass (after the first ``done``) awaited only finished
    # events: it left clock and count where the first pass ended.
    first_pass = len(calendar[3]) // 2
    assert {entry[1:] for entry in calendar[3][first_pass - 1:]} \
        == {calendar[3][-1][1:]}


@pytest.mark.parametrize("engine", ["Simulator", "HeapqSimulator"])
def test_run_until_a_processed_event_moves_nothing(engine):
    """Awaiting a finished event answers from the event: the queue is
    not stepped and the clock stays (the calendar engine used to run one
    more entry — here to t=5.0 — or call an empty queue a deadlock)."""
    from repro.sim import core

    sim = getattr(core, engine)()

    def sleeper(delay, value):
        yield sim.timeout(delay)
        return value

    first = sim.spawn(sleeper(1.0, 7))
    second = sim.spawn(sleeper(5.0, 8))
    assert sim.run_until(first) == 7
    stamp = (sim.now, sim.events_processed)
    assert sim.run_until(first) == 7
    assert (sim.now, sim.events_processed) == stamp and sim.now == 1.0
    assert sim.run_until(second) == 8 and sim.now == 5.0
    assert sim.queue_empty()
    assert sim.run_until(first) == 7       # empty queue: no "deadlock"

    def failing():
        yield sim.timeout(0.5)
        raise KeyError("boom")

    failed = sim.spawn(failing())
    for __ in range(2):                    # the defused failure, again
        with pytest.raises(KeyError):
            sim.run_until(failed)
    assert sim.now == 5.5


# -- kernel contract pins: what the FTLs' joins lean on ------------------------
#
# Each scenario returns what it observed plus ``(now, events_processed)``;
# both engines must give the expected observation and the same stamp.

def _sleeper(sim, delay, value, log=None):
    try:
        yield sim.timeout(delay)
    except Interrupt as stop:
        log.append((value, stop.cause, sim.now))
        raise
    return value


def _all_of_nothing(sim):
    return sim.run_until(sim.all_of([]))


def _aggregates_over_processed_children(sim):
    first = sim.spawn(_sleeper(sim, 1.0, "a"))
    second = sim.spawn(_sleeper(sim, 2.0, "b"))
    sim.run()
    return (sim.run_until(sim.all_of([first, second])),
            sim.run_until(sim.any_of([second, first])), sim.now)


def _yield_of_a_processed_event(sim):
    done = sim.spawn(_sleeper(sim, 1.0, "early"))

    def late():
        yield sim.timeout(4.0)
        value = yield done                  # finished three seconds ago
        return value, sim.now

    return sim.run_until(sim.spawn(late()))


def _interrupt_of_a_finished_process(sim):
    done = sim.spawn(_sleeper(sim, 1.0, "over"))
    sim.run()
    stamp = (sim.now, sim.events_processed)
    done.interrupt("too late")
    sim.run()
    return (done.value, sim.queue_empty(),
            (sim.now, sim.events_processed) == stamp)


def _join_with_a_failing_sibling(sim):
    def failing():
        yield sim.timeout(1.0)
        raise ReproError("sibling failed at 1.0")

    def parent():
        started = sim.now
        try:
            yield from sim.join_proc(
                [_sleeper(sim, 2.0, "x"), failing(), _sleeper(sim, 3.0, "y")])
        except ReproError as failure:
            return str(failure), sim.now - started

    return sim.run_until(sim.spawn(parent()))


def _join_of_one_and_of_none(sim):
    def parent():
        nothing = yield from sim.join_proc([])
        one = yield from sim.join_proc([_sleeper(sim, 1.5, "inline")])
        return nothing, one, sim.now

    return sim.run_until(sim.spawn(parent()))


def _join_interrupted(sim):
    log = []

    def parent():
        try:
            yield from sim.join_proc([_sleeper(sim, 5.0, "p", log),
                                      _sleeper(sim, 7.0, "q", log)])
        except Interrupt as stop:
            return "interrupted", stop.cause, sim.now

    joining = sim.spawn(parent())
    sim.run(until=1.0)
    joining.interrupt("power off")
    outcome = sim.run_until(joining)
    sim.run()                               # the children die at 1.0 too
    return outcome, log, sim.queue_empty()


def _unhandled_failure_leaves_an_empty_queue(sim):
    # Found by tests/test_kernel_lockstep.py: the calendar queue kept the
    # bucket the raising entry was drained from and called itself busy.
    def doomed():
        yield sim.timeout(1.0)

    sim.spawn(doomed()).interrupt("kill")   # nobody waits: run() raises
    with pytest.raises(Interrupt):
        sim.run()
    return sim.now, sim.queue_empty()


CONTRACT = [
    (_all_of_nothing, []),
    (_aggregates_over_processed_children, (["a", "b"], (0, "b"), 2.0)),
    (_yield_of_a_processed_event, ("early", 4.0)),
    (_interrupt_of_a_finished_process, ("over", True, True)),
    (_join_with_a_failing_sibling, ("sibling failed at 1.0", 3.0)),
    (_join_of_one_and_of_none, ([], ["inline"], 1.5)),
    (_join_interrupted, (("interrupted", "power off", 1.0),
                         [("p", "power off", 1.0), ("q", "power off", 1.0)],
                         True)),
    (_unhandled_failure_leaves_an_empty_queue, (0.0, True)),
]


@pytest.mark.parametrize("scenario, expected", CONTRACT,
                         ids=[scenario.__name__.strip("_")
                              for scenario, __ in CONTRACT])
def test_kernel_contract_is_the_same_on_both_engines(scenario, expected):
    from repro.sim.core import HeapqSimulator

    stamps = []
    for engine in (Simulator, HeapqSimulator):
        sim = engine()
        assert scenario(sim) == expected, engine.__name__
        stamps.append((sim.now, sim.events_processed))
    assert stamps[0] == stamps[1]
