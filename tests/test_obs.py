"""Tests for repro.obs: tracer, metrics, exporters, attribution, wiring.

The unit tests exercise the instruments against a fake clock; the
end-to-end tests drive the real stack — attach an :class:`Obs` hub to an
Open-Channel SSD, run OX-Block / LSM workloads — and then check the
subsystem's three invariants: spans nest, per-layer exclusive times sum
to the end-to-end root durations, and the Chrome export keeps the tree.
"""

import glob
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.lsm import DB, DBConfig, HorizontalPlacement, LightLSMEnv
from repro.nand import FlashGeometry
from repro.obs import (
    MetricsRegistry,
    Obs,
    Span,
    Tracer,
    attribute,
    format_table,
    percentile_of,
    validate_nesting,
    write_chrome_trace,
)
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ocssd.address import Ppa
from repro.ox import BlockConfig, MediaManager, OXBlock
from repro.units import KIB

SS = 4096
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    """Stands in for the simulator: the tracer only reads ``.now``."""

    def __init__(self, now=0.0):
        self.now = now


def make_tracer(**kwargs):
    tracer = Tracer(**kwargs)
    tracer.sim = FakeClock()
    return tracer


def small_geometry(groups=2, pus=2, chunks=16, pages=6):
    return DeviceGeometry(
        num_groups=groups, pus_per_group=pus,
        flash=FlashGeometry(blocks_per_plane=chunks, pages_per_block=pages))


def traced_stack(gc_enabled=True, **geo):
    """Attach first, build the stack second (layers inherit from sim.obs)."""
    device = OpenChannelSSD(geometry=small_geometry(**geo))
    obs = Obs().attach(device)
    ftl = OXBlock.format(MediaManager(device), BlockConfig(
        wal_chunk_count=2, ckpt_chunks_per_slot=1, gc_enabled=gc_enabled))
    return device, obs, ftl


def run_block_workload(device, ftl, ops=10):
    unit = device.geometry.ws_min
    payload = bytes(unit * SS)
    for op in range(ops):
        ftl.write(op * unit, payload)
    for op in range(0, ops, 3):
        ftl.read(op * unit, 1)
    ftl.flush()
    device.sim.run()


class TestMetrics:
    def test_counter_accumulates_and_is_memoized(self):
        registry = MetricsRegistry()
        registry.counter("ftl.gc.deferrals").increment()
        registry.counter("ftl.gc.deferrals").increment(5)
        counter = registry.counter("ftl.gc.deferrals")
        assert counter.value == 6
        assert counter is registry.counter("ftl.gc.deferrals")

    def test_histogram_nearest_rank_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        histogram.extend(float(v) for v in range(100, 0, -1))
        assert histogram.count == 100
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(95) == 95.0
        assert histogram.percentile(99) == 99.0
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0
        assert histogram.maximum() == 100.0
        assert histogram.mean() == pytest.approx(50.5)

    def test_empty_histogram_reports_zeroes(self):
        histogram = MetricsRegistry().histogram("idle")
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["p99"] == 0.0
        assert summary["max"] == 0.0

    def test_percentile_range_checked_before_emptiness(self):
        with pytest.raises(ValueError):
            percentile_of([], 101)
        with pytest.raises(ValueError):
            percentile_of([1.0], -0.5)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_contains_and_names(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert "a" in registry and "c" not in registry
        assert registry.names() == ["a", "b"]
        assert len(registry) == 2


def test_count_has_one_home_grep_pin():
    """A count lives in its layer's ``stats``, not twice: nothing under
    ``src/repro``, ``benchmarks`` or ``scripts`` sets a gauge, and the
    registry counters in ``src/repro`` are the hub's alone (errors,
    spawns)."""
    hub = os.path.join("src", "repro", "obs", "hub.py")

    def pinned(path, line):
        if ".gauge(" in line:
            return True
        return ("metrics.counter(" in line and path.startswith("src")
                and path != hub)

    paths = [path for top in ("src/repro", "benchmarks", "scripts")
             for path in glob.glob(os.path.join(REPO_ROOT, top, "**", "*.py"),
                                   recursive=True)]
    assert len(paths) > 90
    hits = []
    for path in paths:
        relative = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            hits += [f"{relative}:{number}: {line.strip()}"
                     for number, line in enumerate(handle, 1)
                     if pinned(relative, line)]
    assert not hits, "\n".join(hits)


class TestTracer:
    def test_begin_end_records_interval(self):
        tracer = make_tracer()
        tracer.sim.now = 1.0
        span = tracer.begin("ftl", "write")
        tracer.sim.now = 3.5
        tracer.end(span, sectors=24)
        assert span.start == 1.0 and span.end == 3.5
        assert span.duration == pytest.approx(2.5)
        assert span.attrs == {"sectors": 24}
        assert tracer.finished_spans() == [span]

    def test_parent_threading(self):
        tracer = make_tracer()
        parent = tracer.begin("ftl", "write")
        child = tracer.begin("ocssd", "write", parent)
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None

    def test_end_none_is_a_noop(self):
        make_tracer().end(None, anything=1)

    def test_end_merges_attrs(self):
        tracer = make_tracer()
        span = tracer.begin("ftl", "write")
        tracer.end(span, a=1)
        tracer.end(span, b=2)
        assert span.attrs == {"a": 1, "b": 2}

    def test_complete_records_known_interval(self):
        tracer = make_tracer()
        span = tracer.complete("nand", "read", 2.0, 2.25, sectors=4)
        assert span.start == 2.0 and span.end == 2.25
        assert span.attrs == {"sectors": 4}

    def test_event_cap_degrades_to_dropped(self):
        tracer = make_tracer(max_events=2)
        tracer.begin("a", "x")
        tracer.begin("a", "y")
        # Past the cap a span still times its caller; the trace drops it.
        late = tracer.begin("a", "z")
        tracer.end(late)
        assert late.duration == 0.0 and late not in tracer.spans
        assert [span.name for span in tracer.spans] == ["x", "y"]
        assert tracer.dropped == 1
        tracer.end(None)   # call sites stay unconditional
        # Instants have their own budget against the same cap.
        tracer.instant("a", "i1")
        tracer.instant("a", "i2")
        tracer.instant("a", "i3")
        assert tracer.dropped == 2
        assert len(tracer.instants) == 2


class TestValidateNesting:
    def test_well_nested_forest_is_clean(self):
        tracer = make_tracer()
        root = tracer.begin("ftl", "write")
        tracer.sim.now = 1.0
        child = tracer.begin("ocssd", "write", root)
        tracer.sim.now = 2.0
        tracer.end(child)
        tracer.sim.now = 3.0
        tracer.end(root)
        assert validate_nesting(tracer.spans) == []

    def test_child_escaping_parent_flagged(self):
        tracer = make_tracer()
        root = tracer.begin("ftl", "write")
        child = tracer.begin("ocssd", "write", root)
        tracer.sim.now = 2.0
        tracer.end(root)
        tracer.sim.now = 5.0
        tracer.end(child)   # outlives its parent
        violations = validate_nesting(tracer.spans)
        assert len(violations) == 1
        assert "escapes parent" in violations[0]

    def test_unknown_parent_flagged(self):
        tracer = make_tracer()
        span = tracer.begin("ftl", "write")
        span.parent_id = 999
        tracer.end(span)
        assert any("unknown parent" in v
                   for v in validate_nesting(tracer.spans))

    def test_unfinished_spans_skipped(self):
        tracer = make_tracer()
        root = tracer.begin("ftl", "write")
        tracer.begin("ocssd", "write", root)   # never ended
        tracer.end(root)
        assert validate_nesting(tracer.spans) == []


class TestAttribution:
    def build_forest(self):
        """root ftl [0,10] > ocssd [2,8] > nand [3,5]."""
        tracer = make_tracer()
        root = tracer.begin("ftl", "write")
        tracer.sim.now = 2.0
        mid = tracer.begin("ocssd", "write", root)
        tracer.sim.now = 3.0
        leaf = tracer.begin("nand", "program", mid)
        tracer.sim.now = 5.0
        tracer.end(leaf)
        tracer.sim.now = 8.0
        tracer.end(mid)
        tracer.sim.now = 10.0
        tracer.end(root)
        return tracer

    def test_exclusive_times_sum_to_roots(self):
        result = attribute(self.build_forest().spans)
        assert result.root_spans == 1
        assert result.root_total == pytest.approx(10.0)
        assert result.layers["ftl"].exclusive == pytest.approx(4.0)
        assert result.layers["ocssd"].exclusive == pytest.approx(4.0)
        assert result.layers["nand"].exclusive == pytest.approx(2.0)
        assert result.consistent

    def test_detached_roots_both_count(self):
        tracer = make_tracer()
        first = tracer.begin("ftl", "write")
        tracer.sim.now = 1.0
        tracer.end(first)
        second = tracer.begin("ftl.gc", "collect")   # background root
        tracer.sim.now = 4.0
        tracer.end(second)
        result = attribute(tracer.spans)
        assert result.root_spans == 2
        assert result.root_total == pytest.approx(4.0)
        assert result.consistent

    def test_unfinished_spans_excluded(self):
        tracer = self.build_forest()
        tracer.begin("ftl", "in-flight")   # never ends
        result = attribute(tracer.spans)
        assert result.unfinished == 1
        assert result.consistent

    def test_children_of_unfinished_roots_dropped(self):
        tracer = make_tracer()
        root = tracer.begin("ftl", "write")        # never ends
        child = tracer.begin("ocssd", "write", root)
        tracer.sim.now = 2.0
        tracer.end(child)
        result = attribute(tracer.spans)
        assert result.root_spans == 0
        assert "ocssd" not in result.layers

    def test_format_table_shows_identity(self):
        lines = format_table(attribute(self.build_forest().spans))
        text = "\n".join(lines)
        assert "end-to-end" in text
        assert "100.0%" in text
        assert "DRIFT" not in text
        # The per-(layer, name) rows close the table, one per span kind.
        assert [line.split()[-1] for line in lines[-3:]] == [
            "ftl/write", "ocssd/write", "nand/program"]

    def test_side_by_side_children_split_along_the_critical_path(self):
        """root ftl [0,10] > ocssd/read [1,6] > nand/read [2,3];
        ocssd/write [4,8] beside it; nand/program [7,12] ends past the
        root and is clipped; ocssd/flush [2,3] is off the path.  Walking
        back from 10: program gates [7,10], write [4,7], read [1,4] (its
        nand read [2,3] inside), and the root's own is [0,1]."""
        tracer = make_tracer()
        root = tracer.complete("ftl", "write", 0.0, 10.0)
        read = tracer.complete("ocssd", "read", 1.0, 6.0, root)
        tracer.complete("nand", "read", 2.0, 3.0, read)
        tracer.complete("ocssd", "write", 4.0, 8.0, root)
        tracer.complete("nand", "program", 7.0, 12.0, root)
        tracer.complete("ocssd", "flush", 2.0, 3.0, root)
        result = attribute(tracer.spans)
        assert {layer: row.exclusive for layer, row
                in result.layers.items()} == pytest.approx(
            {"ftl": 1.0, "ocssd": 5.0, "nand": 4.0})
        assert {key: row.exclusive for key, row
                in result.names.items()} == pytest.approx({
                    ("ftl", "write"): 1.0, ("ocssd", "read"): 2.0,
                    ("nand", "read"): 1.0, ("ocssd", "write"): 3.0,
                    ("nand", "program"): 3.0, ("ocssd", "flush"): 0.0})
        # Inclusive time is untouched by the path.
        assert result.names["nand", "program"].total == pytest.approx(5.0)
        assert result.names["ocssd", "flush"].total == pytest.approx(1.0)
        assert result.names["ocssd", "flush"].spans == 1
        assert result.consistent

    def test_ties_go_to_the_span_traced_first(self):
        tracer = make_tracer()
        root = tracer.complete("ftl", "write", 0.0, 4.0)
        tracer.complete("ocssd", "write", 1.0, 4.0, root)
        tracer.complete("nand", "program", 1.0, 4.0, root)
        result = attribute(tracer.spans)
        assert result.layers["ocssd"].exclusive == pytest.approx(3.0)
        assert result.layers["nand"].exclusive == 0.0

    def test_a_deep_chain_needs_no_recursion(self):
        tracer = make_tracer()
        parent = None
        for depth in range(5000):
            parent = tracer.complete("ftl", "step", depth, 10000.0, parent)
        result = attribute(tracer.spans)
        assert result.root_spans == 1 and result.consistent
        assert result.layers["ftl"].exclusive == pytest.approx(10000.0)

    def test_a_span_listed_as_its_own_parent_is_walked_once(self):
        """Read back from a file, ids need not be unique (a Chrome event
        without ``args`` gets id 0): the walk still ends."""
        root = Span(0, None, "ftl", "write", 0.0)
        child = Span(0, 0, "ocssd", "write", 1.0)
        root.end, child.end = 4.0, 3.0
        result = attribute([root, child])
        assert result.root_total == pytest.approx(4.0)
        assert result.layers["ocssd"].spans == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_forest_splits_without_going_negative(self, data):
        """Children anywhere: side by side, escaping their parent,
        unfinished, or under an unfinished parent."""
        spans = []
        for span_id in range(1, data.draw(st.integers(1, 25)) + 1):
            parent = data.draw(st.none() | st.integers(0, span_id))
            span = Span(span_id, parent or None,
                        data.draw(st.sampled_from("abc")), "x",
                        data.draw(st.integers(0, 40)) / 4)
            if data.draw(st.integers(0, 9)):
                span.end = span.start + data.draw(st.integers(0, 40)) / 4
            spans.append(span)
        result = attribute(spans)
        rows = [*result.layers.values(), *result.names.values()]
        assert all(row.exclusive >= 0 for row in rows)
        assert sum(row.exclusive for row in result.layers.values()) \
            == pytest.approx(result.root_total)
        assert result.consistent

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_without_overlap_it_is_the_sum_of_children_fold(self, data):
        """Where siblings never overlap, the critical path runs through
        every child: the old duration-minus-children rule, kept here as
        the oracle, gives the same numbers."""
        tracer = make_tracer()

        def grow(parent, lo, hi, depth):
            points = sorted(data.draw(st.lists(st.integers(lo, hi),
                                               max_size=6 if depth else 0)))
            for start, end in zip(points[::2], points[1::2]):
                span = tracer.complete(data.draw(st.sampled_from("abc")),
                                       data.draw(st.sampled_from("xy")),
                                       start / 8, end / 8, parent)
                grow(span, start, end, depth - 1)

        grow(None, 0, 200, 3)
        result = attribute(tracer.spans)
        layers, names = sum_of_children_fold(tracer.spans)
        assert {layer: row.exclusive for layer, row
                in result.layers.items()} == pytest.approx(layers)
        assert {key: row.exclusive for key, row
                in result.names.items()} == pytest.approx(names)


def sum_of_children_fold(spans):
    """The exclusive time rule before the critical-path fold: duration
    minus the summed duration of direct children (it goes negative once
    children run side by side).  Returns per-layer and per-name sums."""
    finished = [span for span in spans if span.end is not None]
    by_id = {span.span_id: span for span in finished}
    child_time = {}
    rooted = []
    for span in finished:
        cursor = span
        while cursor.parent_id is not None:
            parent = by_id.get(cursor.parent_id)
            if parent is None:
                break
            cursor = parent
        else:
            rooted.append(span)
            if span.parent_id is not None:
                child_time[span.parent_id] = \
                    child_time.get(span.parent_id, 0.0) + span.duration
    layers, names = {}, {}
    for span in rooted:
        exclusive = span.duration - child_time.get(span.span_id, 0.0)
        for table, key in ((layers, span.layer),
                           (names, (span.layer, span.name))):
            table[key] = table.get(key, 0.0) + exclusive
    return layers, names


class TestWiring:
    def test_attach_twice_raises(self):
        device = OpenChannelSSD(geometry=small_geometry())
        obs = Obs().attach(device)
        with pytest.raises(ReproError):
            obs.attach(device)

    def test_attach_wires_every_layer(self):
        device, obs, ftl = traced_stack()
        assert device.obs is obs
        assert device.controller.obs is obs
        assert device.sim.obs is obs
        assert ftl.obs is obs
        assert ftl.journal.wal.obs is obs
        assert all(chip.obs is obs for chip in device.chips.values())

    def test_detach_disables_recording(self):
        device, obs, ftl = traced_stack()
        run_block_workload(device, ftl, ops=2)
        obs.detach()
        assert device.obs is None and device.sim.obs is None
        recorded = len(obs.tracer.spans)
        unit = device.geometry.ws_min
        # Layers built after attach hold their own reference by design;
        # a full disable nulls those too.
        ftl.obs = ftl.journal.wal.obs = ftl.gc.obs = None
        ftl.write(0, bytes(unit * SS))
        assert len(obs.tracer.spans) == recorded

    def test_unattached_stack_records_nothing(self):
        """Zero-cost path: without a hub every obs attribute stays None."""
        device = OpenChannelSSD(geometry=small_geometry())
        ftl = OXBlock.format(MediaManager(device), BlockConfig(
            wal_chunk_count=2, ckpt_chunks_per_slot=1))
        assert device.obs is None
        assert device.controller.obs is None
        assert device.sim.obs is None
        assert ftl.obs is None and ftl.journal.wal.obs is None
        unit = device.geometry.ws_min
        ftl.write(0, bytes(unit * SS))
        assert ftl.read(0, 1) == b"\x00" * SS or ftl.read(0, 1)


class TestEndToEndBlock:
    def test_spans_nest_and_attribution_is_consistent(self):
        device, obs, ftl = traced_stack()
        run_block_workload(device, ftl)
        assert len(obs.tracer.spans) > 0
        assert validate_nesting(obs.tracer.spans) == []
        result = attribute(obs.tracer.spans)
        assert result.consistent
        assert result.root_total > 0
        assert {"ftl", "ocssd", "nand"} <= set(result.layers)

    def test_metric_namespaces_populated(self):
        device, obs, ftl = traced_stack()
        run_block_workload(device, ftl, ops=8)
        metrics = obs.metrics
        # A media histogram's count is the operation count; sectors are
        # the controller's own stats.
        assert metrics.histogram("nand.program.media_s").count > 0
        assert device.controller.stats.sectors_written \
            >= 8 * device.geometry.ws_min
        assert metrics.histogram("ftl.write.latency_s").count == 8
        assert metrics.counter("sim.processes_spawned").value > 0
        # Whole units with nothing buffered commit in their own OOB; a
        # partial unit's write commits through the WAL.
        wal_flushes = metrics.histogram("ftl.wal.flush_s")
        before = wal_flushes.count
        ftl.write(0, bytes(device.geometry.ws_min * SS))
        assert wal_flushes.count == before
        ftl.write(0, bytes(SS))
        assert wal_flushes.count == before + 1

    def test_chrome_trace_round_trips(self, tmp_path):
        device, obs, ftl = traced_stack()
        run_block_workload(device, ftl)
        path = str(tmp_path / "trace.json")
        write_chrome_trace(obs.tracer, path)
        with open(path) as handle:
            document = json.loads(handle.read())
        events = document["traceEvents"]
        complete = [e for e in events if e.get("ph") == "X"]
        assert len(complete) == len(obs.tracer.finished_spans())
        assert all(e["dur"] >= 0 for e in complete)
        assert document["otherData"]["dropped"] == 0
        # Layer lanes arrive as thread-name metadata.
        lanes = {e["args"]["name"] for e in events if e.get("ph") == "M"
                 and e["name"] == "thread_name"}
        assert {"ftl", "ocssd", "nand"} <= lanes
        # Spans rebuilt from the events' ids keep the tree: nesting and
        # the sum identity hold.
        rebuilt = []
        for event in complete:
            span = Span(event["args"]["span_id"], event["args"]["parent_id"],
                        event["cat"], event["name"], event["ts"] / 1e6)
            span.end = (event["ts"] + event["dur"]) / 1e6
            rebuilt.append(span)
        assert validate_nesting(rebuilt) == []
        assert attribute(rebuilt).consistent

    def test_absorbed_chunk_retirement_surfaces(self):
        """Satellite: background error absorption shows up as obs events."""
        device, obs, ftl = traced_stack(gc_enabled=False)
        unit = device.geometry.ws_min
        ftl.write(0, b"a" * SS * unit)
        linear = ftl.page_map.lookup(0)
        key = ftl.geometry.delinearize(linear).chunk_key()
        device.chunks[key].retire()     # as the controller does first
        device._notify(Ppa(*key, 0), "write-failed", "injected")
        ftl.write(unit * 50, b"b" * SS * unit)   # absorbs the notification
        assert obs.metrics.counter("ftl.errors").value == 1
        assert obs.metrics.counter("ftl.errors.chunk-retired").value == 1
        marks = [i for i in obs.tracer.instants
                 if i.name == "error:chunk-retired"]
        assert len(marks) == 1
        assert "write-failed" in marks[0].attrs["detail"]


class TestEndToEndLsm:
    def make_db(self):
        geometry = DeviceGeometry(
            num_groups=4, pus_per_group=2,
            flash=FlashGeometry(blocks_per_plane=40, pages_per_block=6))
        device = OpenChannelSSD(geometry=geometry)
        obs = Obs().attach(device)
        media = MediaManager(device)
        env = LightLSMEnv(media, HorizontalPlacement())
        db = DB(env, DBConfig(block_size=96 * KIB,
                              write_buffer_bytes=64 * KIB),
                device.sim)
        return device, obs, db

    def test_db_bench_style_run_is_traced(self):
        device, obs, db = self.make_db()
        value = b"v" * 512
        for i in range(160):
            db.put(f"{i:016d}".encode(), value)
        db.flush()
        for i in range(0, 160, 16):
            assert db.get(f"{i:016d}".encode()) == value
        device.sim.run()
        metrics = obs.metrics
        assert db.stats.puts == 160
        assert metrics.histogram("lsm.put.latency_s").count == 160
        assert db.stats.flushes >= 1
        assert metrics.histogram("lsm.flush.duration_s").count >= 1
        assert validate_nesting(obs.tracer.spans) == []
        result = attribute(obs.tracer.spans)
        assert result.consistent
        assert "lsm" in result.layers
        assert "ocssd" in result.layers
