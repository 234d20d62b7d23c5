"""Tests for the measurement primitives."""

import pytest

from repro.obs.metrics import Histogram
from repro.sim import Simulator
from repro.sim.stats import ThroughputRecorder, UtilizationTracker


class TestThroughputRecorder:
    def test_series_buckets_by_window(self):
        recorder = ThroughputRecorder(window=1.0)
        recorder.record(0.1)
        recorder.record(0.9)
        recorder.record(2.5)
        series = recorder.series()
        assert series == [(0.0, 2.0), (1.0, 0.0), (2.0, 1.0)]

    def test_window_scaling(self):
        recorder = ThroughputRecorder(window=0.5)
        recorder.record(0.1, count=10)
        assert recorder.series() == [(0.0, 20.0)]

    def test_average(self):
        recorder = ThroughputRecorder()
        for t in range(10):
            recorder.record(float(t))
        assert recorder.average(elapsed=5.0) == pytest.approx(2.0)

    def test_empty_series(self):
        assert ThroughputRecorder().series() == []

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            ThroughputRecorder(window=0)


class TestLatencyRecorder:
    """Latency samples are recorded in a :class:`Histogram`."""

    def test_mean_and_max(self):
        recorder = Histogram()
        recorder.extend([1.0, 2.0, 3.0])
        assert recorder.mean() == pytest.approx(2.0)
        assert recorder.maximum() == 3.0
        assert recorder.count == 3

    def test_percentiles(self):
        recorder = Histogram()
        recorder.extend(float(i) for i in range(1, 101))
        assert recorder.percentile(50) == 50.0
        assert recorder.percentile(99) == 99.0
        assert recorder.percentile(100) == 100.0

    def test_empty_recorder_reports_zero(self):
        recorder = Histogram()
        assert recorder.mean() == 0.0
        assert recorder.percentile(99) == 0.0
        assert recorder.maximum() == 0.0

    def test_percentile_range_checked(self):
        recorder = Histogram()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(101)


class TestUtilizationTracker:
    def test_utilization_fraction(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim, capacity=2)
        tracker.add_busy(3.0)

        def advance(sim):
            yield sim.timeout(10.0)

        sim.run_until(sim.spawn(advance(sim)))
        # 3 busy-seconds over 2 cores * 10 s = 15 %.
        assert tracker.utilization() == pytest.approx(0.15)

    def test_utilization_saturates_at_one(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim, capacity=1)
        tracker.add_busy(100.0)

        def advance(sim):
            yield sim.timeout(1.0)

        sim.run_until(sim.spawn(advance(sim)))
        assert tracker.utilization() == 1.0

    def test_negative_busy_rejected(self):
        sim = Simulator()
        tracker = UtilizationTracker(sim)
        with pytest.raises(ValueError):
            tracker.add_busy(-1.0)
