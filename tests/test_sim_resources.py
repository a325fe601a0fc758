"""Unit tests for simulation resources and stats."""

import pytest

from repro.sim import Histogram, Resource, Simulator, TimeSeries, WindowedRate
from repro.sim.stats import pretty_table


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)

    def test_serializes_when_capacity_one(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        done = []

        def job(tag, duration):
            yield from res.hold(duration)
            done.append((tag, sim.now()))

        sim.spawn(job("a", 5.0))
        sim.spawn(job("b", 3.0))
        sim.run()
        assert done == [("a", 5.0), ("b", 8.0)]

    def test_parallel_when_capacity_two(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        done = []

        def job(tag, duration):
            yield from res.hold(duration)
            done.append((tag, sim.now()))

        for tag in ("a", "b", "c"):
            sim.spawn(job(tag, 4.0))
        sim.run()
        assert done == [("a", 4.0), ("b", 4.0), ("c", 8.0)]

    def test_hold_interrupted_queued_or_holding_leaks_no_slot(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        holder = sim.spawn(res.hold(5.0))
        queued = sim.spawn(res.hold(5.0))
        sim.schedule(1.0, queued.interrupt, "die while queued")
        sim.schedule(2.0, holder.interrupt, "die while holding")
        sim.run()
        assert holder.triggered and queued.triggered
        assert res.in_use == 0 and res.queue_length == 0

    def test_release_without_request_raises(self):
        with pytest.raises(RuntimeError):
            Resource(Simulator()).release()

    def test_utilization(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        sim.spawn(res.hold(5.0))
        sim.run(until=10.0)
        assert res.utilization(10.0) == pytest.approx(0.5)

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.request()
        res.request()
        res.request()
        sim.run()
        assert res.queue_length == 2

    def test_cancelled_waiter_skipped(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        first = res.request()
        sim.run()
        assert first.triggered
        stale = res.request()
        stale.cancel()  # waiter dies while queued
        live = res.request()
        res.release()
        sim.run(until=1.0)
        assert live.triggered and live.ok


class TestTimeSeries:
    def test_record_and_reduce(self):
        ts = TimeSeries("t")
        for i in range(5):
            ts.record(float(i), float(i * 10))
        assert len(ts) == 5
        assert ts.mean() == 20.0
        assert ts.min() == 0.0
        assert ts.max() == 40.0

    def test_out_of_order_rejected(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

    def test_between(self):
        ts = TimeSeries()
        for i in range(10):
            ts.record(float(i), float(i))
        sub = ts.between(3.0, 7.0)
        assert sub.times == [3.0, 4.0, 5.0, 6.0]

    def test_bucketed(self):
        ts = TimeSeries()
        for i in range(10):
            ts.record(float(i), float(i))
        b = ts.bucketed(5.0)
        assert b.values == [2.0, 7.0]
        assert b.times == [2.5, 7.5]

    def test_bucketed_with_gap(self):
        ts = TimeSeries()
        ts.record(1.0, 10.0)
        ts.record(21.0, 30.0)
        b = ts.bucketed(10.0)
        assert b.values == [10.0, 30.0]

    def test_bucketed_empty(self):
        assert len(TimeSeries().bucketed(5.0)) == 0


class TestWindowedRate:
    def test_series(self):
        rate = WindowedRate(window=10.0)
        for t in (1.0, 2.0, 3.0, 12.0):
            rate.mark(t)
        series = rate.series()
        assert series.values == [0.3, 0.1]
        assert rate.total() == 4

    def test_empty_windows_reported_as_zero(self):
        rate = WindowedRate(window=10.0)
        rate.mark(35.0)
        assert rate.series().values == [0.0, 0.0, 0.0, 0.1]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowedRate(window=0.0)


class TestHistogram:
    def test_percentiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.record(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0
        assert h.mean() == 50.5

    def test_empty(self):
        h = Histogram()
        assert h.percentile(95) == 0.0
        assert h.mean() == 0.0

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.record(1.0)
        b.record(3.0)
        a.merge(b)
        assert len(a) == 2

    def test_summary_keys(self):
        h = Histogram()
        h.record(2.0)
        assert set(h.summary()) == {"count", "mean", "p50", "p95", "p99", "max"}

    def test_invalid_percentile(self):
        h = Histogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(150)


def test_pretty_table_alignment():
    out = pretty_table(["name", "val"], [["a", 1], ["long-name", 22]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
