"""Unit tests for the benchmark harness: calibration, the reductions a
figure reads off a run's window, and parity of the figure shapes run by
``run_plan`` with the hand-built runners they replaced."""

import pytest

from repro.bench.calibration import BENCH_SCALE, bench_cost
from repro.bench.harness import (
    THROUGHPUT,
    bench_cluster,
    find_peak,
    mean_before,
    mean_during,
    measured,
    recovery_point,
    steady_wips,
    total_pages,
    wips_series,
)
from repro.bench.report import format_series, format_table
from repro.chaos import ColdCache, CrashNode, FaultPlan, ReintegrateNode, StaleBackup, Window, run_plan
from repro.cluster.clients import Metrics
from repro.sim.stats import TimeSeries
from repro.tpcw import TpcwScale
from repro.tpcw.datagen import cached_rows


class TestCalibration:
    def test_bench_cost_overrides(self):
        cost = bench_cost(page_fault_cost=0.5)
        assert cost.page_fault_cost == 0.5
        assert cost.cores_per_node == 2

    def test_net_delay_and_rtt(self):
        cost = bench_cost(net_latency=0.001, net_bandwidth=1e6)
        assert cost.net_delay(1000) == pytest.approx(0.002)
        assert cost.rtt(0) == pytest.approx(0.002)


class TestCachedRows:
    def test_cached_and_deterministic(self):
        rows1 = cached_rows(BENCH_SCALE)
        rows2 = cached_rows(BENCH_SCALE)
        assert rows1 is rows2  # same object: cache hit
        tables = [t for t, _r in rows1]
        assert "item" in tables and "shopping_cart" in tables

    def test_total_pages_positive(self):
        assert total_pages(BENCH_SCALE) > 100


def steady_window(wips: float, end: float = 60.0) -> Window:
    """A 60 s window whose two post-warm-up 20 s buckets both run at ``wips``."""
    metrics = Metrics()
    for t in (30.0, 50.0):
        metrics.wips.mark(t, count=round(wips * 20))
    return Window(end, metrics)


class TestFindPeak:
    def test_stops_when_flat(self):
        calls = []

        def runner(clients):
            calls.append(clients)
            return steady_window(min(clients, 50))  # saturates at 50

        peak = find_peak(runner, [10, 40, 80, 160, 320])
        assert steady_wips(peak) == 50
        # 160 showed no improvement over 80, so 320 is never run.
        assert calls == [10, 40, 80, 160]

    def test_peak_step(self):
        windows = {}

        def runner(clients):
            windows[clients] = steady_window(100 - abs(clients - 50))
            return windows[clients]

        assert find_peak(runner, [25, 50, 75]) is windows[50]

    def test_empty(self):
        assert find_peak(steady_window, []) is None


def synthetic_failover(kill=100.0, baseline=50.0, dip=25.0, recover_at=160.0):
    series = TimeSeries("wips")
    for t in range(10, 300, 20):
        if t < kill:
            value = baseline
        elif t < recover_at:
            value = dip
        else:
            value = baseline
        series.record(float(t), value)
    return series


class TestFailoverResult:
    """The failover figures' readings of a WIPS series around a kill."""

    def test_mean_before(self):
        assert mean_before(synthetic_failover(), 100.0, 60.0) == pytest.approx(50.0)

    def test_mean_during(self):
        assert mean_during(synthetic_failover(), 100.0, 0.0, 50.0) == pytest.approx(25.0)

    def test_recovery_point(self):
        series = synthetic_failover(kill=100.0, recover_at=160.0)
        # First post-kill bucket at baseline with a confirming successor.
        assert recovery_point(series, 100.0, threshold=0.9) == pytest.approx(70.0)

    def test_recovery_point_never_recovers(self):
        series = synthetic_failover(recover_at=10_000.0)
        horizon = series.times[-1] - 100.0
        assert recovery_point(series, 100.0, threshold=0.9) == pytest.approx(horizon)

    def test_recovery_point_ignores_single_spike(self):
        series = TimeSeries("wips")
        values = [50, 50, 50, 50, 50, 10, 52, 9, 11, 50, 50, 50]
        for i, v in enumerate(values):
            series.record(10.0 + 20 * i, float(v))
        # The lone 52 at t=130 has a bad successor; recovery is at t=190.
        assert recovery_point(series, 100.0, threshold=0.9) == pytest.approx(90.0)


class TestReport:
    def test_format_table(self):
        out = format_table("Title", ["alpha", "beta"], [[1, 2], [3, 4]])
        assert "Title" in out and "-----" in out

    def test_format_series(self):
        series = TimeSeries("s")
        series.record(1.0, 5.0)
        series.record(2.0, 10.0)
        out = format_series("S", series, width=10)
        assert "#####" in out and "##########" in out

    def test_format_series_empty(self):
        assert "Empty" in format_series("Empty", TimeSeries("s"))

    def test_format_series_all_zero(self):
        series = TimeSeries("s")
        series.record(1.0, 0.0)
        out = format_series("Z", series)
        assert "0.00" in out


# -- the figure shapes on run_plan, pinned to the deleted runners' numbers -------------------
#: A small database keeps the three shapes under a few seconds together.
SMALL = TpcwScale(num_items=80, num_customers=230)


class TestFigureShapesMatchTheDeletedRunners:
    """Each shape was recorded with ``repro.bench.harness``'s own runners
    (``run_dmv_throughput``, ``run_dmv_failover``, ``run_reintegration``)
    before they were deleted; the same experiment as a plan must measure
    exactly the same numbers in its window, and settle to a cluster that
    passes every invariant."""

    def test_throughput_step(self):
        plan = measured(THROUGHPUT, 30.0, mix="ordering", browsers=40, scale=SMALL)
        report = run_plan(plan)
        assert report.ok(), report.summary()
        window = report.window
        assert window.stopped_at == 30.0
        assert steady_wips(window) == 40.25
        assert window.metrics.latency.percentile(95) == 0.36965613124703367
        assert window.metrics.completed == 1163
        assert window.metrics.abort_rate() == 0.037251655629139076
        assert window.metrics.commit_latency.percentile(95) == 0.040206172602337276
        assert window.metrics.aborts_by_reason == {"occ-conflict": 45}

    def test_master_failover_onto_a_stale_cold_spare(self):
        plan = measured(
            THROUGHPUT,
            30.0,
            browsers=40,
            scale=SMALL,
            cluster=bench_cluster(num_spares=1),
            faults=FaultPlan.fixed(
                StaleBackup(at=0.0, node_id="spare0"),
                ColdCache(at=0.0, node_id="spare0"),
                CrashNode(at=10.0, node_id="m0"),
            ),
        )
        report = run_plan(plan)
        assert report.ok(), report.summary()
        window = report.window
        assert wips_series(window).values == [36.8, 19.15]
        assert (window.metrics.completed, window.metrics.retried) == (1119, 0)
        assert window.metrics.latency.percentile(95) == 0.2289409599999992
        assert window.metrics.commit_latency.percentile(95) == 0.0990190399999964
        assert vars(window.timelines[0]) == dict(
            failure_time=10.0,
            detection_time=11.0,
            recovery_done=15.14221024,
            migration_done=15.351560180000002,
            migration_pages=174,
            migration_bytes=12497,
        )

    def test_master_kill_and_reintegration(self):
        plan = measured(
            THROUGHPUT,
            30.0,
            browsers=40,
            scale=SMALL,
            faults=FaultPlan.fixed(
                CrashNode(at=6.0, node_id="m0"), ReintegrateNode(at=12.0, node_id="m0")
            ),
        )
        report = run_plan(plan)
        assert report.ok(), report.summary()
        window = report.window
        assert wips_series(window).values == [38.2, 19.15]
        assert (window.metrics.completed, window.metrics.retried) == (1147, 0)
        assert window.metrics.latency.percentile(95) == 0.17156320321473162
        assert window.metrics.commit_latency.percentile(95) == 0.05741903999999742
        reintegration = next(t for t in window.timelines if t.migration_pages > 0)
        assert vars(reintegration) == dict(
            failure_time=6.0,
            detection_time=12.0,
            recovery_done=12.018171025,
            migration_done=12.231127044999997,
            migration_pages=177,
            migration_bytes=12801,
        )
