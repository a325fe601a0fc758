"""Figure 4: node reintegration under the shopping mix.

Paper setup: master + 4 slaves; the master is killed at t=720 s.  The
system adapts instantaneously with throughput/latency degrading gracefully
by ~20 %; after a ~6-minute reboot the node reintegrates as a slave (worst
case: a 40-minute checkpoint period means every modification since the
start of the run must be transferred) in ~5 s of catch-up, followed by
50-60 s of buffer-cache warm-up before throughput fully recovers.
All wall-clock quantities here are scaled with the rest of the model.
"""

from conftest import audit, quick_mode

from repro.bench.harness import (
    THROUGHPUT,
    bench_cluster,
    mean_before,
    mean_during,
    measured,
    wips_series,
)
from repro.bench.report import format_series, format_table
from repro.chaos import CrashNode, FaultPlan, ReintegrateNode, run_plan

KILL_AT = 100.0
REBOOT_AT = KILL_AT + 60.0


def _run():
    duration = 220.0 if quick_mode() else 340.0
    # No checkpoint daemon — the worst case: only the initial image exists,
    # so every page modified since the run began must be transferred.
    plan = measured(
        THROUGHPUT,
        duration,
        browsers=100,
        cluster=bench_cluster(num_slaves=4),
        faults=FaultPlan.fixed(
            CrashNode(at=KILL_AT, node_id="m0"), ReintegrateNode(at=REBOOT_AT, node_id="m0")
        ),
    )
    report = run_plan(plan)
    audit(report)
    return report.window


def test_fig4_node_reintegration(benchmark, figure_report):
    window = benchmark.pedantic(_run, rounds=1, iterations=1)

    series = wips_series(window)
    baseline = mean_before(series, KILL_AT, 80.0)
    degraded = mean_during(series, KILL_AT, 5.0, 55.0)
    timeline = next((t for t in window.timelines if t.migration_pages > 0), None)
    catchup = timeline.migration_duration() if timeline else float("nan")
    report = format_table(
        "Figure 4 — master kill at t=100s, reboot 60s, reintegration",
        ["phase", "measured", "paper (unscaled)"],
        [
            ["throughput before failure", f"{baseline:.1f} WIPS", "-"],
            ["throughput after failure", f"{degraded:.1f} WIPS "
             f"({100 * (1 - degraded / baseline):.0f}% degradation)", "~20% degradation"],
            ["catch-up (data migration)", f"{catchup:.1f} s", "~5 s"],
            ["pages transferred", f"{timeline.migration_pages}", "all changed pages"],
            ["cache warm-up tail", "visible in series below", "50-60 s"],
        ],
    )
    report += format_series("Figure 4 series — WIPS (20 s buckets)", series, unit=" wips")
    report += format_series(
        "Figure 4 series — client latency (s, 20 s buckets; paper plots both panels)",
        window.metrics.latency_series.bucketed(20.0),
        unit=" s",
    )
    figure_report("fig4_reintegration", report)

    # Graceful degradation: service continues, dropping roughly 10-35 %.
    assert degraded > 0.5 * baseline
    assert degraded < 0.97 * baseline
    # Catch-up is seconds, not minutes (page transfer beats log replay).
    assert timeline is not None
    assert catchup < 30.0
    assert timeline.migration_pages > 0
