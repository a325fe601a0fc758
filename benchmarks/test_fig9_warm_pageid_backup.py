"""Figure 9: failover onto a WARM backup (page-id transfer warm-up).

Paper setup: as Figure 8, but instead of executing queries the spare
receives the page identifiers of an active slave's buffer cache (shipped
every 100 transactions) and merely touches those pages.  Performance on
failover is the same as with query-execution warm-up: seamless.
"""

from dataclasses import replace

from conftest import audit

from repro.bench.harness import (
    COLD_SPARE,
    SPARE_KILL_AT,
    bench_cluster,
    mean_before,
    mean_during,
    wips_series,
)
from repro.bench.report import format_series, format_table
from repro.chaos import run_plan


def _run():
    # Always full-length: the warm-up effect needs the full pre-failure
    # window to develop (quick mode does not shrink this experiment).
    plan = replace(
        COLD_SPARE, cluster=bench_cluster(num_slaves=1, num_spares=1, pageid_ship_every=60.0)
    )
    report = run_plan(plan)
    audit(report)
    return report.window


def test_fig9_warm_backup_pageid_transfer(benchmark, figure_report):
    series = wips_series(benchmark.pedantic(_run, rounds=1, iterations=1))
    baseline = mean_before(series, SPARE_KILL_AT, 120.0)
    dip = mean_during(series, SPARE_KILL_AT, 2.0, 60.0)
    drop = 1 - dip / baseline
    report = format_table(
        "Figure 9 — warm backup via page-id transfer",
        ["quantity", "measured", "paper"],
        [
            ["baseline WIPS", f"{baseline:.1f}", "-"],
            ["first minute after failover", f"{dip:.1f}", "same as Fig. 8"],
            ["drop", f"{100 * drop:.0f}%", "seamless (almost none)"],
        ],
    )
    report += format_series("Figure 9 series — WIPS", series, unit=" wips")
    figure_report("fig9_warm_pageid_backup", report)

    assert drop < 0.2  # seamless failure handling