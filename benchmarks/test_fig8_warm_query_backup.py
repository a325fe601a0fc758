"""Figure 8: failover onto a WARM backup (1 % query-execution warm-up).

Paper setup: as Figure 7, but the scheduler sends ~1 % of the read-only
workload to the spare backup so its buffer cache holds the most frequently
referenced pages.  The effect of the failure on throughput is then almost
unnoticeable.

Scaling note: the paper warms the spare for ~17 minutes at hundreds of
WIPS; at our scaled-down throughput the equivalent number of warm-up
interactions requires a ~2 % fraction over the pre-failure window (see
EXPERIMENTS.md).
"""

from dataclasses import replace

import pytest

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

#: Reads diverted to the spare: the query-execution warm-up.
WARM_SPARE = replace(
    COLD_SPARE, cluster=bench_cluster(num_slaves=1, num_spares=1, spare_read_fraction=0.02)
)


def _run():
    # Always full-length: the warm-up effect needs the full pre-failure
    # window to develop (quick mode does not shrink this experiment).
    reports = [run_plan(COLD_SPARE), run_plan(WARM_SPARE)]
    for report in reports:
        audit(report)
    return [report.window for report in reports]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known shape failure: the warm spare's failover drop (24.1 %) is not below "
    "0.6 x the cold spare's (18.1 %): 0.2414 < 0.6 x 0.1815 fails. Deterministic bisect: "
    "passes at d9f1445 (warm 11 %, cold 33 %), fails from c413622, the commit adding "
    "delta encoding, coalesced apply and broadcast batching (0.2269 < 0.6 x 0.2565)",
)
def test_fig8_warm_backup_query_execution(benchmark, figure_report):
    cold, warm = (wips_series(w) for w in benchmark.pedantic(_run, rounds=1, iterations=1))
    cold_base = mean_before(cold, SPARE_KILL_AT, 120.0)
    warm_base = mean_before(warm, SPARE_KILL_AT, 120.0)
    cold_dip = mean_during(cold, SPARE_KILL_AT, 2.0, 60.0)
    warm_dip = mean_during(warm, SPARE_KILL_AT, 2.0, 60.0)
    report = format_table(
        "Figure 8 — warm backup via periodic query execution",
        ["condition", "baseline WIPS", "first minute after failover", "drop"],
        [
            ["cold backup (Fig. 7)", f"{cold_base:.1f}", f"{cold_dip:.1f}",
             f"{100 * (1 - cold_dip / cold_base):.0f}%"],
            ["warm backup (reads diverted)", f"{warm_base:.1f}", f"{warm_dip:.1f}",
             f"{100 * (1 - warm_dip / warm_base):.0f}%"],
        ],
    )
    report += format_series("Figure 8 series — WIPS (warm backup)", warm, unit=" wips")
    figure_report("fig8_warm_query_backup", report)

    # The warm backup's dip is much shallower than the cold one's.
    cold_drop = 1 - cold_dip / cold_base
    warm_drop = 1 - warm_dip / warm_base
    assert warm_drop < cold_drop * 0.6
    assert warm_drop < 0.2  # failure almost unnoticeable