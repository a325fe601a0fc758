"""Figure 5: failover onto a stale backup — replicated InnoDB vs DMV.

Paper setup and result:

* (a,b) InnoDB tier: 2 active replicas + 1 passive backup refreshed every
  30 minutes; killing an active leaves the service at roughly half
  capacity for ~3 minutes while the backup replays the on-disk log.
* (c,d) DMV tier: master + 2 active slaves + a 30-minute-stale backup;
  killing the *master* (worst case) completes failover in ~70 s — less
  than a third of the InnoDB time — dominated by buffer-cache warm-up.
"""

from conftest import audit

from repro.bench.harness import (
    THROUGHPUT,
    bench_cluster,
    mean_before,
    mean_during,
    measured,
    recovery_point,
    run_innodb,
    wips_series,
)
from repro.bench.report import format_series, format_table
from repro.chaos import CrashNode, FaultPlan, StaleBackup, run_plan

INNODB_KILL_AT = 300.0
DMV_KILL_AT = 120.0


def _run():
    # This experiment is cheap; quick mode does not shrink it (a short
    # pre-failure window would leave the backup's log lag too small for
    # the replay phase to be visible).
    innodb = run_innodb("shopping", 24, 900.0, kill_at=INNODB_KILL_AT)
    plan = measured(
        THROUGHPUT,
        420.0,
        browsers=60,
        cluster=bench_cluster(num_spares=1),
        faults=FaultPlan.fixed(
            StaleBackup(at=0.0, node_id="spare0"), CrashNode(at=DMV_KILL_AT, node_id="m0")
        ),
    )
    report = run_plan(plan)
    audit(report)
    return innodb, report.window


def test_fig5_failover_stale_backup(benchmark, figure_report):
    innodb, dmv = benchmark.pedantic(_run, rounds=1, iterations=1)
    innodb_series, dmv_series = wips_series(innodb), wips_series(dmv)

    innodb_recovery = recovery_point(innodb_series, INNODB_KILL_AT, threshold=0.85)
    dmv_recovery = recovery_point(dmv_series, DMV_KILL_AT, threshold=0.85)
    report = format_table(
        "Figure 5 — failover onto a stale backup",
        ["system", "baseline WIPS", "during failover", "time to recover", "paper"],
        [
            [
                "InnoDB 2+1 (a,b)",
                f"{mean_before(innodb_series, INNODB_KILL_AT, 100):.1f}",
                f"{mean_during(innodb_series, INNODB_KILL_AT, 5, 120):.1f}",
                f"{innodb_recovery:.0f} s",
                "~180 s at half capacity",
            ],
            [
                "DMV m+2s+backup (c,d)",
                f"{mean_before(dmv_series, DMV_KILL_AT, 60):.1f}",
                f"{mean_during(dmv_series, DMV_KILL_AT, 5, 40):.1f}",
                f"{dmv_recovery:.0f} s",
                "~70 s (< 1/3 of InnoDB)",
            ],
        ],
    )
    report += format_series("Figure 5(a) — InnoDB WIPS", innodb_series, unit=" wips")
    report += format_series(
        "Figure 5(b) — InnoDB latency (s)",
        innodb.metrics.latency_series.bucketed(20.0),
        unit=" s",
    )
    report += format_series("Figure 5(c) — DMV WIPS", dmv_series, unit=" wips")
    report += format_series(
        "Figure 5(d) — DMV latency (s)", dmv.metrics.latency_series.bucketed(20.0), unit=" s"
    )
    figure_report("fig5_stale_failover", report)

    # Shape, asserted on the (deterministic) protocol timelines: the DMV
    # reconfiguration (cleanup + page migration) completes in a fraction
    # of the InnoDB log-replay phase.
    innodb_t, dmv_t = innodb.timelines[0], dmv.timelines[0]
    assert innodb_t.replay_entries > 0
    # The promoted backup replayed exactly what the surviving active committed.
    assert set(innodb.digests) == {"d1", "backup0"}
    assert innodb.digests["backup0"] == innodb.digests["d1"]
    dmv_reconf = dmv_t.recovery_duration() + dmv_t.migration_duration()
    assert dmv_reconf < innodb_t.db_update_duration() / 2
    # InnoDB service visibly degraded while replaying.
    assert mean_during(innodb_series, INNODB_KILL_AT, 5, 120) < 0.95 * mean_before(
        innodb_series, INNODB_KILL_AT, 100
    )
