"""Figure 6: breakdown of the failover stages.

Paper result: the InnoDB failover is dominated by the DB-update phase
(~94 s of reading and replaying on-disk logs) plus cache warm-up; the DMV
failover instead has a ~6 s cleanup/recovery phase (aborting partially
propagated updates and promoting a new master), a short page-transfer
catch-up, and a cache warm-up phase of similar length to InnoDB's — so the
in-memory tier wins by eliminating log replay.
"""

from conftest import audit

from repro.bench.harness import (
    THROUGHPUT,
    bench_cluster,
    measured,
    recovery_point,
    run_innodb,
    wips_series,
)
from repro.bench.report import format_table
from repro.chaos import CrashNode, FaultPlan, StaleBackup, run_plan

INNODB_KILL_AT = 300.0
DMV_KILL_AT = 120.0


def _run():
    # Cheap experiment; quick mode does not shrink it (see Fig. 5 bench).
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


def test_fig6_failover_stage_weights(benchmark, figure_report):
    innodb, dmv = benchmark.pedantic(_run, rounds=1, iterations=1)

    dmv_t = dmv.timelines[0]
    innodb_t = innodb.timelines[0]
    dmv_recovery = dmv_t.recovery_duration()
    dmv_migration = dmv_t.migration_duration()
    dmv_total = recovery_point(wips_series(dmv), DMV_KILL_AT, threshold=0.85)
    dmv_warmup = max(0.0, dmv_total - dmv_recovery - dmv_migration)
    innodb_update = innodb_t.db_update_duration()
    innodb_total = recovery_point(wips_series(innodb), INNODB_KILL_AT, threshold=0.85)
    innodb_warmup = max(0.0, innodb_total - innodb_update)

    report = format_table(
        "Figure 6 — failover stage weights (seconds)",
        ["stage", "InnoDB", "DMV", "paper shape"],
        [
            ["cleanup (Recovery)", "0.0", f"{dmv_recovery:.1f}", "DMV-only, ~6 s"],
            ["data migration (DB Update)", f"{innodb_update:.1f}", f"{dmv_migration:.1f}",
             "InnoDB ~94 s log replay vs small page transfer"],
            ["buffer cache warm-up", f"{innodb_warmup:.1f}", f"{dmv_warmup:.1f}",
             "similar for both schemes"],
            ["total to full service", f"{innodb_total:.1f}", f"{dmv_total:.1f}",
             "DMV < 1/3 of InnoDB"],
        ],
    )
    figure_report("fig6_stage_breakdown", report)

    # Shape: log replay dominates InnoDB; page transfer is far smaller.
    assert innodb_update > dmv_migration * 3
    # DMV recovery (cleanup + promotion) is seconds.
    assert 0.0 < dmv_recovery < 30.0
    # The in-memory protocol reconfiguration beats log replay outright.
    assert dmv_recovery + dmv_migration < innodb_update
