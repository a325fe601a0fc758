"""MTTR: restart-from-own-disk vs full peer reintegration.

The Figure 4 recovery story transfers every page modified since the last
checkpoint from a support slave.  With the content-carrying WAL a crashed
node instead replays its own checkpoint + fsynced WAL suffix locally and
only fetches the commits it missed while down — the page transfer shrinks
from "everything changed since the checkpoint" to "the downtime gap".
This bench runs the same seeded workload twice (both clusters durable, so
WAL costs are paid identically), crashes the same slave at the same
instant, and recovers it once with each mechanism.
"""

import pytest

from conftest import audit, quick_mode

from repro.bench.calibration import bench_cost
from repro.bench.harness import THROUGHPUT, bench_cluster, measured
from repro.bench.report import format_table
from repro.chaos import CrashNode, FaultPlan, ReintegrateNode, RestartNode, run_plan

KILL_AT = 60.0
RECOVER_AT = 100.0


def _run(mechanism: str):
    duration = 160.0 if quick_mode() else 220.0
    recover = RestartNode if mechanism == "restart" else ReintegrateNode
    plan = measured(
        THROUGHPUT,
        duration,
        mix="ordering",
        browsers=40,
        cost=bench_cost(durable_wal=True),
        cluster=bench_cluster(num_slaves=3, checkpoint_period=20.0),
        faults=FaultPlan.fixed(
            CrashNode(at=KILL_AT, node_id="s0"), recover(at=RECOVER_AT, node_id="s0")
        ),
    )
    report = run_plan(plan)
    audit(report)
    window = report.window
    # The crash itself appends a reconfiguration timeline; the recovery's
    # is the one that finishes last.
    timeline = max(
        (t for t in window.timelines if t.migration_done > 0),
        key=lambda t: t.migration_done,
        default=None,
    )
    assert timeline is not None, f"{mechanism}: recovery never completed"
    # Only s0 ever restarts, so the cluster-wide totals are its own.
    return {
        "timeline": timeline,
        "mttr": timeline.migration_done - RECOVER_AT,
        "replayed": window.counters.get("wal.replayed", 0),
        "restarts": window.counters.get("disk.restart_recoveries", 0),
    }


def _both():
    return _run("reintegrate"), _run("restart")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known shape failure: restart from disk rejoins in 6.26 s, peer reintegration "
    "in 3.87 s (6.26 < 3.87 fails), quick and full length alike. Deterministic bisect: "
    "passes at c91e6d4 (6.15 s vs 6.99 s), fails from 66da12c, the commit making every "
    "update commit an epoch, which cut peer reintegration 6.99 -> 3.87 s",
)
def test_restart_mttr_vs_reintegration(benchmark, figure_report):
    full, restart = benchmark.pedantic(_both, rounds=1, iterations=1)

    rows = []
    for label, result in (("peer reintegration", full), ("restart from disk", restart)):
        timeline = result["timeline"]
        rows.append(
            [
                label,
                f"{result['mttr']:.2f} s",
                f"{timeline.migration_pages}",
                f"{timeline.migration_bytes}",
                f"{result['replayed']:.0f}",
            ]
        )
    speedup = full["mttr"] / restart["mttr"] if restart["mttr"] > 0 else float("inf")
    page_ratio = (
        full["timeline"].migration_pages / restart["timeline"].migration_pages
        if restart["timeline"].migration_pages
        else float("inf")
    )
    report = format_table(
        f"MTTR — slave crash at t={KILL_AT:g}s, recovery at t={RECOVER_AT:g}s "
        f"(40s down, 20s checkpoint period)",
        ["mechanism", "time to rejoin", "pages moved", "bytes moved", "WAL records replayed"],
        rows,
    )
    report += (
        f"\nrestart-from-disk rejoins {speedup:.1f}x faster, "
        f"moves {page_ratio:.1f}x fewer pages\n"
    )
    figure_report("restart_mttr", report)

    # Restart-from-disk did a local redo, not a from-scratch restore.
    assert restart["restarts"] == 1 and restart["replayed"] > 0
    assert full["restarts"] == 0
    # The whole point: the gap transfer is strictly smaller than the full
    # changed-page transfer, and the node is back sooner.
    assert restart["timeline"].migration_pages < full["timeline"].migration_pages
    assert restart["mttr"] < full["mttr"]
