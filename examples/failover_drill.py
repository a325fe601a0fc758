#!/usr/bin/env python3
"""Failover drill: kill nodes in the simulated cluster and watch recovery.

Runs the shopping mix on a simulated cluster (master + 3 slaves + 1 warm
spare), kills an active slave and then the master, and prints the
20-second-bucketed throughput series together with the reconfiguration
timelines — a miniature version of the paper's Section 6.2 experiments.

Run:  python examples/failover_drill.py
"""

from repro.bench.harness import THROUGHPUT, bench_cluster, measured, wips_series
from repro.chaos import CrashNode, FaultPlan, run_plan

#: Master + 3 slaves + 1 spare under 80 shopping-mix browsers for 300 s.
DRILL = measured(
    THROUGHPUT,
    300.0,
    browsers=80,
    cluster=bench_cluster(num_slaves=3, num_spares=1, checkpoint_period=30.0),
    faults=FaultPlan.fixed(CrashNode(at=60.0, node_id="s1"), CrashNode(at=150.0, node_id="m0")),
)


def main() -> None:
    print("drill: slave s1 dies at t=60s, master m0 dies at t=150s")
    report = run_plan(DRILL)
    window = report.window

    print("\nthroughput (web interactions per second, 20 s buckets):")
    series = wips_series(window)
    peak = max(series.values) or 1.0
    for t, value in zip(series.times, series.values):
        bar = "#" * int(40 * value / peak)
        print(f"  t={t:6.1f}s {value:7.2f} |{bar}")

    print("\nreconfiguration timelines:")
    for timeline in window.timelines:
        print(
            f"  failure@{timeline.failure_time:7.1f}s  detected +"
            f"{timeline.detection_time - timeline.failure_time:4.1f}s  "
            f"recovery {timeline.recovery_duration():5.1f}s  "
            f"migration {timeline.migration_duration():5.1f}s "
            f"({timeline.migration_pages} pages)"
        )

    print("\ninteractions completed:", window.metrics.completed)
    print("retried after aborts/failures:", window.metrics.retried)
    print("active topology:", sorted(n for n, role in report.roles.items() if role == "slave"),
          "master:", sorted(n for n, role in report.roles.items() if role == "master"))


if __name__ == "__main__":
    main()
