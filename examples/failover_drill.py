#!/usr/bin/env python3
"""Failover drill: kill nodes in the simulated cluster and watch recovery.

Runs the shopping mix on a simulated cluster (master + 3 slaves + 1 warm
spare), kills an active slave and then the master, and prints the
20-second-bucketed throughput series together with the reconfiguration
timelines — a miniature version of the paper's Section 6.2 experiments.

Run:  python examples/failover_drill.py
"""

from repro.bench.calibration import BENCH_COST, BENCH_ROWS_PER_PAGE, BENCH_SCALE
from repro.bench.harness import cached_rows
from repro.cluster.simcluster import SimDmvCluster
from repro.tpcw import MIXES, TPCW_SCHEMAS


def main() -> None:
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        num_slaves=3,
        num_spares=1,
        cost_config=BENCH_COST,
        rows_per_page=BENCH_ROWS_PER_PAGE,
        checkpoint_period=30.0,
    )
    cluster.load_tables(cached_rows(BENCH_SCALE))
    cluster.warm_all_caches()

    cluster.start_browsers(80, MIXES["shopping"], BENCH_SCALE, think_time_mean=1.0)
    print("drill: slave s1 dies at t=60s, master m0 dies at t=150s")
    cluster.kill_node_at("s1", 60.0)
    cluster.kill_node_at("m0", 150.0)
    cluster.run(until=300.0)

    print("\nthroughput (web interactions per second, 20 s buckets):")
    series = cluster.metrics.wips.series(end=300.0)
    peak = max(series.values) or 1.0
    for t, value in zip(series.times, series.values):
        bar = "#" * int(40 * value / peak)
        print(f"  t={t:6.1f}s {value:7.2f} |{bar}")

    print("\nreconfiguration timelines:")
    for timeline in cluster.timelines:
        print(
            f"  failure@{timeline.failure_time:7.1f}s  detected +"
            f"{timeline.detection_time - timeline.failure_time:4.1f}s  "
            f"recovery {timeline.recovery_duration():5.1f}s  "
            f"migration {timeline.migration_duration():5.1f}s "
            f"({timeline.migration_pages} pages)"
        )

    print("\ninteractions completed:", cluster.metrics.completed)
    print("retried after aborts/failures:", cluster.metrics.retried)
    print("active topology:", sorted(s.node_id for s in cluster.scheduler.active_slaves()),
          "master:", sorted(n.node_id for n in cluster.nodes.values()
                            if n.master is not None and n.alive))


if __name__ == "__main__":
    main()
