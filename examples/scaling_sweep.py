#!/usr/bin/env python3
"""Scaling sweep: peak throughput vs number of in-memory slaves.

A compact version of the paper's Figure 3 for one mix: measures peak WIPS
for 1..8 slaves and the stand-alone on-disk baseline, printing the scaling
curve and the improvement factors.

Run:  python examples/scaling_sweep.py [mix]          (default: shopping)
"""

import sys

from repro.bench.harness import THROUGHPUT, bench_cluster, measured, run_innodb, steady_wips
from repro.bench.report import format_retries
from repro.chaos import run_plan


def main() -> None:
    mix = sys.argv[1] if len(sys.argv) > 1 else "shopping"
    print(f"mix: {mix}\n")
    innodb = max(steady_wips(run_innodb(mix, clients, 40.0)) for clients in (10, 25))
    print(f"stand-alone on-disk baseline: {innodb:6.1f} WIPS\n")
    print(f"{'slaves':>7} {'clients':>8} {'WIPS':>8} {'factor':>8} {'p95 (s)':>9}")
    for n in (1, 2, 4, 8):
        plan = measured(
            THROUGHPUT, 40.0, mix=mix, browsers=55 * n, cluster=bench_cluster(num_slaves=n)
        )
        window = run_plan(plan).window
        wips = steady_wips(window)
        factor = wips / innodb if innodb else float("nan")
        print(f"{n:>7} {55 * n:>8} {wips:>8.1f} {'x%.1f' % factor:>8} "
              f"{window.metrics.latency.percentile(95):>9.2f}  "
              f"{format_retries(window.metrics.aborts_by_reason)}")


if __name__ == "__main__":
    main()
