"""CLI entry point: ``PYTHONPATH=src python -m repro.bench [--trace]``.

Runs one DMV throughput measurement (one mix, one client count) and prints
the paper-style summary line.  With ``--trace`` the run also records the
transaction-lifecycle spans: the per-stage p50/p95/p99 latency table (the
shape of the paper's Fig. 6 breakdown) is printed and a Chrome-trace JSON
is written for Perfetto / ``chrome://tracing``.

This is the one thing the module does: it is :data:`repro.bench.harness.THROUGHPUT`
with the flags replaced, run by :func:`repro.chaos.run_plan`.  Host-time
measurement is ``benchmarks/perf/run.py``; named fault scenarios are
``python -m repro.chaos --plan NAME``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import THROUGHPUT, bench_cluster, measured, steady_wips
from repro.chaos.scenario import run_plan
from repro.obs import write_chrome_trace
from repro.tpcw.mixes import MIXES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench", description="Run one DMV throughput measurement."
    )
    parser.add_argument(
        "--mix", default="shopping", choices=sorted(MIXES), help="TPC-W mix"
    )
    parser.add_argument("--clients", type=int, default=30, help="emulated browsers")
    parser.add_argument("--slaves", type=int, default=2, help="slave replicas")
    parser.add_argument("--duration", type=float, default=60.0, help="virtual seconds")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record transaction spans; prints the per-stage latency table "
        "and writes a Chrome-trace JSON (see --trace-out)",
    )
    parser.add_argument(
        "--trace-out",
        default="bench-trace.json",
        metavar="PATH",
        help="Chrome-trace output path when --trace is set",
    )
    args = parser.parse_args(argv)

    plan = measured(
        THROUGHPUT,
        args.duration,
        mix=args.mix,
        browsers=args.clients,
        cluster=bench_cluster(num_slaves=args.slaves),
    )
    report = run_plan(plan, seed=args.seed, trace=args.trace)
    metrics = report.window.metrics
    print(
        f"dmv mix={args.mix} slaves={args.slaves} clients={args.clients}: "
        f"wips={steady_wips(report.window):.2f} p95={metrics.latency.percentile(95) * 1e3:.1f}ms "
        f"commit_p99={metrics.commit_latency.percentile(99) * 1e3:.2f}ms "
        f"aborts={metrics.abort_rate() * 100:.2f}% completed={metrics.completed}"
    )
    if args.trace:
        print("per-stage latency breakdown (virtual clock):")
        print(report.stage_table())
        events = write_chrome_trace(args.trace_out, report.tracer)
        print(f"trace: {events} events -> {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
