#!/usr/bin/env python3
"""What one benchmark run keeps alive, by allocation site.

    python3 benchmarks/mem_sites.py [--workload hot_scaleout] [--seed 0] [--seconds 8] [--top 15]
                                    [--at settle|setup|growth]

Runs one workload of the repository benchmark through its own
``run_workload`` (``benchmarks/perf`` is imported as it is, not copied) with
``tracemalloc`` on, and prints the process's peak resident set
(``ru_maxrss``), the traced memory current and at its peak, and the
allocation sites (file:line, KiB, blocks) that hold the most memory once the
run has quiesced — the live cluster with the ops its slaves still buffer,
which is what the benchmark's ``peak_rss_mb`` mostly is.  ``tracemalloc``
stores a traceback per block, so the resident set printed here is well above
the benchmark's: compare sites and traced bytes between checkouts, never
this ``ru_maxrss`` with ``peak_rss_mb``.  ``--at setup`` takes the snapshot
instead when the cluster is set up and its clients started, before the first
event runs: what a set-up change (loading, copying replicas) leaves behind.
``--at growth`` takes both and prints, by site, what the settle snapshot
holds beyond the set-up one: what the run itself added.
Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE / "perf"))

from hostclock import calibration_pass  # noqa: E402
from workloads import BY_NAME, RUN_SLICES, run_workload  # noqa: E402  (the frozen harness)


def site(frame: tracemalloc.Frame) -> str:
    path = Path(frame.filename)
    try:
        path = path.relative_to(REPO)
    except ValueError:
        pass
    return f"{path}:{frame.lineno}"


def measure(workload: str, seed: int, seconds: float, at: str = "settle"):
    """Run the workload traced; returns ``(run, current, peak, statistics)``.

    Current memory and the statistics (largest first) are taken when the
    settle span ends (``at="settle"``): the run has quiesced, and the
    harness's audit, which materialises every page a slave still holds ops
    for, has not yet run.  ``at="setup"`` takes them at the first call into
    the event loop, before it runs: set-up done, clients started.
    ``at="growth"`` takes both; its statistics are the settle snapshot's
    growth over the set-up one per site, largest first, and ``current`` is
    ``(setup, settle)``.
    The harness's calibration floats are built before tracing starts: they
    are in the benchmark's resident set, but no part of the simulator."""
    taken = {"calls": 0}

    def take(point):
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        taken[point] = tracemalloc.get_traced_memory()[0], snapshot.filter_traces(
            (tracemalloc.Filter(False, tracemalloc.__file__),)
        )

    def around_run(fn, *args, **kwargs):
        if at in ("setup", "growth") and taken["calls"] == 0:
            take("setup")
        result = fn(*args, **kwargs)
        taken["calls"] += 1
        if at in ("settle", "growth") and taken["calls"] == RUN_SLICES + 1:  # the settle span
            take("settle")
        return result

    calibration_pass()
    tracemalloc.start()
    try:
        run = run_workload(BY_NAME[workload], seed, seconds, around_run=around_run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if at != "growth":
        current, snapshot = taken[at]
        return run, current, peak, snapshot.statistics("lineno")
    (before, setup), (after, settle) = taken["setup"], taken["settle"]
    grown = [stat for stat in settle.compare_to(setup, "lineno") if stat.size_diff > 0]
    grown.sort(key=lambda stat: stat.size_diff, reverse=True)
    return run, (before, after), peak, grown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default="hot_scaleout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--at", choices=("settle", "setup", "growth"), default="settle",
                        help="snapshot when the settle span ends, before the first event, "
                             "or the first's growth over the second by site")
    args = parser.parse_args(argv)

    run, current, peak, stats = measure(args.workload, args.seed, args.seconds, args.at)
    mib = 1024 * 1024
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"sim={run.sim_duration:g}s  at={args.at}")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"ru_maxrss {maxrss:.1f} MiB (inflated by tracemalloc: not peak_rss_mb)")
    growth = args.at == "growth"
    if growth:
        setup, current = current
    print(f"traced current {current / mib:.1f} MiB"
          + (f" ({setup / mib:.1f} at set-up)" if growth else "") + f", peak {peak / mib:.1f} MiB")
    sign = "+" if growth else ""
    print(f"{sign + 'KiB':>9} {sign + 'blocks':>8}  site")
    for stat in stats[: args.top]:
        size, count = (stat.size_diff, stat.count_diff) if growth else (stat.size, stat.count)
        print(f"{size / 1024:>9.0f} {count:>8}  {site(stat.traceback[0])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
