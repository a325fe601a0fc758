#!/usr/bin/env python3
"""What one benchmark run keeps alive, by allocation site.

    python3 benchmarks/mem_sites.py [--workload hot_scaleout] [--seed 0] [--seconds 8] [--top 15]
                                    [--at settle|setup]

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
    The harness's calibration floats are built before tracing starts: they
    are in the benchmark's resident set, but no part of the simulator."""
    taken = {"calls": 0}

    def take():
        gc.collect()
        taken["current"] = tracemalloc.get_traced_memory()[0]
        taken["snapshot"] = tracemalloc.take_snapshot()

    def around_run(fn, *args, **kwargs):
        if at == "setup" and taken["calls"] == 0:
            take()
        result = fn(*args, **kwargs)
        taken["calls"] += 1
        if at == "settle" and taken["calls"] == RUN_SLICES + 1:  # the settle span
            take()
        return result

    calibration_pass()
    tracemalloc.start()
    try:
        run = run_workload(BY_NAME[workload], seed, seconds, around_run=around_run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    snapshot = taken["snapshot"].filter_traces((tracemalloc.Filter(False, tracemalloc.__file__),))
    return run, taken["current"], peak, snapshot.statistics("lineno")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default="hot_scaleout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--at", choices=("settle", "setup"), default="settle",
                        help="snapshot when the settle span ends, or before the first event")
    args = parser.parse_args(argv)

    run, current, peak, stats = measure(args.workload, args.seed, args.seconds, args.at)
    mib = 1024 * 1024
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"sim={run.sim_duration:g}s  at={args.at}")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"ru_maxrss {maxrss:.1f} MiB (inflated by tracemalloc: not peak_rss_mb)")
    print(f"traced current {current / mib:.1f} MiB, peak {peak / mib:.1f} MiB")
    print(f"{'KiB':>9} {'blocks':>8}  site")
    for stat in stats[: args.top]:
        print(f"{stat.size / 1024:>9.0f} {stat.count:>8}  {site(stat.traceback[0])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
