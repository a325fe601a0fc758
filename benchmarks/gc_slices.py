#!/usr/bin/env python3
"""Where the garbage collector lands in one benchmark run, slice by slice.

    python3 benchmarks/gc_slices.py [--workload hot_scaleout] [--seed 0] [--seconds 8]

Runs one workload of the repository benchmark through its own
``run_workload`` (``benchmarks/perf`` is imported as it is, not copied) and
prints, for each of the timed slices whose median is the benchmark's
``host_interactions_per_s``, the rate the benchmark computes for it, the raw
CPU seconds it took, and how many collections of each generation ran inside
it and how long they took (``gc.callbacks``).  A full (generation 2)
collection walks every tracked object, so the slices it lands in stand out;
the tracked heap printed at the end is what such a collection has to walk.
Beside it is the tracked heap when the run started (set-up done, clients
started): a full collection runs once the objects that survived younger
collections reach a quarter of the heap the last one left, so how many land
in the run follows the ratio of the final heap to the starting one.
Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE / "perf"))

from workloads import BY_NAME, run_workload  # noqa: E402  (the frozen harness)


class GcClock:
    """Collections and their CPU seconds per generation, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.counts = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.process_time()
        else:
            generation = info["generation"]
            self.counts[generation] += 1
            self.seconds[generation] += time.process_time() - self._started

    def snapshot(self):
        return list(self.counts), list(self.seconds)


def measure(workload: str, seed: int, seconds: float):
    """Run the workload; returns ``(run, slices, started)``: one dict per
    event-loop call (the timed slices, then the settle span), and the tracked
    heap at the first call, counted without a collection so that the run's
    own collections fall where they would."""
    clock = GcClock()
    slices = []
    started = []

    def around_run(fn, *args, **kwargs):
        if not started:
            started.append(len(gc.get_objects()))
        counts, gc_seconds = clock.snapshot()
        cpu = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            slices.append({
                "cpu_s": time.process_time() - cpu,
                "collections": [now - before for now, before in zip(clock.counts, counts)],
                "gc_s": [now - before for now, before in zip(clock.seconds, gc_seconds)],
            })

    gc.callbacks.append(clock)
    try:
        run = run_workload(BY_NAME[workload], seed, seconds, around_run=around_run)
    finally:
        gc.callbacks.remove(clock)
    return run, slices, started[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default="hot_scaleout")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)

    run, slices, started = measure(args.workload, args.seed, args.seconds)
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"sim={run.sim_duration:g}s")
    print(f"{'slice':>5} {'rate/cpu-s':>11} {'cpu-s':>7} "
          f"{'gen0':>6} {'gen1':>6} {'gen2':>5} {'gc-s':>7} {'full-gc-s':>9}")
    for index, (rate, record) in enumerate(zip(run.slice_rates, slices), 1):
        gen0, gen1, gen2 = record["collections"]
        print(f"{index:>5} {rate:>11.1f} {record['cpu_s']:>7.3f} {gen0:>6} {gen1:>6} "
              f"{gen2:>5} {sum(record['gc_s']):>7.3f} {record['gc_s'][2]:>9.3f}")
    timed = slices[: len(run.slice_rates)]
    cpu = sum(record["cpu_s"] for record in timed)
    gc_s = sum(sum(record["gc_s"]) for record in timed)
    full = sum(1 for record in timed if record["collections"][2])
    print(f"median rate {statistics.median(run.slice_rates):.1f}/cpu-s; "
          f"collector {gc_s:.2f} of {cpu:.2f} cpu-s; "
          f"full collections in {full} of {len(timed)} slices")
    gc.collect()
    final = len(gc.get_objects())
    print(f"tracked heap after the quiesced run: {final} objects; "
          f"{started} when the run started (x{final / started:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
