"""The host clock: process CPU seconds, calibrated against memory contention.

On this kind of box (a 2-vCPU KVM guest sharing a 260 MiB L3 with other
tenants) one and the same seeded run took 11.4 to 13.9 CPU-seconds within
ten minutes, and a ten-run series showed a 17 % interquartile spread — while
a pure compute loop stayed constant to 1 %.  The simulator walks a few
hundred MiB of rows, pages and index nodes, so its speed follows how much
of the shared cache the neighbours leave it.  A fixed pass over 64 MiB of
scattered float objects (``sum`` at C speed, nothing but cache misses) sees
the same weather: dividing by it halved the spread of such series (run
phase 13.5 % -> 6.5 %, set-up 16.5 % -> 4.9 %).

So every host time is reported in *calibrated* CPU seconds::

    calibrated = cpu_seconds * REFERENCE_PASS_S / pass_seconds_measured_beside_it

``REFERENCE_PASS_S`` is what the pass costs here on a quiet machine, so on
a quiet machine calibrated and raw seconds agree.  Raw CPU and wall seconds
are recorded beside every calibrated figure in the detail files.
"""

from __future__ import annotations

import functools
import random
import time

#: One pass right after a span of simulation, on this box, with no neighbour
#: active (median of quiet runs).
REFERENCE_PASS_S = 0.039


@functools.lru_cache(maxsize=None)
def _scattered_floats() -> list:
    """2 M float objects (24 B each) behind 16 MiB of pointers, shuffled so
    that list order says nothing about where an object lies in memory."""
    floats = [float(i) for i in range(1 << 21)]
    random.Random(1).shuffle(floats)
    return floats


def calibration_pass() -> float:
    """CPU seconds of one pass over the scattered floats."""
    floats = _scattered_floats()
    start = time.process_time()
    sum(floats)
    return time.process_time() - start


class Stopwatch:
    """Times one phase: raw CPU, wall, and calibrated CPU seconds.

    The calibration pass runs right after the phase, while the cache is as
    the phase and the neighbours left it.  (A second, warm pass swings three
    times as far as the simulator does and over-corrects; a pass before the
    phase sees what the *previous* activity left.)
    """

    def __enter__(self) -> "Stopwatch":
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu_s = time.process_time() - self._cpu0
        self.wall_s = time.perf_counter() - self._wall0
        self.calibrated_s = self.cpu_s * REFERENCE_PASS_S / calibration_pass()
