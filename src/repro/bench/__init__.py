"""The paper's experiments: calibration, figure plans and report formatting.

Each paper table/figure has one target in ``benchmarks/`` that
``dataclasses.replace``-s a base plan of :mod:`repro.bench.harness`, runs
it with :func:`repro.chaos.run_plan` — the one runner of every simulated
DMV experiment — and prints the same rows/series the paper reports with
:mod:`repro.bench.report`.  Calibration constants live in
:mod:`repro.bench.calibration`.  The repository benchmark imports the
calibration, and with it this module, so neither imports :mod:`repro.chaos`.
"""

from repro.bench.calibration import (
    BENCH_COST,
    BENCH_SCALE,
    FAILOVER_SCALE,
    INNODB_POOL_FRACTION,
    bench_cost,
)
from repro.bench.report import format_retries, format_series, format_table

__all__ = [
    "BENCH_COST",
    "BENCH_SCALE",
    "FAILOVER_SCALE",
    "INNODB_POOL_FRACTION",
    "bench_cost",
    "format_table",
    "format_series",
    "format_retries",
]
