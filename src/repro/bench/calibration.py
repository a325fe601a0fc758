"""Calibration: scales and cost constants used by the benchmarks.

The constants describe *one* hardware model (a dual-CPU commodity node of
the paper's era with a single commodity disk), deliberately scaled so the
simulated cluster saturates with a tractable number of emulated browsers.
All experiments share them; nothing is tuned per figure.  The headline
ratios and failover timelines then *emerge* from the model structure.

Scaling summary (paper -> here):

* database: 100K items / 288K customers (~610 MB) -> 500 items / 1440
  customers, 1 row per page (``BENCH_ROWS_PER_PAGE``, see below);
* clients: 100..1000 emulated browsers @ 7 s think time -> 10..360 @ 1 s;
* per-statement costs inflated ~10x so each node peaks at tens (not
  thousands) of interactions per second — ratios are preserved.
"""

from __future__ import annotations

from repro.cluster.costs import CostConfig
from repro.disk.diskmodel import DiskModel
from repro.tpcw.schema import TpcwScale

#: Standard benchmark database (Figure 3 and Figure 4..6 experiments).
BENCH_SCALE = TpcwScale(num_items=500, num_customers=1440)

#: The paper's §6.3 "larger database" for the warm-up experiments
#: (400K customers there; proportionally larger here).
FAILOVER_SCALE = TpcwScale(num_items=700, num_customers=2800)

#: Rows per page on every engine in benchmarks.  One row per page keeps
#: hot-page lock-conflict probability proportionate at the scaled-down
#: database size: the paper's pages cover ~1/2000 of a 100K-row table; a
#: multi-row page over a 500-row table would cover ~100x more key space
#: and manufacture contention the real system never saw.
BENCH_ROWS_PER_PAGE = 1

#: InnoDB buffer pool ~= 40 % of the database (512 MB RAM vs 610 MB DB).
INNODB_POOL_FRACTION = 0.40

#: Benchmark think time (paper: 7 s; scaled with everything else).
BENCH_THINK_TIME = 1.0


def bench_cost(**overrides) -> CostConfig:
    """The shared cost configuration (override via keyword arguments)."""
    params = dict(
        cpu_per_statement=0.004,
        cpu_per_row_read=0.002,
        cpu_per_page_touch=0.0003,
        cpu_per_row_write=0.002,
        cpu_per_index_rotation=0.004,
        cpu_per_lock_wait=0.002,
        cpu_per_op_receive=0.0006,
        cpu_per_op_apply=0.0006,
        cpu_per_op_precommit=0.0008,
        page_fault_cost=0.004,
        net_latency=0.0003,
        net_bandwidth=50e6,
        cores_per_node=2,
        recovery_overhead=4.0,
        disk=DiskModel(seek_time=0.012, transfer_rate=40e6, fsync_time=0.015),
    )
    params.update(overrides)
    return CostConfig(**params)


BENCH_COST = bench_cost()

#: Failover experiments: identical constants (nothing is tuned per figure).
FAILOVER_COST = bench_cost()
