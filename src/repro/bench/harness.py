"""The paper's experiments as plans: calibrated bases and the reductions a
figure reads off a run.

Every simulated DMV experiment is a :class:`~repro.chaos.plans.Plan` run by
:func:`~repro.chaos.scenario.run_plan`.  This module holds the bases the
figures ``dataclasses.replace`` — :data:`THROUGHPUT`, the paper's
closed-loop TPC-W client at the benchmark scale, and :data:`COLD_SPARE`,
its warm-up failover — and the pure functions that reduce a run's
:class:`~repro.chaos.scenario.Window` the way the paper does: steady-state
WIPS after warm-up, the step-function peak search of Fig. 3, and the
mean-before / mean-during / recovery-point readings of the failover
figures (20-second buckets).

The on-disk baseline is a different system, without the DMV protocol or
its invariants; :func:`run_innodb` is its own small runner and returns the
same kind of window.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.calibration import (
    BENCH_COST,
    BENCH_ROWS_PER_PAGE,
    BENCH_SCALE,
    BENCH_THINK_TIME,
    FAILOVER_SCALE,
    INNODB_POOL_FRACTION,
)
from repro.chaos.faults import ColdCache, CrashNode, FaultPlan
from repro.chaos.plans import PLANS, Plan
from repro.chaos.scenario import RunReport, Window, run_plan
from repro.cluster.simdisk import SimDiskCluster
from repro.sim.stats import TimeSeries
from repro.tpcw.datagen import cached_rows
from repro.tpcw.mixes import MIXES
from repro.tpcw.schema import TPCW_SCHEMAS, TpcwScale


def total_pages(scale: TpcwScale, seed: int = 42) -> int:
    """Pages one replica holds at this scale (for pool/cache sizing)."""
    rows = sum(len(r) for _t, r in cached_rows(scale, seed))
    return max(1, rows // BENCH_ROWS_PER_PAGE + 10)


def bench_cluster(**shape) -> Callable[[float], Dict[str, object]]:
    """A plan's ``cluster`` for a benchmark shape: two slaves behind one
    scheduler at the calibrated page size, overridden by ``shape``."""
    shape = {"num_slaves": 2, "num_schedulers": 1, "rows_per_page": BENCH_ROWS_PER_PAGE, **shape}
    return lambda duration: dict(shape)


def measured(plan: Plan, seconds: float, **changes) -> Plan:
    """``plan`` with ``changes``, its clients running ``seconds`` before the
    cluster settles (the window a figure measures is ``[0, seconds]``)."""
    plan = replace(plan, **changes)
    return replace(plan, duration=seconds + plan.settle)


#: The paper's methodology on a fault-free cluster: 30 closed-loop browsers
#: of the shopping mix at the benchmark scale, cost model and think time,
#: measured for 60 s.  Figures replace the mix, the browsers, the cluster
#: shape and the faults.
THROUGHPUT = measured(
    Plan(
        name="throughput",
        faults=FaultPlan.fixed(),
        cluster=bench_cluster(),
        cost=BENCH_COST,
        seed=0,
        browsers=30,
        mix="shopping",
        think_time=BENCH_THINK_TIME,
        scale=BENCH_SCALE,
        dataset_seed=42,
        must_fire=(),
    ),
    60.0,
)

#: When the active slave dies in :data:`COLD_SPARE`.
SPARE_KILL_AT = 480.0

#: The paper's §6.3 warm-up experiments (Figures 7–9): the larger database,
#: a master, one active slave and one up-to-date spare whose buffer cache
#: starts cold; the active slave dies at :data:`SPARE_KILL_AT` and the spare
#: takes over.  Figures 8 and 9 warm the spare through the cluster shape
#: (``spare_read_fraction`` / ``pageid_ship_every``).
COLD_SPARE = measured(
    THROUGHPUT,
    840.0,
    browsers=40,
    scale=FAILOVER_SCALE,
    cluster=bench_cluster(num_slaves=1, num_spares=1),
    faults=FaultPlan.fixed(
        ColdCache(at=0.0, node_id="spare0"), CrashNode(at=SPARE_KILL_AT, node_id="s0")
    ),
)


# -- reading a window ------------------------------------------------------------------
def wips_series(window: Window) -> TimeSeries:
    """Throughput per 20-second bucket up to the moment the clients stopped."""
    return window.metrics.wips.series(end=window.stopped_at)


def steady_wips(window: Window) -> float:
    """Mean WIPS once the first third of the window (the warm-up) is over."""
    end = window.stopped_at
    return wips_series(window).between(end * 0.33, end).mean()


def find_peak(runner: Callable[[int], Window], client_steps: Sequence[int]) -> Optional[Window]:
    """Step-function search: add clients until a step gains less than 5 %
    over the best so far; the best step's window."""
    steps: List[Window] = []
    best = 0.0
    for clients in client_steps:
        steps.append(runner(clients))
        wips = steady_wips(steps[-1])
        if wips < best * 1.05:
            break
        best = max(best, wips)
    return max(steps, key=steady_wips, default=None)


def mean_before(series: TimeSeries, kill_at: float, span: float = 60.0) -> float:
    """Mean of the ``span`` seconds before the failure."""
    return series.between(max(0.0, kill_at - span), kill_at).mean()


def mean_during(series: TimeSeries, kill_at: float, start: float, end: float) -> float:
    """Mean between ``start`` and ``end`` seconds after the failure."""
    return series.between(kill_at + start, kill_at + end).mean()


def recovery_point(series: TimeSeries, kill_at: float, threshold: float = 0.9) -> float:
    """Offset after the failure at which service stays recovered.

    "Recovered" = two consecutive buckets at or above ``threshold`` of the
    pre-failure baseline (one bucket alone is too noisy).  Returns the
    measurement horizon if the series never recovers.
    """
    baseline = mean_before(series, kill_at)
    if baseline <= 0:
        return 0.0
    post = series.between(kill_at, series.times[-1] + 1)
    values = post.values
    for i, (t, value) in enumerate(zip(post.times, values)):
        next_ok = i + 1 >= len(values) or values[i + 1] >= threshold * baseline
        if value >= threshold * baseline and next_ok:
            return max(0.0, t - kill_at)
    horizon = series.times[-1] - kill_at if series.times else 0.0
    return max(0.0, horizon)


# -- the partial-replication capacity sweep ----------------------------------------------
def run_capacity_sweep(clients: int, duration: float) -> List[Tuple[Optional[int], RunReport]]:
    """Step the per-slave resident-page budget down under a fixed shopping
    workload on the ``partial`` plan's cluster shape (interest sets over 3
    slaves, replication factor 2): one ``(budget, report)`` per point.

    The paper's capacity argument: slaves holding a slice of the database
    and a bounded resident set serve a dataset larger than any one node's
    memory; pages spill and re-fault through the LRU, charged by the cost
    model.  The grid derives from the dataset size (the pages of a
    1-client, 1-second probe's master): uncapped, 3/4, 1/2 (the 2x
    acceptance point) and 1/4 of it.
    """

    def point(budget: Optional[int], browsers: int, seconds: float) -> RunReport:
        shape = {**PLANS["partial"].cluster(seconds), "num_slaves": 3, "slave_cache_pages": budget}
        plan = measured(
            THROUGHPUT, seconds, mix="shopping", browsers=browsers, cluster=bench_cluster(**shape)
        )
        return run_plan(plan)

    dataset = point(None, 1, 1.0).window.pages["m0"]
    budgets = [None, max(2, dataset * 3 // 4), max(2, dataset // 2), max(1, dataset // 4)]
    return [(budget, point(budget, clients, duration)) for budget in budgets]


# -- the on-disk baseline -----------------------------------------------------------------
def run_innodb(mix: str, clients: int, duration: float, kill_at: Optional[float] = None) -> Window:
    """Stand-alone InnoDB — or, with ``kill_at``, the paper's replicated
    baseline: two active replicas and a passive backup refreshed every
    280 s, with active ``d0`` killed at ``kill_at``, then settled for digests."""
    replicated = kill_at is not None
    cluster = SimDiskCluster(
        TPCW_SCHEMAS,
        num_active=2 if replicated else 1,
        num_passive=1 if replicated else 0,
        pool_pages=max(8, int(total_pages(BENCH_SCALE) * INNODB_POOL_FRACTION)),
        rows_per_page=BENCH_ROWS_PER_PAGE,
        cost_config=BENCH_COST,
        refresh_interval=280.0,
    )
    cluster.load_tables(cached_rows(BENCH_SCALE))
    cluster.start_browsers(clients, MIXES[mix], BENCH_SCALE, think_time_mean=BENCH_THINK_TIME)
    if replicated:
        cluster.kill_node_at("d0", kill_at)
    cluster.run(until=duration)
    window = Window(cluster.sim.now(), copy.deepcopy(cluster.metrics), tuple(cluster.timelines))
    return replace(window, digests=cluster.settle(duration + 30.0)) if replicated else window
