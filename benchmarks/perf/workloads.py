"""The four benchmark workloads: build, drive, quiesce, audit.

Every workload is a TPC-W mix on a simulated DMV cluster.  ``--seed`` feeds
the cluster / traffic RNG streams (browser choices, think times, arrival
schedule); the dataset seed stays 42 so every run queries the same rows.
A run's simulated length is ``seconds * sim_s_per_second``: the ratio is a
per-workload constant probed so that one run second costs about one CPU
second of simulation here, which makes every simulated metric a pure
function of ``(workload, seed, seconds)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from repro.bench.calibration import (
    BENCH_COST,
    BENCH_ROWS_PER_PAGE,
    BENCH_SCALE,
    BENCH_THINK_TIME,
)
from repro.chaos.faults import CrashNode, FaultPlan, ReintegrateNode
from repro.chaos.invariants import check_all_invariants
from repro.cluster.costs import CostConfig
from repro.cluster.simcluster import SimDmvCluster
from repro.tpcw import TpcwScale, tpcw_conflict_map
from repro.tpcw.datagen import TpcwDataGenerator
from repro.tpcw.mixes import MIXES
from repro.tpcw.schema import TPCW_SCHEMAS
from repro.traffic import ConstantRate, OpenLoopEngine, TenantSpec, TrafficScenario

from hostclock import Stopwatch

DATASET_SEED = 42
#: Virtual seconds after the clients stop, so in-flight interactions,
#: retransmissions and reconfigurations drain before the invariant audit.
SETTLE_SIM_S = 25.0
#: The latency limit of ``slo_met_share`` (and of open-loop ``wips``).
SLO_SIM_S = 1.0
#: Attempts per interaction: high enough that none fails by running out of
#: retries (at the default 8 a handful per run do, which makes ``failed``
#: seed-dependent noise); a real wedge still shows as in-flight at the audit.
MAX_ATTEMPTS = 1000
#: The client-active part of a run is timed in this many equal spans of
#: virtual time; the host throughput is the median span's.
RUN_SLICES = 16

#: Hot-item scale of the write scale-out figure: 40 items concentrate the
#: ordering mix's writes on a few pages.
HOT_SCALE = TpcwScale(num_items=40, num_customers=144)
SCALEOUT_COST = replace(
    BENCH_COST,
    update_mpl=4,
    epoch_max_txns=8,
    epoch_ms=5.0,
    dynamic_classes=True,
    rebalance_interval=5.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: str
    scale: TpcwScale
    #: Simulated seconds of client activity per ``--seconds`` second.
    sim_s_per_second: float
    cluster_kwargs: dict
    cost: CostConfig = BENCH_COST
    #: Closed loop: emulated browsers and their mean think time.
    browsers: int = 0
    think_time: float = BENCH_THINK_TIME
    #: Open loop: Poisson arrivals per simulated second (0 = closed loop).
    open_rate: float = 0.0
    #: Crash the master at this fraction of the run, reintegrate at the other.
    crash_at: Optional[float] = None
    reintegrate_at: Optional[float] = None

    @property
    def open_loop(self) -> bool:
        return self.open_rate > 0


WORKLOADS = (
    Workload(
        name="browse_reads",
        why="browsing mix (5% writes), 1 master + 4 slaves, 100 closed-loop browsers: "
        "slave read path (sql, engine, storage) and read routing; replication nearly idle",
        mix="browsing",
        scale=BENCH_SCALE,
        sim_s_per_second=35.0,
        cluster_kwargs=dict(num_slaves=4),
        browsers=100,
    ),
    Workload(
        name="order_writes",
        why="ordering mix (50% writes), same cluster, 48 closed-loop browsers below the "
        "abort knee: engine write/OCC path, one broadcast and ack barrier per commit",
        mix="ordering",
        scale=BENCH_SCALE,
        sim_s_per_second=24.0,
        cluster_kwargs=dict(num_slaves=4),
        browsers=48,
    ),
    Workload(
        name="hot_scaleout",
        why="ordering mix on 40 hot items, 4 masters + 8 slaves, 160 browsers, MPL 4, "
        "epoch-batched commit, dynamic re-homing: the other commit path, 12 nodes of events",
        mix="ordering",
        scale=HOT_SCALE,
        sim_s_per_second=9.0,
        cluster_kwargs=dict(num_slaves=8, multi_master=True, num_masters=4),
        cost=SCALEOUT_COST,
        browsers=160,
        think_time=0.3,
    ),
    Workload(
        name="shop_failover_open",
        why="shopping mix (20% writes), open loop at 40 req/s, master crash at 30% and "
        "reintegration at 60%: election, promotion, page migration, update queueing",
        mix="shopping",
        scale=BENCH_SCALE,
        sim_s_per_second=36.0,
        cluster_kwargs=dict(num_slaves=3, num_schedulers=2),
        open_rate=40.0,
        crash_at=0.3,
        reintegrate_at=0.6,
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}


class _LagRecordingEngine(OpenLoopEngine):
    """Records how late (virtual time) the injector spawned each request."""

    max_inject_lag = 0.0

    def _request(self, tenant, scheduled_at):
        lag = self.cluster.sim.now() - scheduled_at
        if lag > self.max_inject_lag:
            self.max_inject_lag = lag
        return super()._request(tenant, scheduled_at)


@dataclass
class Run:
    """One finished, quiesced, audited run and its host-side costs."""

    workload: Workload
    seed: int
    sim_duration: float
    cluster: SimDmvCluster
    engine: Optional[OpenLoopEngine]
    #: Median set-up and the whole measured phase (calibration passes excluded).
    setup: Stopwatch
    run_cpu_s: float
    run_wall_s: float
    run_calibrated_s: float
    #: Completed interactions per calibrated CPU second, one per slice.
    slice_rates: List[float]
    invariants: list


def set_up(workload: Workload, seed: int, trace: bool = False) -> SimDmvCluster:
    """Build the cluster, generate and bulk-load the dataset, checkpoint, warm."""
    kwargs = dict(workload.cluster_kwargs)
    if kwargs.get("multi_master"):
        kwargs["conflict_map"] = tpcw_conflict_map(multi_master=True)
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        cost_config=workload.cost,
        rows_per_page=BENCH_ROWS_PER_PAGE,
        seed=seed,
        trace=trace,
        **kwargs,
    )
    cluster.load(TpcwDataGenerator(workload.scale, seed=DATASET_SEED))
    cluster.warm_all_caches()
    return cluster


def _start_clients(workload: Workload, cluster: SimDmvCluster, seed: int, sim_duration: float):
    """Start the load; returns the open-loop engine (None for a closed loop)."""
    if workload.crash_at is not None:
        FaultPlan(
            seed=seed,
            events=(
                CrashNode(at=round(sim_duration * workload.crash_at, 3), node_id="m0"),
                ReintegrateNode(
                    at=round(sim_duration * workload.reintegrate_at, 3), node_id="m0"
                ),
            ),
        ).schedule(cluster)
    if not workload.open_loop:
        cluster.start_browsers(
            workload.browsers,
            MIXES[workload.mix],
            workload.scale,
            think_time_mean=workload.think_time,
            max_retries=MAX_ATTEMPTS,
        )
        cluster.sim.schedule(sim_duration, cluster.stop_browsers)
        return None
    scenario = TrafficScenario(
        name=workload.name,
        duration=sim_duration + SETTLE_SIM_S,
        tenants=(
            TenantSpec(
                "shoppers",
                shape=ConstantRate(workload.open_rate),
                mix=workload.mix,
                slo_latency=SLO_SIM_S,
                max_attempts=MAX_ATTEMPTS,
            ),
        ),
        settle=SETTLE_SIM_S,
    )
    engine = _LagRecordingEngine(cluster, scenario, seed=seed, scale=workload.scale)
    engine.start()
    return engine


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    around_run: Callable[..., object] = lambda fn, *args, **kwargs: fn(*args, **kwargs),
    setup_repeats: int = 1,
) -> Run:
    """Set up (``setup_repeats`` times, timing each), drive the clients for
    ``seconds * sim_s_per_second`` virtual seconds, settle, audit.

    The measured phase runs in ``RUN_SLICES`` equal spans of virtual time,
    each timed with its own calibration pass, then the settle span.
    ``around_run(fn, **kwargs)`` wraps every call into the event loop (the
    profiler hooks in there, so it sees the program and nothing else).
    """
    sim_duration = seconds * workload.sim_s_per_second
    setups = []
    cluster = None
    for _ in range(max(1, setup_repeats)):
        cluster = None  # free the previous replica set before building the next
        with Stopwatch() as watch:
            cluster = set_up(workload, seed, trace)
        setups.append(watch)
    setups.sort(key=lambda watch: watch.calibrated_s)

    engine = _start_clients(workload, cluster, seed, sim_duration)
    slices: List[Stopwatch] = []
    rates = []
    for index in range(1, RUN_SLICES + 2):
        until = sim_duration * index / RUN_SLICES if index <= RUN_SLICES else (
            sim_duration + SETTLE_SIM_S
        )
        before = cluster.metrics.completed
        with Stopwatch() as watch:
            around_run(cluster.run, until=until)
        slices.append(watch)
        if index <= RUN_SLICES:  # the settle span completes next to nothing
            rates.append((cluster.metrics.completed - before) / watch.calibrated_s)

    return Run(
        workload=workload,
        seed=seed,
        sim_duration=sim_duration,
        cluster=cluster,
        engine=engine,
        setup=setups[len(setups) // 2],
        run_cpu_s=sum(watch.cpu_s for watch in slices),
        run_wall_s=sum(watch.wall_s for watch in slices),
        run_calibrated_s=sum(watch.calibrated_s for watch in slices),
        slice_rates=rates,
        invariants=audit(cluster),
    )


def audit(cluster: SimDmvCluster) -> list:
    """``check_all_invariants`` on the quiesced cluster.

    The two commit-log checkers ask "replica watermark >= version" for every
    table of every logged commit, and ``check_durable_commits`` rescans every
    page of every replica for each one — minutes at 7 k commits.  Only the
    highest logged version of a table can decide that question, so the audit
    runs on the log's per-table maxima and gives the same verdict.
    """
    full_log = cluster.commit_log
    highest: dict = {}
    for master_id, txn_id, versions in full_log:
        for table, version in versions.items():
            if table not in highest or version > highest[table][2][table]:
                highest[table] = (master_id, txn_id, {table: version})
    cluster.commit_log = [highest[table] for table in sorted(highest)]
    try:
        return check_all_invariants(cluster)
    finally:
        cluster.commit_log = full_log
