"""Experiment runners shared by all benchmark targets.

Throughput experiments follow the paper's methodology: a step function over
client counts, reporting the peak WIPS per configuration with warm caches
and the initial warm-up window excluded.  Failover experiments run a fixed
client population, inject one fault and report the 20-second-bucketed
throughput/latency series plus the reconfiguration timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.calibration import (
    BENCH_COST,
    BENCH_ROWS_PER_PAGE,
    BENCH_SCALE,
    BENCH_THINK_TIME,
    INNODB_POOL_FRACTION,
)
from repro.cluster.costs import CostConfig
from repro.cluster.simcluster import SimDmvCluster
from repro.cluster.simdisk import SimDiskCluster
from repro.cluster.sync import datagen_tables
from repro.sim.stats import TimeSeries
from repro.tpcw.datagen import TpcwDataGenerator
from repro.tpcw.mixes import MIXES
from repro.tpcw.schema import TPCW_SCHEMAS, TpcwScale

# Generated row sets are deterministic per (scale, seed): cache them so a
# parameter sweep does not regenerate the database for every step.
_ROW_CACHE: Dict[Tuple[int, int, int], List[Tuple[str, list]]] = {}


def cached_rows(scale: TpcwScale, seed: int = 42) -> List[Tuple[str, list]]:
    key = (scale.num_items, scale.num_customers, seed)
    rows = _ROW_CACHE.get(key)
    if rows is None:
        rows = [(t, list(r)) for t, r in datagen_tables(TpcwDataGenerator(scale, seed))]
        _ROW_CACHE[key] = rows
    return rows


def total_pages(scale: TpcwScale, seed: int = 42) -> int:
    """Pages one replica holds at this scale (for pool/cache sizing)."""
    rows = sum(len(r) for _t, r in cached_rows(scale, seed))
    return max(1, rows // BENCH_ROWS_PER_PAGE + 10)


@dataclass
class ThroughputRun:
    """One (configuration, client count) measurement."""

    clients: int
    wips: float
    latency_p95: float
    abort_rate: float
    completed: int
    #: Cluster-wide replication-pipeline totals (``net.*`` / ``slave.*``
    #: counters summed over all nodes); empty for configurations that do
    #: not replicate (stand-alone InnoDB).
    replication: Dict[str, float] = field(default_factory=dict)
    #: Client-side retries broken down by abort reason (deadlock,
    #: node-failure, reconfig-deadline, ...).
    retries_by_reason: Dict[str, int] = field(default_factory=dict)
    #: The run's tracer when measured with ``trace=True`` (else None).
    tracer: Optional[object] = None
    #: Update-commit latency percentiles in seconds (pre-commit through
    #: ack barrier); zero for configurations without the DMV commit path.
    commit_p50: float = 0.0
    commit_p95: float = 0.0
    commit_p99: float = 0.0

    def stage_table(self) -> str:
        """Per-stage p50/p95/p99 table (empty string without tracing)."""
        return self.tracer.stage_table() if self.tracer is not None else ""

    @property
    def bytes_shipped(self) -> float:
        return self.replication.get("net.bytes_shipped", 0.0)

    @property
    def delta_savings_fraction(self) -> float:
        """Fraction of would-be write-set bytes removed by delta encoding."""
        shipped = self.replication.get("net.bytes_shipped", 0.0)
        saved = self.replication.get("net.bytes_saved_delta", 0.0)
        total = shipped + saved
        return saved / total if total else 0.0


REPLICATION_COUNTERS = (
    "net.batches",
    "net.write_sets_sent",
    "net.bytes_shipped",
    "net.bytes_saved_delta",
    "slave.ops_buffered",
    "slave.ops_applied",
    "slave.ops_coalesced",
    # Chaos / fault-path counters: all zero on a healthy run, so they
    # double as a "nothing went wrong" assertion in bench output.
    "net.drops",
    "net.retransmits",
    "net.dups_ignored",
    "net.suspicions",
    "sched.queued_updates",
    "sched.deadline_rejects",
    # Commit epochs sealed / update commits that rode them (every update
    # commit is an epoch member; equal when no epoch batched).
    "engine.epochs",
    "engine.epoch_batched_commits",
    # Dynamic conflict-class counters: all zero with static classes.
    "sched.class_rehomes",
    "sched.class_splits",
    "sched.class_merges",
    "sched.rehome_aborts",
    # Overload-robustness counters: zero unless admission control, request
    # deadlines or retry budgets are configured on.
    "sched.admission_rejects",
    "sched.deadline_cancels",
    "bench.retries_exhausted",
    "traffic.retry_budget_exhausted",
)


def replication_totals(cluster) -> Dict[str, float]:
    """Sum the replication fast-path counters over every node of a run."""
    from repro.common.counters import Counters

    sources = [node.counters for node in cluster.nodes.values()]
    cluster_counters = getattr(cluster, "counters", None)
    if cluster_counters is not None:
        sources.append(cluster_counters)
    merged = Counters.merged(sources)
    return {name: merged.get(name) for name in REPLICATION_COUNTERS}


@dataclass
class PeakResult:
    """Step-function outcome for one configuration."""

    label: str
    steps: List[ThroughputRun] = field(default_factory=list)

    @property
    def peak_wips(self) -> float:
        return max((s.wips for s in self.steps), default=0.0)

    @property
    def peak_step(self) -> Optional[ThroughputRun]:
        return max(self.steps, key=lambda s: s.wips) if self.steps else None


def _measure(cluster, duration: float, warmup_fraction: float = 0.33) -> Tuple[float, float]:
    """(steady-state WIPS, p95 latency) over the post-warm-up window."""
    cluster.run(until=duration)
    start = duration * warmup_fraction
    series = cluster.metrics.wips.series(end=duration).between(start, duration)
    wips = series.mean()
    lat = cluster.metrics.latency.percentile(95)
    return wips, lat


# -- DMV throughput -----------------------------------------------------------------
def run_dmv_throughput(
    mix_name: str,
    num_slaves: int,
    clients: int,
    duration: float = 60.0,
    scale: TpcwScale = BENCH_SCALE,
    cost: CostConfig = BENCH_COST,
    think_time: float = BENCH_THINK_TIME,
    seed: int = 0,
    trace: bool = False,
    **cluster_kwargs,
) -> ThroughputRun:
    """One DMV throughput step.

    ``cluster_kwargs`` go to :class:`SimDmvCluster` verbatim —
    ``multi_master``/``num_masters``/``conflict_map`` select the write
    scale-out shape (the write-path scaling figure); the defaults keep the
    legacy single-master cluster.
    """
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        num_slaves=num_slaves,
        cost_config=cost,
        rows_per_page=BENCH_ROWS_PER_PAGE,
        seed=seed,
        trace=trace,
        **cluster_kwargs,
    )
    cluster.load_tables(cached_rows(scale))
    cluster.warm_all_caches()
    cluster.start_browsers(clients, MIXES[mix_name], scale, think_time_mean=think_time)
    wips, lat = _measure(cluster, duration)
    commits = cluster.metrics.commit_latency
    return ThroughputRun(
        clients, wips, lat, cluster.metrics.abort_rate(), cluster.metrics.completed,
        replication=replication_totals(cluster),
        retries_by_reason=dict(cluster.metrics.aborts_by_reason),
        tracer=cluster.tracer if trace else None,
        commit_p50=commits.percentile(50),
        commit_p95=commits.percentile(95),
        commit_p99=commits.percentile(99),
    )


def run_innodb_throughput(
    mix_name: str,
    clients: int,
    duration: float = 60.0,
    scale: TpcwScale = BENCH_SCALE,
    cost: CostConfig = BENCH_COST,
    think_time: float = BENCH_THINK_TIME,
    pool_fraction: float = INNODB_POOL_FRACTION,
    seed: int = 0,
) -> ThroughputRun:
    pool = max(8, int(total_pages(scale) * pool_fraction))
    cluster = SimDiskCluster(
        TPCW_SCHEMAS,
        num_active=1,
        pool_pages=pool,
        rows_per_page=BENCH_ROWS_PER_PAGE,
        cost_config=cost,
        seed=seed,
    )
    cluster.load_tables(cached_rows(scale))
    cluster.start_browsers(clients, MIXES[mix_name], scale, think_time_mean=think_time)
    wips, lat = _measure(cluster, duration)
    return ThroughputRun(
        clients, wips, lat, cluster.metrics.abort_rate(), cluster.metrics.completed,
        retries_by_reason=dict(cluster.metrics.aborts_by_reason),
    )


def find_peak(
    label: str,
    runner: Callable[[int], ThroughputRun],
    client_steps: List[int],
    improvement: float = 1.05,
) -> PeakResult:
    """Step-function search: stop once adding clients stops helping."""
    result = PeakResult(label)
    best = 0.0
    for clients in client_steps:
        step = runner(clients)
        result.steps.append(step)
        if step.wips < best * improvement:
            break
        best = max(best, step.wips)
    return result


# -- failover experiments --------------------------------------------------------------
@dataclass
class FailoverResult:
    """Series + timeline of one fault-injection experiment."""

    label: str
    series: TimeSeries
    latency_series: TimeSeries
    kill_time: float
    timeline: Optional[object] = None
    metrics: Optional[object] = None

    def mean_before(self, window: float = 60.0) -> float:
        return self.series.between(max(0.0, self.kill_time - window), self.kill_time).mean()

    def mean_during(self, start_offset: float, end_offset: float) -> float:
        return self.series.between(
            self.kill_time + start_offset, self.kill_time + end_offset
        ).mean()

    def recovery_point(self, threshold: float = 0.9, window: float = 20.0) -> float:
        """Offset after the failure at which service stays recovered.

        "Recovered" = two consecutive buckets at or above ``threshold`` of
        the pre-failure baseline (one bucket alone is too noisy).  Returns
        the measurement horizon if the series never recovers.
        """
        baseline = self.mean_before()
        if baseline <= 0:
            return 0.0
        post = self.series.between(self.kill_time, self.series.times[-1] + 1)
        values = post.values
        for i, (t, value) in enumerate(zip(post.times, values)):
            next_ok = i + 1 >= len(values) or values[i + 1] >= threshold * baseline
            if value >= threshold * baseline and next_ok:
                return max(0.0, t - self.kill_time)
        horizon = self.series.times[-1] - self.kill_time if self.series.times else 0.0
        return max(0.0, horizon)


def run_dmv_failover(
    victim: str,
    mix_name: str = "shopping",
    num_slaves: int = 2,
    num_spares: int = 0,
    stale_backup: bool = False,
    spare_read_fraction: float = 0.0,
    pageid_ship_every: float = 0.0,
    warm_spares: bool = True,
    clients: int = 60,
    kill_at: float = 120.0,
    duration: float = 420.0,
    scale: TpcwScale = BENCH_SCALE,
    cost: CostConfig = BENCH_COST,
    checkpoint_period: float = 1e9,
    think_time: float = BENCH_THINK_TIME,
    seed: int = 0,
) -> FailoverResult:
    """Kill one in-memory node at ``kill_at`` and watch the reconfiguration."""
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        num_slaves=num_slaves,
        num_spares=num_spares,
        cost_config=cost,
        rows_per_page=BENCH_ROWS_PER_PAGE,
        seed=seed,
        spare_read_fraction=spare_read_fraction,
        pageid_ship_every=pageid_ship_every,
        checkpoint_period=checkpoint_period,
    )
    cluster.load_tables(cached_rows(scale))
    cluster.warm_all_caches()
    for i in range(num_spares):
        spare_id = f"spare{i}"
        if stale_backup:
            cluster.make_stale_backup(spare_id)
        if not warm_spares:
            cluster.chill_cache(spare_id)
    cluster.start_browsers(clients, MIXES[mix_name], scale, think_time_mean=think_time)
    cluster.kill_node_at(victim, kill_at)
    cluster.run(until=duration)
    timeline = cluster.timelines[0] if cluster.timelines else None
    return FailoverResult(
        label=f"dmv/{victim}",
        series=cluster.metrics.wips.series(end=duration),
        latency_series=cluster.metrics.latency_series.bucketed(20.0),
        kill_time=kill_at,
        timeline=timeline,
        metrics=cluster.metrics,
    )


def run_innodb_failover(
    mix_name: str = "shopping",
    clients: int = 20,
    kill_at: float = 300.0,
    duration: float = 900.0,
    refresh_interval: float = 280.0,
    scale: TpcwScale = BENCH_SCALE,
    cost: CostConfig = BENCH_COST,
    think_time: float = BENCH_THINK_TIME,
    pool_fraction: float = INNODB_POOL_FRACTION,
    seed: int = 0,
) -> FailoverResult:
    """The paper's baseline: 2 active on-disk replicas + 1 stale backup."""
    pool = max(8, int(total_pages(scale) * pool_fraction))
    cluster = SimDiskCluster(
        TPCW_SCHEMAS,
        num_active=2,
        num_passive=1,
        pool_pages=pool,
        rows_per_page=BENCH_ROWS_PER_PAGE,
        cost_config=cost,
        refresh_interval=refresh_interval,
        seed=seed,
    )
    cluster.load_tables(cached_rows(scale))
    cluster.start_browsers(clients, MIXES[mix_name], scale, think_time_mean=think_time)
    cluster.kill_node_at("d0", kill_at)
    cluster.run(until=duration)
    timeline = cluster.timelines[0] if cluster.timelines else None
    return FailoverResult(
        label="innodb/stale-backup",
        series=cluster.metrics.wips.series(end=duration),
        latency_series=cluster.metrics.latency_series.bucketed(20.0),
        kill_time=kill_at,
        timeline=timeline,
        metrics=cluster.metrics,
    )


def run_reintegration(
    mix_name: str = "shopping",
    num_slaves: int = 4,
    clients: int = 60,
    kill_at: float = 120.0,
    reboot_delay: float = 60.0,
    duration: float = 420.0,
    scale: TpcwScale = BENCH_SCALE,
    cost: CostConfig = BENCH_COST,
    checkpoint_period: float = 1e9,
    think_time: float = BENCH_THINK_TIME,
    seed: int = 0,
) -> FailoverResult:
    """The Figure 4 experiment: kill the master, reboot, reintegrate."""
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        num_slaves=num_slaves,
        cost_config=cost,
        rows_per_page=BENCH_ROWS_PER_PAGE,
        seed=seed,
        checkpoint_period=checkpoint_period,
    )
    cluster.load_tables(cached_rows(scale))
    cluster.warm_all_caches()
    cluster.start_browsers(clients, MIXES[mix_name], scale, think_time_mean=think_time)
    cluster.kill_node_at("m0", kill_at)
    cluster.sim.schedule(kill_at + reboot_delay, cluster.reintegrate, "m0")
    cluster.run(until=duration)
    reintegration = next(
        (t for t in cluster.timelines if t.migration_pages > 0), None
    )
    return FailoverResult(
        label="dmv/reintegration",
        series=cluster.metrics.wips.series(end=duration),
        latency_series=cluster.metrics.latency_series.bucketed(20.0),
        kill_time=kill_at,
        timeline=reintegration,
        metrics=cluster.metrics,
    )
