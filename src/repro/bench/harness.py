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

    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-stage latency summaries (empty without tracing)."""
        return self.tracer.stages.summary() if self.tracer is not None else {}

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
    ack_policy: str = "all",
    quorum_k: int = 1,
    straggler: Optional[str] = None,
    straggler_factor: float = 8.0,
    straggler_at: float = 0.0,
    multi_master: bool = False,
    num_masters: Optional[int] = None,
    conflict_map=None,
) -> ThroughputRun:
    """One DMV throughput step, optionally with an injected straggler.

    ``straggler`` names a node whose service times are inflated by
    ``straggler_factor`` from ``straggler_at`` onward — the gray-failure
    setup the ack-policy comparison (§ straggler tolerance) measures.
    ``multi_master``/``num_masters``/``conflict_map`` select the write
    scale-out shape (the write-path scaling figure); the defaults keep the
    legacy single-master cluster.
    """
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        num_slaves=num_slaves,
        conflict_map=conflict_map,
        multi_master=multi_master,
        num_masters=num_masters,
        cost_config=cost,
        rows_per_page=BENCH_ROWS_PER_PAGE,
        seed=seed,
        trace=trace,
        ack_policy=ack_policy,
        quorum_k=quorum_k,
    )
    cluster.load_tables(cached_rows(scale))
    cluster.warm_all_caches()
    if straggler is not None:
        cluster.sim.schedule(
            straggler_at, cluster.set_slowdown, straggler, straggler_factor
        )
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


@dataclass
class ProfileRun:
    """Wall-clock profile: how much simulated work one real second buys.

    Simulated WIPS measures the *modelled* system; this measures the
    simulator itself — the engine hot path (event kernel, lock manager,
    page reads, SQL plan cache) is what burns host CPU.  ``setup`` (build,
    load, warm) and the measured run are timed separately so data-generation
    cost does not dilute the hot-path number.
    """

    mix: str
    slaves: int
    clients: int
    duration: float
    seed: int
    read_concurrency: str
    setup_wall_s: float
    run_wall_s: float
    wips: float
    completed: int
    abort_rate: float
    retries_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Hot-path instrumentation: ``kernel.fast_resumes`` plus the merged
    #: ``engine.occ_*`` / ``engine.plan_cache_hits`` / ``engine.lock_fast_grants``
    #: counters (all zero when profiling the legacy 2PL path).
    hotpath_counters: Dict[str, float] = field(default_factory=dict)

    @property
    def wips_per_wall_second(self) -> float:
        return self.wips / self.run_wall_s if self.run_wall_s else 0.0

    @property
    def completed_per_wall_second(self) -> float:
        return self.completed / self.run_wall_s if self.run_wall_s else 0.0

    @property
    def occ_abort_fraction(self) -> float:
        """occ-conflict aborts per validation (the <5 % acceptance gate)."""
        validations = self.hotpath_counters.get("engine.occ_validations", 0.0)
        aborts = self.hotpath_counters.get("engine.occ_aborts", 0.0)
        return aborts / validations if validations else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": "engine_hotpath",
            "config": {
                "mix": self.mix,
                "slaves": self.slaves,
                "clients": self.clients,
                "duration_sim_s": self.duration,
                "seed": self.seed,
                "read_concurrency": self.read_concurrency,
            },
            "setup_wall_s": round(self.setup_wall_s, 3),
            "run_wall_s": round(self.run_wall_s, 3),
            "wips": round(self.wips, 2),
            "wips_per_wall_second": round(self.wips_per_wall_second, 2),
            "completed": self.completed,
            "completed_per_wall_second": round(self.completed_per_wall_second, 1),
            "abort_rate": round(self.abort_rate, 4),
            "occ_abort_fraction": round(self.occ_abort_fraction, 4),
            "retries_by_reason": dict(self.retries_by_reason),
            "hotpath_counters": {
                k: int(v) for k, v in sorted(self.hotpath_counters.items())
            },
        }


HOTPATH_COUNTERS = (
    "engine.occ_validations",
    "engine.occ_aborts",
    "engine.plan_cache_hits",
    "engine.lock_fast_grants",
)


def run_profile(
    mix_name: str = "ordering",
    num_slaves: int = 4,
    clients: int = 100,
    duration: float = 30.0,
    seed: int = 0,
    read_concurrency: str = "occ",
    scale: TpcwScale = BENCH_SCALE,
    think_time: float = BENCH_THINK_TIME,
) -> ProfileRun:
    """Measure simulated-WIPS-per-wall-second on the DMV engine hot path."""
    import time
    from dataclasses import replace

    from repro.common.counters import Counters

    cost = replace(BENCH_COST, read_concurrency=read_concurrency)
    setup_start = time.perf_counter()
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        num_slaves=num_slaves,
        cost_config=cost,
        rows_per_page=BENCH_ROWS_PER_PAGE,
        seed=seed,
    )
    cluster.load_tables(cached_rows(scale))
    cluster.warm_all_caches()
    cluster.start_browsers(clients, MIXES[mix_name], scale, think_time_mean=think_time)
    run_start = time.perf_counter()
    wips, _lat = _measure(cluster, duration)
    run_wall = time.perf_counter() - run_start
    merged = Counters.merged([node.counters for node in cluster.nodes.values()])
    hotpath = {name: merged.get(name) for name in HOTPATH_COUNTERS}
    hotpath["kernel.fast_resumes"] = float(cluster.sim.fast_resumes)
    return ProfileRun(
        mix=mix_name,
        slaves=num_slaves,
        clients=clients,
        duration=duration,
        seed=seed,
        read_concurrency=read_concurrency,
        setup_wall_s=run_start - setup_start,
        run_wall_s=run_wall,
        wips=wips,
        completed=cluster.metrics.completed,
        abort_rate=cluster.metrics.abort_rate(),
        retries_by_reason=dict(cluster.metrics.aborts_by_reason),
        hotpath_counters=hotpath,
    )


@dataclass
class StragglerComparison:
    """Commit-latency matrix: (ack policy) x (straggler injected or not)."""

    baseline: ThroughputRun          # all acks, healthy cluster
    all_straggler: ThroughputRun     # all acks, one slow slave
    quorum_baseline: ThroughputRun   # quorum acks, healthy cluster
    quorum_straggler: ThroughputRun  # quorum acks, one slow slave

    def table(self) -> str:
        header = (
            f"{'configuration':<26} {'wips':>8} {'commit p50':>12} "
            f"{'commit p95':>12} {'commit p99':>12} {'p99 vs base':>12}"
        )
        base = self.baseline.commit_p99 or 1e-12
        rows = [header, "-" * len(header)]
        for label, run in (
            ("all / healthy", self.baseline),
            ("all / straggler", self.all_straggler),
            ("quorum / healthy", self.quorum_baseline),
            ("quorum / straggler", self.quorum_straggler),
        ):
            rows.append(
                f"{label:<26} {run.wips:>8.1f} {run.commit_p50 * 1000:>10.3f}ms "
                f"{run.commit_p95 * 1000:>10.3f}ms {run.commit_p99 * 1000:>10.3f}ms "
                f"{run.commit_p99 / base:>11.2f}x"
            )
        return "\n".join(rows)


def run_straggler_comparison(
    mix_name: str = "ordering",
    num_slaves: int = 3,
    clients: int = 40,
    duration: float = 60.0,
    straggler: str = "s2",
    straggler_factor: float = 12.0,
    quorum_k: int = 1,
    scale: TpcwScale = BENCH_SCALE,
    cost: CostConfig = BENCH_COST,
    think_time: float = BENCH_THINK_TIME,
    seed: int = 0,
) -> StragglerComparison:
    """The straggler-tolerance experiment: does one slow slave drag commits?

    Under ``all`` acks every update commit waits for the slowest replica,
    so commit p99 tracks the straggler's inflation.  Under ``quorum`` acks
    the laggard is demoted out of the ack set and commit latency stays at
    the healthy baseline.
    """
    common = dict(
        mix_name=mix_name, num_slaves=num_slaves, clients=clients,
        duration=duration, scale=scale, cost=cost,
        think_time=think_time, seed=seed,
    )
    return StragglerComparison(
        baseline=run_dmv_throughput(**common),
        all_straggler=run_dmv_throughput(
            **common, straggler=straggler, straggler_factor=straggler_factor
        ),
        quorum_baseline=run_dmv_throughput(
            **common, ack_policy="quorum", quorum_k=quorum_k
        ),
        quorum_straggler=run_dmv_throughput(
            **common, ack_policy="quorum", quorum_k=quorum_k,
            straggler=straggler, straggler_factor=straggler_factor,
        ),
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
