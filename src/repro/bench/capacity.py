"""Fig. 3-style capacity sweep for partial replication + hot/cold tiering.

The paper's capacity argument: a cluster whose slaves each hold only a
slice of the database (interest sets) plus a bounded resident-page budget
(hot/cold tiering) can serve an aggregate dataset larger than any single
node's memory.  This sweep fixes the workload (shopping mix, partial
interest sets) and steps the per-slave resident-page budget down from
"everything fits" to "a fraction of the dataset", reporting throughput,
fault traffic and the invariant verdicts at every point.

The headline acceptance point is ``dataset_pages >= 2 * budget``: the
cluster keeps completing interactions (pages spill and re-fault through
the LRU, charged via the cost model) and every invariant — including
``interest-coverage`` — stays green.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.calibration import BENCH_COST, BENCH_ROWS_PER_PAGE, BENCH_SCALE
from repro.bench.harness import _measure, cached_rows
from repro.chaos.invariants import check_all_invariants
from repro.chaos.plans import PLANS
from repro.cluster.costs import CostConfig
from repro.cluster.simcluster import SimDmvCluster
from repro.common.counters import Counters
from repro.tpcw.mixes import MIXES
from repro.tpcw.schema import TPCW_SCHEMAS, TpcwScale

#: Counters recorded per point: partial-replication traffic
#: savings, coverage routing decisions and the tiering churn that proves
#: cold pages actually spilled.
CAPACITY_COUNTERS = (
    "net.bytes_shipped",
    "net.bytes_saved_partial",
    "net.write_sets_filtered",
    "sched.coverage_rejects",
    "sched.partial_master_fallbacks",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
)


@dataclass
class CapacityPoint:
    """One (resident-page budget) measurement."""

    #: Per-slave resident-page budget; None means uncapped (full residence).
    budget_pages: Optional[int]
    wips: float
    latency_p95: float
    completed: int
    #: Pages of the loaded dataset (counted on a full-interest master).
    dataset_pages: int
    invariants_ok: bool
    invariant_failures: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def capacity_ratio(self) -> float:
        """dataset_pages / budget — >= 2.0 is the acceptance point."""
        if not self.budget_pages:
            return 1.0
        return self.dataset_pages / self.budget_pages


@dataclass
class CapacitySweep:
    mix: str
    clients: int
    duration: float
    seed: int
    dataset_pages: int
    points: List[CapacityPoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.invariants_ok and p.completed > 0 for p in self.points)

    @property
    def acceptance_point(self) -> Optional[CapacityPoint]:
        """The tightest measured point with dataset >= 2x one slave's budget."""
        eligible = [p for p in self.points if p.budget_pages and p.capacity_ratio >= 2.0]
        return min(eligible, key=lambda p: p.budget_pages) if eligible else None


def _merged_counters(cluster) -> Counters:
    sources = [node.counters for node in cluster.nodes.values()]
    sources.append(cluster.counters)
    return Counters.merged(sources)


def run_capacity_point(
    budget_pages: Optional[int],
    mix_name: str = "shopping",
    clients: int = 24,
    duration: float = 40.0,
    seed: int = 0,
    scale: TpcwScale = BENCH_SCALE,
    rows_per_page: int = BENCH_ROWS_PER_PAGE,
    cost: CostConfig = BENCH_COST,
) -> CapacityPoint:
    """Measure one budget point of the partial-replication capacity sweep:
    the ``partial`` plan's cluster shape (interest sets over 3 slaves,
    replication factor 2) with the resident budget under test."""
    shape = dict(PLANS["partial"].cluster(duration), slave_cache_pages=budget_pages)
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        num_slaves=3,
        cost_config=cost,
        rows_per_page=rows_per_page,
        seed=seed,
        **shape,
    )
    cluster.load_tables(cached_rows(scale))
    # Warm through the budgeted LRU: with a finite budget only the most
    # recently touched pages stay resident — the sweep's cold tier.
    cluster.warm_all_caches()
    cluster.start_browsers(clients, MIXES[mix_name], scale, think_time_mean=1.0)
    wips, lat = _measure(cluster, duration)
    master = next(node for node in cluster.nodes.values() if node.master is not None)
    dataset_pages = sum(1 for _ in master.engine.store.all_pages())
    results = check_all_invariants(cluster)
    merged = _merged_counters(cluster)
    return CapacityPoint(
        budget_pages=budget_pages,
        wips=wips,
        latency_p95=lat,
        completed=cluster.metrics.completed,
        dataset_pages=dataset_pages,
        invariants_ok=all(r.ok for r in results),
        invariant_failures=[f"{r.name}: {r.detail}" for r in results if not r.ok],
        counters={name: merged.get(name) for name in CAPACITY_COUNTERS},
    )


def run_capacity_sweep(
    budgets: Optional[Sequence[Optional[int]]] = None,
    mix_name: str = "shopping",
    clients: int = 24,
    duration: float = 40.0,
    seed: int = 0,
    scale: TpcwScale = BENCH_SCALE,
    rows_per_page: int = BENCH_ROWS_PER_PAGE,
    cost: CostConfig = BENCH_COST,
) -> CapacitySweep:
    """Step the per-slave resident budget down across the fixed workload.

    The default grid derives from the dataset size: uncapped (legacy full
    residence), a comfortable half-dataset budget, the 2x acceptance point
    (budget = dataset/2) and a punishing dataset/4 point.
    """
    probe = run_capacity_point(
        None, mix_name, 1, 1.0, seed, scale, rows_per_page, cost
    )
    dataset_pages = probe.dataset_pages
    if budgets is None:
        budgets = [
            None,
            max(2, (dataset_pages * 3) // 4),
            max(2, dataset_pages // 2),
            max(1, dataset_pages // 4),
        ]
    sweep = CapacitySweep(
        mix=mix_name,
        clients=clients,
        duration=duration,
        seed=seed,
        dataset_pages=dataset_pages,
    )
    for budget in budgets:
        sweep.points.append(
            run_capacity_point(
                budget, mix_name, clients, duration, seed, scale, rows_per_page, cost
            )
        )
    return sweep
