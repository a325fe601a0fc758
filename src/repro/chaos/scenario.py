"""Seeded end-to-end chaos scenarios: workload + fault plan + invariants.

A scenario builds a TPC-W-driven :class:`SimDmvCluster`, installs a
:class:`~repro.chaos.faults.FaultPlan`, runs the workload through the fault
schedule, quiesces the browsers, and audits the cluster with the
:mod:`~repro.chaos.invariants` checkers.  Everything is derived from one
seed, and the report carries a fingerprint over every counter: rerunning
``run_chaos_scenario(seed=S)`` must reproduce the fingerprint bit-for-bit,
which is what the seeded soak test and the CI smoke job assert.

Run a named one (:data:`repro.chaos.plans.PLANS`) from the command line::

    PYTHONPATH=src python -m repro.chaos --plan default
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos.faults import FaultPlan
from repro.chaos.invariants import InvariantResult, check_all_invariants
from repro.chaos.plans import Plan, default_chaos_plan
from repro.common.counters import Counters

#: Counters surfaced in the report (and by the bench harness summary).
CHAOS_COUNTERS = (
    "net.write_sets_sent",
    "slave.write_sets_received",
    "net.drops",
    "net.retransmits",
    "net.dups_ignored",
    "net.bytes_dropped",
    "net.sched_state_drops",
    "net.suspicions",
    "sched.queued_updates",
    "sched.deadline_rejects",
    "net.quorum_commits",
    "net.quorum_saves",
    "net.acks_skipped_demoted",
    "slave.demotions",
    "slave.rejoins",
    "slave.replay_write_sets",
    "slave.forced_drains",
    "sched.shed_requests",
    "wal.records",
    "wal.replayed",
    "wal.torn_tail_records",
    "wal.ghost_records_skipped",
    "wal.ghost_ops_discarded",
    "checkpoint.corrupt_pages",
    "checkpoint.fallback_pages",
    "disk.restart_recoveries",
    # Commit epochs sealed / update commits that rode them (every update
    # commit is an epoch member; equal when no epoch batched).
    "engine.epochs",
    "engine.epoch_batched_commits",
    # Dynamic conflict-class counters: all zero with static classes.
    "sched.class_rehomes",
    "sched.class_splits",
    "sched.class_merges",
    "sched.rehome_aborts",
    # Partial replication + tiering counters: all zero on full-replication
    # runs (interest filtering, coverage routing and resident-budget
    # eviction only fire when configured on).
    "net.bytes_saved_partial",
    "net.write_sets_filtered",
    "sched.coverage_rejects",
    "sched.partial_master_fallbacks",
    "cache.evictions",
    # Overload-robustness counters: all zero unless admission control,
    # request deadlines or retry budgets are configured on (or an
    # open-loop traffic engine drives the cluster).
    "sched.admission_rejects",
    "sched.deadline_cancels",
    "bench.retries_exhausted",
    "traffic.requests_injected",
    "traffic.retry_budget_exhausted",
    "traffic.breaker_short_circuits",
)


@dataclass
class ChaosReport:
    """Everything one chaos run produced (printable, assertable)."""

    seed: int
    plan: FaultPlan
    duration: float
    completed: int
    retried: int
    failed: int
    invariants: List[InvariantResult] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Stable hash over all merged counters + client metrics; identical for
    #: identical ``(seed, plan, workload)`` inputs.
    fingerprint: str = ""
    retries_by_reason: Dict[str, int] = field(default_factory=dict)
    #: The cluster's tracer when the run had ``trace=True`` (else None);
    #: carries the span log for export and the per-stage histograms.
    tracer: Optional[object] = None
    #: Per-tenant open-loop traffic stats when the run was driven by an
    #: :class:`~repro.traffic.engine.OpenLoopEngine` (else None).
    traffic: Optional[object] = None

    def ok(self) -> bool:
        return all(result.ok for result in self.invariants)

    def stage_table(self) -> str:
        """Per-stage p50/p95/p99 latency table (empty without tracing)."""
        if self.tracer is None:
            return ""
        return self.tracer.stage_table()

    def summary(self) -> str:
        lines = [
            f"chaos run seed={self.seed} duration={self.duration:g}s "
            f"fingerprint={self.fingerprint}",
            self.plan.describe(),
            f"clients: completed={self.completed} retried={self.retried} "
            f"failed={self.failed}",
        ]
        if self.retries_by_reason:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.retries_by_reason.items())
            )
            lines.append(f"retries by reason: {reasons}")
        lines.append(
            "chaos counters: "
            + " ".join(f"{name}={self.counters.get(name, 0):g}" for name in CHAOS_COUNTERS)
        )
        if self.traffic is not None:
            lines.append("open-loop traffic (per tenant):")
            lines.append(self.traffic.table())
        lines.extend(str(result) for result in self.invariants)
        lines.append("invariants: " + ("ALL OK" if self.ok() else "FAILURES"))
        if self.tracer is not None:
            lines.append("per-stage latency breakdown (virtual clock):")
            lines.append(self.stage_table())
        return "\n".join(lines)


def run_chaos_scenario(
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    duration: float = 200.0,
    settle: float = 25.0,
    browsers: int = 16,
    mix_name: str = "ordering",
    think_time: float = 0.3,
    num_slaves: int = 3,
    num_schedulers: int = 2,
    scale=None,
    trace: bool = False,
    traffic=None,
    **cluster_kwargs,
) -> ChaosReport:
    """Run one seeded chaos scenario end to end and audit the wreckage.

    The browsers stop ``settle`` seconds before ``duration``; the remaining
    window drains in-flight interactions, retransmissions and
    reconfigurations so the invariant checkers observe a quiescent cluster.
    ``cluster_kwargs`` go to :class:`SimDmvCluster` verbatim (``cost_config``,
    ``ack_policy``, ``interest_sets``, ...).

    With ``traffic`` set to a :class:`~repro.traffic.scenario.TrafficScenario`
    the closed-loop browser pool is replaced by an open-loop
    :class:`~repro.traffic.engine.OpenLoopEngine`: the scenario's own
    ``duration``/``settle`` override the arguments, its ``faults`` plan is
    used when no explicit ``plan`` is given, and the report additionally
    carries per-tenant traffic stats (audited by the per-tenant-slo,
    shed-fairness and burst-recovery invariants).
    """
    # Imported lazily: the cluster module itself uses repro.chaos.network,
    # so importing it at module scope would cycle through the package init.
    from repro.cluster.simcluster import SimDmvCluster
    from repro.tpcw.datagen import TpcwDataGenerator
    from repro.tpcw.mixes import MIXES
    from repro.tpcw.schema import TPCW_SCHEMAS, TpcwScale

    if scale is None:
        scale = TpcwScale(num_items=80, num_customers=230)
    if traffic is not None:
        duration = traffic.duration
        settle = traffic.settle
        if plan is None and traffic.faults is not None:
            plan = traffic.faults
    if plan is None:
        plan = default_chaos_plan(seed, duration)
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        num_slaves=num_slaves,
        num_schedulers=num_schedulers,
        seed=seed,
        trace=trace,
        **cluster_kwargs,
    )
    cluster.load(TpcwDataGenerator(scale, seed=11))
    cluster.warm_all_caches()
    plan.schedule(cluster)
    if traffic is not None:
        from repro.traffic.engine import OpenLoopEngine

        engine = OpenLoopEngine(cluster, traffic, seed=seed, scale=scale)
        engine.start(inject_until=max(0.0, duration - settle))
    else:
        cluster.start_browsers(browsers, MIXES[mix_name], scale, think_time_mean=think_time)
        cluster.sim.schedule(max(0.0, duration - settle), cluster.stop_browsers)
    cluster.run(until=duration)

    invariants = check_all_invariants(cluster)
    merged = Counters.merged(
        [node.counters for node in cluster.nodes.values()] + [cluster.counters]
    )
    metrics = cluster.metrics
    merged.add("metrics.completed", metrics.completed)
    merged.add("metrics.retried", metrics.retried)
    merged.add("metrics.failed", metrics.failed)
    return ChaosReport(
        seed=seed,
        plan=plan,
        duration=duration,
        completed=metrics.completed,
        retried=metrics.retried,
        failed=metrics.failed,
        invariants=invariants,
        counters=merged.snapshot(),
        fingerprint=merged.fingerprint(),
        retries_by_reason=dict(metrics.aborts_by_reason),
        tracer=cluster.tracer if trace else None,
        traffic=cluster.traffic_stats,
    )


def run_plan(
    plan: Plan,
    seed: Optional[int] = None,
    duration: Optional[float] = None,
    trace: bool = False,
) -> ChaosReport:
    """Run one registered (or ``dataclasses.replace``-d) plan; ``seed`` and
    ``duration`` default to the setting the plan declares."""
    seed = plan.seed if seed is None else seed
    duration = plan.duration if duration is None else duration
    return run_chaos_scenario(
        seed=seed,
        plan=plan.faults(seed, duration),
        duration=duration,
        settle=plan.settle,
        browsers=plan.browsers,
        trace=trace,
        traffic=plan.traffic(duration) if plan.traffic is not None else None,
        cost_config=plan.cost,
        **plan.cluster(duration),
    )
