"""Seeded end-to-end chaos scenarios: workload + fault plan + invariants.

A scenario builds a TPC-W-driven :class:`SimDmvCluster`, installs a
:class:`~repro.chaos.faults.FaultPlan`, runs the workload through the fault
schedule, quiesces the browsers, and audits the cluster with the
:mod:`~repro.chaos.invariants` checkers.  Everything is derived from one
seed, and the report carries a fingerprint over every counter: rerunning
``run_chaos_scenario(seed=S)`` must reproduce the fingerprint bit-for-bit,
which is what the seeded soak test and the CI smoke job assert.

Run one from the command line::

    PYTHONPATH=src python -m repro.chaos --seed 7
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos.faults import (
    BitFlip,
    CrashNode,
    FaultPlan,
    FlashCrowd,
    FsyncLie,
    LinkFault,
    Partition,
    Rehome,
    ReintegrateNode,
    RestartNode,
    Slowdown,
    TornWrite,
)
from repro.chaos.invariants import InvariantResult, check_all_invariants
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


def default_chaos_plan(seed: int = 0, duration: float = 200.0) -> FaultPlan:
    """The canonical smoke schedule: lossy fabric, healed partition, master
    kill mid-workload, reintegration — all resolved before quiescence.

    * 5 % drop + 1 % duplication on every link from the start (cleared
      20 s before the end so retransmissions drain);
    * a master↔slave partition at 15 % of the run, healed 10 s later (the
      retransmission budget outlasts it, so nobody is evicted);
    * the master crashes at 40 % — mid-broadcast for whatever commits are
      in flight — forcing election, promotion and cleanup under loss;
    * the old master reintegrates at 70 % via data migration.
    """
    t = lambda fraction: round(duration * fraction, 3)
    return FaultPlan(
        seed=seed,
        events=(
            LinkFault(at=0.0, drop_p=0.05, dup_p=0.01, until=t(0.9)),
            Partition(at=t(0.15), heal_at=t(0.15) + 10.0, group_a=("m0",), group_b=("s1",)),
            CrashNode(at=t(0.4), node_id="m0"),
            ReintegrateNode(at=t(0.7), node_id="m0"),
        ),
    )


def straggler_chaos_plan(seed: int = 0, duration: float = 200.0) -> FaultPlan:
    """Gray-failure soak: one slave turns slow (never crashes) under mild loss.

    * 2 % drop + 0.5 % duplication fabric-wide (cleared at 75 % so the
      retransmission machinery is exercised but drains before quiescence);
    * slave ``s2`` runs 12x slow from 10 % to 70 % of the run.  Under
      ``all`` acks every commit waits for it; under ``quorum`` acks the
      laggard detector demotes it, commits proceed on the quorum, and the
      probe monitor re-integrates it once the slowdown lifts — all of
      which must finish before the invariant audit.
    """
    t = lambda fraction: round(duration * fraction, 3)
    return FaultPlan(
        seed=seed,
        events=(
            LinkFault(at=0.0, drop_p=0.02, dup_p=0.005, until=t(0.75)),
            Slowdown(at=t(0.1), node_id="s2", factor=12.0, until=t(0.7)),
        ),
    )


def durability_chaos_plan(seed: int = 0, duration: float = 200.0) -> FaultPlan:
    """Storage-fault soak: every durable failure mode plus a master crash.

    Requires a cluster built with ``CostConfig(durable_wal=True)`` — every
    crashed node restarts from its *own* disk (checkpoint + WAL redo + gap
    replay) rather than via full peer migration:

    * mild fabric loss/duplication throughout (cleared at 75 %);
    * ``s1`` crashes with a torn last WAL record — restart must truncate
      the tail at the first bad checksum;
    * ``s2`` crashes inside an fsync-lie window — records it believed
      synced were never durable and are lost;
    * ``s0`` crashes carrying a latent bit flip in both its WAL and its
      checkpoint — restart must skip the bad record and fall back to the
      previous good page generation;
    * the master crashes last (election + promotion), then restarts from
      disk as a slave, exercising the ghost filter: its WAL durably holds
      pre-commits that were never acknowledged.
    """
    t = lambda fraction: round(duration * fraction, 3)
    return FaultPlan(
        seed=seed,
        events=(
            LinkFault(at=0.0, drop_p=0.02, dup_p=0.005, until=t(0.75)),
            TornWrite(at=t(0.08), node_id="s1"),
            CrashNode(at=t(0.12), node_id="s1"),
            RestartNode(at=t(0.28), node_id="s1"),
            FsyncLie(at=t(0.15), node_id="s2", until=t(0.45)),
            CrashNode(at=t(0.35), node_id="s2"),
            RestartNode(at=t(0.5), node_id="s2"),
            BitFlip(at=t(0.4), node_id="s0", target="wal"),
            BitFlip(at=t(0.42), node_id="s0", target="checkpoint"),
            CrashNode(at=t(0.48), node_id="s0"),
            RestartNode(at=t(0.6), node_id="s0"),
            CrashNode(at=t(0.66), node_id="m0"),
            RestartNode(at=t(0.8), node_id="m0"),
        ),
    )


def write_scaleout_chaos_plan(seed: int = 0, duration: float = 200.0) -> FaultPlan:
    """Write scale-out soak: flash write load, forced re-homes, master kill.

    Requires a two-master cluster with dynamic classes enabled (the
    ``--plan write-scaleout`` CLI wiring builds one):

    * mild fabric loss/duplication throughout (cleared at 75 %);
    * a flash crowd at 10 % doubles the ordering-mix write load, pushing
      the masters into the admission-control regime;
    * the customer class is forcibly re-homed away at 30 % and back at
      50 % — two drain-barrier handoffs under full load;
    * the re-home destination master is killed shortly after the second
      handoff begins (mid-drain for slow drains, just post-flip for fast
      ones); either way its classes fail over and the parked updates
      re-route, never straddling owners;
    * the dead master reintegrates at 75 %, before quiescence.
    """
    t = lambda fraction: round(duration * fraction, 3)
    return FaultPlan(
        seed=seed,
        events=(
            LinkFault(at=0.0, drop_p=0.02, dup_p=0.005, until=t(0.75)),
            FlashCrowd(at=t(0.1), browsers=16),
            Rehome(at=t(0.3), table="customer", dst="m0"),
            Rehome(at=t(0.5), table="customer", dst="m1"),
            CrashNode(at=t(0.52), node_id="m1"),
            ReintegrateNode(at=t(0.75), node_id="m1"),
        ),
    )


def partial_interest_sets() -> Dict[str, Optional[tuple]]:
    """The partial plan's interest assignment over the 3 default slaves.

    ``s0`` keeps full interest — the failover anchor and the migration
    support every partial joiner can use.  ``s1`` subscribes to the hot
    browse set only; ``s2`` additionally carries ``orders``/``order_line``,
    making it the *sole extra replica* of that range among the slaves
    (``s0`` aside): crashing it drops the range to its minimum factor.
    ``None`` means full interest.
    """
    return {
        "s0": None,
        "s1": ("item", "author", "customer"),
        "s2": ("item", "author", "customer", "orders", "order_line"),
    }


def overload_chaos_plan(seed: int = 0, duration: float = 200.0) -> FaultPlan:
    """Overload soak: mild fabric loss under an open-loop flash crowd.

    The load itself comes from the traffic scenario (``--plan overload``
    passes a :func:`repro.traffic.scenario.flash_crowd_scenario` to
    ``run_chaos_scenario``) — the fault plan only keeps the network
    machinery honest while the admission controller, deadlines and retry
    budgets absorb the crowd:

    * 2 % drop + 0.5 % duplication fabric-wide, cleared at 75 % so
      retransmissions drain before the invariant audit.
    """
    t = lambda fraction: round(duration * fraction, 3)
    return FaultPlan(
        seed=seed,
        events=(
            LinkFault(at=0.0, drop_p=0.02, dup_p=0.005, until=t(0.75)),
        ),
    )


def partial_chaos_plan(seed: int = 0, duration: float = 200.0) -> FaultPlan:
    """Partial-replication soak: lossy fabric + crash of a range's sole
    extra replica.

    Requires a cluster built with :func:`partial_interest_sets` (the
    ``--plan partial`` CLI wiring) and ``min_replication_factor=2``:

    * 2 % drop + 0.5 % duplication fabric-wide (cleared at 75 % so
      retransmissions drain before quiescence);
    * ``s2`` — the only slave besides the full-interest anchor ``s0``
      subscribed to ``orders``/``order_line`` — crashes at 30 %, dropping
      that range to its minimum replication factor (anchor + master);
      coverage routing must shed ``s1`` for order-touching reads and keep
      serving from ``s0`` or the master;
    * ``s2`` reintegrates at 60 % via interest-scoped migration (only its
      subscribed pages move) — well before quiescence, so the
      ``interest-coverage`` audit sees it caught up and leak-free.
    """
    t = lambda fraction: round(duration * fraction, 3)
    return FaultPlan(
        seed=seed,
        events=(
            LinkFault(at=0.0, drop_p=0.02, dup_p=0.005, until=t(0.75)),
            CrashNode(at=t(0.3), node_id="s2"),
            ReintegrateNode(at=t(0.6), node_id="s2"),
        ),
    )


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
    ack_policy: str = "all",
    quorum_k: int = 1,
    cost_config=None,
    checkpoint_period: float = 0.0,
    multi_master: bool = False,
    num_masters: Optional[int] = None,
    conflict_map=None,
    interest_sets: Optional[Dict[str, Optional[tuple]]] = None,
    min_replication_factor: int = 1,
    slave_cache_pages: Optional[int] = None,
    traffic=None,
) -> ChaosReport:
    """Run one seeded chaos scenario end to end and audit the wreckage.

    The browsers stop ``settle`` seconds before ``duration``; the remaining
    window drains in-flight interactions, retransmissions and
    reconfigurations so the invariant checkers observe a quiescent cluster.

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
        cost_config=cost_config,
        seed=seed,
        trace=trace,
        ack_policy=ack_policy,
        quorum_k=quorum_k,
        checkpoint_period=checkpoint_period,
        multi_master=multi_master,
        num_masters=num_masters,
        conflict_map=conflict_map,
        interest_sets=interest_sets,
        min_replication_factor=min_replication_factor,
        slave_cache_pages=slave_cache_pages,
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
