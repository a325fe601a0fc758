"""Named scenarios: every plan the repo runs, declared once.

A :class:`Plan` is a value — its fault schedule, the cluster shape and cost
configuration it needs, an optional open-loop traffic scenario, the seed /
length / commit floor CI runs it at, and what a run of it must show (the
counters that must fire or stay zero, the invariants that must be audited,
the one it exists to violate).  :data:`PLANS` is the registry the CLI
(``python -m repro.chaos --plan NAME``), the CI ``soak`` matrix and the
tests look plans up in; :func:`repro.chaos.scenario.run_plan` runs one —
and every other experiment too: a variant, a paper figure or a sweep point
is ``dataclasses.replace`` of a plan (the figures' bases are in
:mod:`repro.bench.harness`), not a new flag or a new runner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.cluster.costs import CostConfig
from repro.tpcw.schema import TpcwScale, tpcw_conflict_map
from repro.traffic.scenario import (
    TrafficScenario,
    diurnal_scenario,
    flash_crowd_scenario,
    multi_tenant_scenario,
)


# -- fault schedules -------------------------------------------------------------------
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

    Requires a cluster built with ``CostConfig(durable_wal=True)`` (the
    ``durability`` entry of :data:`PLANS`) — every
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

    Requires a two-master cluster (the ``write-scaleout`` entry of
    :data:`PLANS` builds one):

    * mild fabric loss/duplication throughout (cleared at 75 %);
    * a flash crowd at 10 % doubles the ordering-mix write load, pushing
      the masters into the admission-control regime;
    * the customer class is forcibly re-homed away at 30 % and back at
      50 % — two drain-barrier handoffs under full load;
    * the re-home destination master is killed shortly after the second
      handoff begins (mid-drain for slow drains, just post-flip for fast
      ones); either way its classes fail over and their queued updates
      are handed to the new owner, never straddling owners;
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

    The load itself comes from the plan's traffic scenario (the four
    open-loop entries of :data:`PLANS` share this schedule) — the fault
    plan only keeps the network machinery honest while the admission
    controller, deadlines and retry budgets absorb the crowd:

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

    Requires a cluster built with :func:`partial_interest_sets` and
    ``min_replication_factor=2`` (the ``partial`` entry of :data:`PLANS`):

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


# -- cost configurations ---------------------------------------------------------------
#: Write scale-out server shape: bounded update MPL and batching epochs.
SCALEOUT_COST = CostConfig(update_mpl=4, epoch_max_txns=4, epoch_ms=5.0)

#: Server shape shared by both arms of the overload comparison: bounded
#: update MPL + epoch commit, on a deliberately *slow* cost model (~30x the
#: default CPU costs).  The flash-crowd peak must exceed the cluster's
#: service capacity for overload behaviour to exist at all — at the default
#: costs the simulated cluster absorbs hundreds of requests per second
#: without queueing and both arms look identical.
OVERLOAD_BASE_COST = CostConfig(
    update_mpl=4,
    epoch_max_txns=4,
    epoch_ms=5.0,
    cpu_per_statement=0.01,
    cpu_per_row_read=0.0005,
    cpu_per_page_touch=0.0002,
    cpu_per_row_write=0.002,
    cpu_per_index_rotation=0.004,
    cpu_per_op_precommit=0.001,
)

#: The defenses-ON configuration: :data:`OVERLOAD_BASE_COST` plus the full
#: client/scheduler defense stack — per-tenant token buckets, queue-delay
#: watermark shedding, request deadlines, retry budgets and circuit
#: breaking.  Identical to the base except for the defense knobs, so the
#: OFF/ON comparison isolates them.
OVERLOAD_DEFENSE_COST = replace(
    OVERLOAD_BASE_COST,
    admission_rate=30.0,
    admission_burst=90.0,
    admission_queue_watermark=0.6,
    request_deadline=1.5,
    retry_budget_rate=1.5,
    retry_budget_burst=8.0,
    breaker_failure_threshold=0.5,
)


# -- the record and the registry ---------------------------------------------------------
#: Every plan runs on a lossy fabric: retransmission and duplicate
#: filtering must actually have been exercised.
FABRIC_COUNTERS = ("net.retransmits", "net.dups_ignored")

#: The overload defenses: all three fire with the stack on, none may move
#: with it off.
DEFENSE_COUNTERS = (
    "sched.admission_rejects",
    "sched.deadline_cancels",
    "traffic.retry_budget_exhausted",
)

#: Opt-in counters a closed-loop full-replication run must not touch: they
#: are fingerprinted, so one stray bump moves every pinned hash.
OPT_IN_COUNTERS = (
    "net.bytes_saved_partial",
    "net.write_sets_filtered",
    "sched.coverage_rejects",
    "traffic.requests_injected",
    "traffic.breaker_short_circuits",
) + DEFENSE_COUNTERS


def _full_replication(duration: float) -> Dict[str, object]:
    return {}


@dataclass(frozen=True)
class Plan:
    """One named scenario: what to run and what the run must show."""

    name: str
    #: ``(seed, duration) -> FaultPlan``: the fault schedule, scaled to the run.
    faults: Callable[[int, float], FaultPlan]
    #: ``duration -> SimDmvCluster keyword arguments`` (node counts, page
    #: size, daemon periods, ...) over the runner's 3-slave, 2-scheduler
    #: default.  A function because one value scales with the run (the
    #: checkpoint period) and one is mutable and must be fresh per cluster
    #: (the conflict map re-homing rewrites).
    cluster: Callable[[float], Dict[str, object]] = _full_replication
    cost: CostConfig = CostConfig()
    #: ``duration -> TrafficScenario``: open-loop load replacing the
    #: closed-loop browser pool (None = ``browsers`` browsers of ``mix``).
    traffic: Optional[Callable[[float], TrafficScenario]] = None
    #: The setting CI runs the plan at; ``run_plan`` defaults to it.  The
    #: clients stop ``settle`` seconds before ``duration``.
    seed: int = 7
    duration: float = 200.0
    settle: float = 25.0
    #: The workload: closed-loop browsers of one TPC-W mix and mean think
    #: time, over the database ``TpcwDataGenerator(scale, dataset_seed)``.
    browsers: int = 16
    mix: str = "ordering"
    think_time: float = 0.3
    scale: TpcwScale = TpcwScale(num_items=80, num_customers=230)
    dataset_seed: int = 11
    #: Expectations at the declared duration (a much shorter run may
    #: legitimately miss them): completed interactions, counters that must
    #: be nonzero, counters that must be zero, invariants that must have
    #: been audited, and invariants the plan exists to violate.
    min_commits: int = 500
    must_fire: Tuple[str, ...] = FABRIC_COUNTERS
    must_stay_zero: Tuple[str, ...] = ()
    must_audit: Tuple[str, ...] = ()
    must_violate: Tuple[str, ...] = ()

    def failures(self, report) -> List[str]:
        """What ``report`` (a :class:`~repro.chaos.scenario.RunReport`)
        failed to show, one line each; empty when the plan passed."""
        out = []
        audited = {result.name for result in report.invariants}
        for result in report.invariants:
            if result.name in self.must_violate:
                if result.ok:
                    out.append(f"invariant {result.name} held; this plan exists to violate it")
            elif not result.ok:
                out.append(f"invariant {result.name} failed: {result.detail}")
        out.extend(
            f"invariant {name} was not audited"
            for name in self.must_audit + self.must_violate
            if name not in audited
        )
        if report.completed < self.min_commits:
            out.append(f"only {report.completed} commits (< {self.min_commits})")
        out.extend(
            f"counter {name} stayed zero: the plan did not exercise it"
            for name in self.must_fire
            if report.counters.get(name, 0) <= 0
        )
        out.extend(
            f"counter {name}={report.counters[name]:g} must stay zero"
            for name in self.must_stay_zero
            if report.counters.get(name, 0) != 0
        )
        return out


PLANS: Dict[str, Plan] = {
    plan.name: plan
    for plan in (
        Plan(
            name="default",
            faults=default_chaos_plan,
            must_stay_zero=OPT_IN_COUNTERS,
        ),
        Plan(
            name="straggler",
            faults=straggler_chaos_plan,
            cluster=lambda duration: dict(ack_policy="quorum"),
            must_fire=FABRIC_COUNTERS + ("slave.demotions",),
            must_stay_zero=OPT_IN_COUNTERS,
            must_audit=("rejoin-convergence", "quorum-no-lost-commits"),
        ),
        Plan(
            name="durability",
            faults=durability_chaos_plan,
            cluster=lambda duration: dict(checkpoint_period=duration / 10.0),
            cost=CostConfig(durable_wal=True),
            seed=0,
            must_fire=FABRIC_COUNTERS
            + ("disk.restart_recoveries", "wal.torn_tail_records", "wal.replayed"),
            must_stay_zero=OPT_IN_COUNTERS,
            must_audit=("durable-prefix", "no-ghost-commits"),
        ),
        Plan(
            name="write-scaleout",
            faults=write_scaleout_chaos_plan,
            cluster=lambda duration: dict(
                multi_master=True,
                num_masters=2,
                conflict_map=tpcw_conflict_map(multi_master=True),
            ),
            cost=SCALEOUT_COST,
            must_fire=FABRIC_COUNTERS + ("sched.class_rehomes", "engine.epochs"),
            must_stay_zero=OPT_IN_COUNTERS + ("sched.rehome_aborts",),
            must_audit=("class-ownership-unique",),
        ),
        Plan(
            name="partial",
            faults=partial_chaos_plan,
            cluster=lambda duration: dict(
                interest_sets=partial_interest_sets(),
                min_replication_factor=2,
                # Tighter than the ~35-page TPC-W base image: the aggregate
                # dataset exceeds 2x one slave's budget, so subscribed-but-cold
                # pages must spill and re-fault (the tiering model under test).
                slave_cache_pages=16,
            ),
            must_fire=FABRIC_COUNTERS
            + ("net.bytes_saved_partial", "sched.coverage_rejects", "cache.evictions"),
            must_audit=("interest-coverage",),
        ),
        Plan(
            name="overload",
            faults=overload_chaos_plan,
            cost=OVERLOAD_DEFENSE_COST,
            traffic=flash_crowd_scenario,
            seed=0,
            must_fire=FABRIC_COUNTERS + DEFENSE_COUNTERS,
            must_audit=("per-tenant-slo", "shed-fairness", "burst-recovery"),
        ),
        # The metastability demo's other arm: same crowd, same server shape,
        # no defenses — goodput never recovers inside the run.
        Plan(
            name="overload-undefended",
            faults=overload_chaos_plan,
            cost=OVERLOAD_BASE_COST,
            traffic=flash_crowd_scenario,
            seed=0,
            must_stay_zero=DEFENSE_COUNTERS,
            must_audit=("per-tenant-slo", "shed-fairness"),
            must_violate=("burst-recovery",),
        ),
        Plan(
            name="diurnal",
            faults=overload_chaos_plan,
            cost=OVERLOAD_DEFENSE_COST,
            traffic=diurnal_scenario,
            seed=0,
            duration=240.0,
            must_audit=("per-tenant-slo",),
        ),
        Plan(
            name="multi-tenant",
            faults=overload_chaos_plan,
            cost=OVERLOAD_DEFENSE_COST,
            traffic=multi_tenant_scenario,
            seed=0,
            must_fire=FABRIC_COUNTERS + ("sched.admission_rejects",),
            must_audit=("per-tenant-slo", "shed-fairness", "burst-recovery"),
        ),
    )
}
