"""The one experiment runner: a plan in, one report out.

:func:`run_plan` builds a TPC-W-driven :class:`SimDmvCluster` from a
:class:`~repro.chaos.plans.Plan`, installs its fault schedule and drives
its workload (closed-loop browsers or an open-loop traffic scenario) until
the clients stop, ``settle`` seconds before the end.  What the clients saw
up to then is copied into a :class:`Window` — the interval a paper figure
measures.  The cluster then drains to quiescence and is audited by the
:mod:`~repro.chaos.invariants` checkers.  Everything is derived from one
seed, and the report carries a fingerprint over every counter: rerunning a
plan at the same seed must reproduce it bit-for-bit, which is what the
fingerprint suite and the CI soak assert.

Run a named one (:data:`repro.chaos.plans.PLANS`) from the command line::

    PYTHONPATH=src python -m repro.chaos --plan default
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.chaos.faults import FaultPlan
from repro.chaos.invariants import InvariantResult, check_all_invariants
from repro.chaos.plans import Plan
from repro.common.counters import Counters
from repro.common.errors import NodeUnavailable
from repro.tpcw.datagen import cached_rows
from repro.tpcw.mixes import MIXES
from repro.tpcw.schema import TPCW_SCHEMAS

if TYPE_CHECKING:  # a runtime import would cycle: the cluster uses repro.chaos.network
    from repro.cluster.clients import Metrics


@dataclass(frozen=True)
class Window:
    """What a run's clients saw, copied the moment they stopped."""

    #: Virtual time the clients stopped; the window is ``[0, stopped_at]``.
    stopped_at: float
    #: Client-side measurements: throughput, latency, commits, retries.
    metrics: Metrics
    #: Reconfiguration timelines recorded so far, oldest first.
    timelines: tuple = ()
    #: Every counter, summed over the nodes and the cluster.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Pages each node held.
    pages: Dict[str, int] = field(default_factory=dict)
    #: Replicated on-disk runs: each live node's digest (``SimDiskCluster.settle``).
    digests: Dict[str, str] = field(default_factory=dict)


@dataclass
class RunReport:
    """Everything one run produced (printable, assertable): the window the
    clients measured, and the settled end state the invariants audited."""

    seed: int
    plan: FaultPlan
    duration: float
    window: Window
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
    #: Each node's role at the end: master, slave, spare, demoted, detached
    #: (alive, routed nothing) or down.
    roles: Dict[str, str] = field(default_factory=dict)

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
        lines.append("counters:")
        for layer, names in groupby(sorted(self.counters), lambda name: name.split(".")[0]):
            values = " ".join(f"{name[len(layer) + 1:]}={self.counters[name]:g}" for name in names)
            lines.append(f"  {layer}: {values}")
        if self.traffic is not None:
            lines.append("open-loop traffic (per tenant):")
            lines.append(self.traffic.table())
        lines.extend(str(result) for result in self.invariants)
        lines.append("invariants: " + ("ALL OK" if self.ok() else "FAILURES"))
        if self.tracer is not None:
            lines.append("per-stage latency breakdown (virtual clock):")
            lines.append(self.stage_table())
        return "\n".join(lines)


def _merged_counters(cluster) -> Counters:
    return Counters.merged(
        [node.counters for node in cluster.nodes.values()] + [cluster.counters]
    )


def _window(cluster) -> Window:
    metrics, timelines = copy.deepcopy((cluster.metrics, cluster.timelines))
    return Window(
        stopped_at=cluster.sim.now(),
        metrics=metrics,
        timelines=tuple(timelines),
        counters=_merged_counters(cluster).snapshot(),
        pages={node_id: node.engine.store.page_count() for node_id, node in cluster.nodes.items()},
    )


def _roles(cluster) -> Dict[str, str]:
    try:
        slaves = cluster.scheduler.slaves
    except NodeUnavailable:  # every scheduler agent is down
        slaves = {}
    roles = {}
    for node_id, node in cluster.nodes.items():
        state = slaves.get(node_id)
        if not node.alive:
            roles[node_id] = "down"
        elif node.master is not None:
            roles[node_id] = "master"
        elif state is None:
            roles[node_id] = "detached"
        elif state.demoted:
            roles[node_id] = "demoted"
        else:
            roles[node_id] = "spare" if state.spare else "slave"
    return roles


def run_plan(
    plan: Plan,
    seed: Optional[int] = None,
    duration: Optional[float] = None,
    trace: bool = False,
) -> RunReport:
    """Run one registered (or ``dataclasses.replace``-d) plan end to end and
    audit the wreckage; ``seed`` and ``duration`` default to the setting the
    plan declares.

    The clients stop ``plan.settle`` seconds before ``duration``; the
    remaining span drains in-flight interactions, retransmissions and
    reconfigurations so the invariant checkers observe a quiescent cluster.
    """
    # Imported lazily: the cluster module itself uses repro.chaos.network,
    # so importing it at module scope would cycle through the package init.
    from repro.cluster.simcluster import SimDmvCluster
    from repro.traffic.engine import OpenLoopEngine

    seed = plan.seed if seed is None else seed
    duration = plan.duration if duration is None else duration
    stop_at = max(0.0, duration - plan.settle)
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        seed=seed,
        trace=trace,
        cost_config=plan.cost,
        **{"num_slaves": 3, "num_schedulers": 2, **plan.cluster(duration)},
    )
    cluster.load_tables(cached_rows(plan.scale, plan.dataset_seed))
    cluster.warm_all_caches()
    faults = plan.faults(seed, duration).schedule(cluster)
    if plan.traffic is not None:
        # Injection stops where the clients stop, and burst recovery is
        # measured up to there: the plan's settle is the scenario's.
        scenario = replace(plan.traffic(duration), settle=plan.settle)
        OpenLoopEngine(cluster, scenario, seed=seed, scale=plan.scale).start()
    else:
        cluster.start_browsers(
            plan.browsers, MIXES[plan.mix], plan.scale, think_time_mean=plan.think_time
        )
    cluster.run(until=stop_at)
    window = _window(cluster)
    cluster.stop_browsers()
    cluster.run(until=duration)

    invariants = check_all_invariants(cluster)
    merged = _merged_counters(cluster)
    metrics = cluster.metrics
    merged.add("metrics.completed", metrics.completed)
    merged.add("metrics.retried", metrics.retried)
    merged.add("metrics.failed", metrics.failed)
    return RunReport(
        seed=seed,
        plan=faults,
        duration=duration,
        window=window,
        completed=metrics.completed,
        retried=metrics.retried,
        failed=metrics.failed,
        invariants=invariants,
        counters=merged.snapshot(),
        fingerprint=merged.fingerprint(),
        retries_by_reason=dict(metrics.aborts_by_reason),
        tracer=cluster.tracer if trace else None,
        traffic=cluster.traffic_stats,
        roles=_roles(cluster),
    )
