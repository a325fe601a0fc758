"""The open-loop injector: scheduled arrivals driven through the cluster.

The closed-loop browser pool (:meth:`SimDmvCluster.start_browsers`)
self-throttles: a slow cluster slows its own offered load, which hides
overload behaviour *and* mis-measures latency (coordinated omission — a
stalled client fails to issue the requests that would have observed the
stall).  The :class:`OpenLoopEngine` fixes both: each tenant's arrival
times come from a seeded arrival process that never looks at completions,
and every latency sample is measured **from the scheduled arrival time**,
so queueing delay a closed-loop client would silently absorb shows up in
the histogram.

Determinism and fingerprint safety: the engine owns its own
``RngStream(seed, "traffic")`` with per-tenant children — it never draws
from ``cluster.rng`` — so constructing or running it cannot perturb the
seeded legacy runs, and two runs of the same (scenario, seed) produce
identical schedules, identical retries and identical counters.

Request outcome accounting (the per-tenant SLO invariant audits the
identity ``injected == completed + failed + shed + in_flight``):

* **completed** — the interaction committed; latency from scheduled
  arrival recorded against the tenant SLO.
* **failed** — terminal server-side outcome: deadline exceeded or the
  per-request attempt ceiling hit.
* **shed** — load intentionally refused cheaply: admission rejects at the
  scheduler, circuit-breaker short-circuits, or a drained retry budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.rng import RngStream
from repro.sim.stats import Histogram, WindowedRate, pretty_table
from repro.tpcw.interactions import SharedSequences
from repro.tpcw.mixes import MIXES
from repro.tpcw.session import EmulatedBrowser
from repro.traffic.arrivals import iter_arrivals
from repro.traffic.budget import CircuitBreaker, RetryBudget
from repro.traffic.scenario import TenantSpec, TrafficScenario

#: Client-visible abort reasons that terminate a request instead of
#: queueing a retry: the deadline has passed (retrying doomed work is the
#: metastability amplifier) and admission rejects (retrying immediately
#: would defeat the shed).
_TERMINAL_FAIL_REASONS = frozenset(["deadline"])
_SHED_REASONS = frozenset(["admission-reject"])


@dataclass
class TenantStats:
    """Per-tenant open-loop accounting (feeds the SLO/fairness invariants)."""

    name: str
    slo_latency: float
    injected: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    in_flight: int = 0
    retried: int = 0
    slo_ok: int = 0
    latency: Histogram = field(default_factory=lambda: Histogram("latency"))
    goodput: WindowedRate = field(default_factory=lambda: WindowedRate(window=5.0, name="goodput"))
    shed_by_cause: Dict[str, int] = field(default_factory=dict)

    def note_shed(self, cause: str) -> None:
        self.shed += 1
        self.shed_by_cause[cause] = self.shed_by_cause.get(cause, 0) + 1

    def shed_ratio(self) -> float:
        return self.shed / self.injected if self.injected else 0.0

    def slo_attainment(self) -> float:
        return self.slo_ok / self.completed if self.completed else 0.0

    def accounted(self) -> int:
        return self.completed + self.failed + self.shed + self.in_flight


class TrafficStats:
    """Whole-run view: per-tenant stats + global goodput + burst recovery."""

    def __init__(self, scenario: TrafficScenario) -> None:
        self.scenario = scenario
        self.tenants: Dict[str, TenantStats] = {
            spec.name: TenantStats(
                name=spec.name,
                slo_latency=spec.slo_latency,
                goodput=WindowedRate(window=scenario.goodput_window, name=spec.name),
            )
            for spec in scenario.tenants
        }
        self.goodput = WindowedRate(window=scenario.goodput_window, name="goodput")
        self.end_time = scenario.duration

    # -- burst recovery ----------------------------------------------------

    def burst_recovery(self) -> Optional[Tuple[float, Optional[float], float]]:
        """Measure SLO-goodput recovery after the scenario's last burst.

        Returns ``(pre_burst_rate, recovered_at, degraded_duration)`` or
        ``None`` when the scenario has no burst windows.  Recovery means
        two consecutive goodput buckets at or above
        ``(1 - recovery_epsilon) * pre_burst_rate``; ``recovered_at`` is
        None (and ``degraded_duration`` runs to the end of the run) when
        goodput never gets back — the metastable signature.
        """
        bursts = self.scenario.bursts()
        if not bursts:
            return None
        burst_start = min(start for start, _end in bursts)
        burst_end = max(end for _start, end in bursts)
        window = self.scenario.goodput_window
        series = self.goodput.series(0.0, self.end_time)
        pre = series.between(max(0.0, burst_start - 6 * window), burst_start - window)
        pre_rate = pre.mean()
        if pre_rate <= 0:
            return (0.0, burst_end, 0.0)
        threshold = (1.0 - self.scenario.recovery_epsilon) * pre_rate
        # Measure only while injection is live: after ``inject_until`` the
        # offered load stops, so near-zero goodput there is drain, not
        # degradation.
        measure_end = min(self.end_time, self.scenario.inject_until)
        post = series.between(burst_end, measure_end)
        streak = 0
        for t, value in zip(post.times, post.values):
            streak = streak + 1 if value >= threshold else 0
            if streak >= 2:
                recovered_at = max(burst_end, t - 1.5 * window)
                return (pre_rate, recovered_at, max(0.0, recovered_at - burst_end))
        return (pre_rate, None, max(0.0, measure_end - burst_end))

    # -- reporting ---------------------------------------------------------

    def totals(self) -> TenantStats:
        total = TenantStats(name="TOTAL", slo_latency=0.0)
        for stats in self.tenants.values():
            total.injected += stats.injected
            total.completed += stats.completed
            total.failed += stats.failed
            total.shed += stats.shed
            total.in_flight += stats.in_flight
            total.retried += stats.retried
            total.slo_ok += stats.slo_ok
            total.latency.merge(stats.latency)
        return total

    def table(self) -> str:
        headers = [
            "tenant", "injected", "completed", "failed", "shed",
            "retried", "slo%", "p50", "p99", "shed%",
        ]
        rows = []
        for stats in list(self.tenants.values()) + [self.totals()]:
            rows.append([
                stats.name,
                stats.injected,
                stats.completed,
                stats.failed,
                stats.shed,
                stats.retried,
                f"{100.0 * stats.slo_attainment():.1f}",
                f"{stats.latency.percentile(50):.3f}",
                f"{stats.latency.percentile(99):.3f}",
                f"{100.0 * stats.shed_ratio():.1f}",
            ])
        lines = [pretty_table(headers, rows)]
        recovery = self.burst_recovery()
        if recovery is not None:
            pre_rate, recovered_at, degraded = recovery
            if recovered_at is None:
                lines.append(
                    f"burst recovery: NEVER (pre-burst {pre_rate:.2f}/s, "
                    f"degraded {degraded:.1f}s to end of run)"
                )
            else:
                lines.append(
                    f"burst recovery: {degraded:.1f}s after burst end "
                    f"(pre-burst {pre_rate:.2f}/s)"
                )
        return "\n".join(lines)


class _Tenant:
    """Runtime state for one tenant: rng, session pool, defenses, stats."""

    def __init__(
        self,
        spec: TenantSpec,
        engine: "OpenLoopEngine",
        rng: RngStream,
        stats: TenantStats,
    ) -> None:
        cluster = engine.cluster
        cfg = cluster.cost.config
        self.spec = spec
        self.rng = rng
        self.arrival_rng = rng.child("arrivals")
        self.stats = stats
        self.sessions: List[EmulatedBrowser] = [
            EmulatedBrowser(
                browser_id=i,
                mix=MIXES[spec.mix],
                scale=engine.scale,
                sequences=engine.sequences,
                rng=rng.child(f"s{i}"),
                now=cluster.sim.now,
            )
            for i in range(spec.sessions)
        ]
        self.deadline = spec.deadline if spec.deadline > 0 else cfg.request_deadline
        self.budget = (
            RetryBudget(cfg.retry_budget_rate, cfg.retry_budget_burst)
            if cfg.retry_budget_rate > 0
            else None
        )
        self.breaker = (
            CircuitBreaker(cfg.breaker_failure_threshold)
            if cfg.breaker_failure_threshold > 0
            else None
        )

    def pick_session(self) -> EmulatedBrowser:
        if self.spec.key_skew > 0:
            return self.sessions[self.rng.zipf_index(len(self.sessions), self.spec.key_skew)]
        return self.sessions[self.rng.randint(0, len(self.sessions) - 1)]


class OpenLoopEngine:
    """Injects a :class:`TrafficScenario` into a ``SimDmvCluster``.

    One injector process per tenant walks the tenant's seeded arrival
    schedule and spawns an independent request process per arrival —
    arrivals never wait for completions.  Construction performs no RNG
    draws from the cluster's streams and schedules nothing until
    :meth:`start`.
    """

    def __init__(
        self,
        cluster,
        scenario: TrafficScenario,
        seed: int = 0,
        scale=None,
        sequences: Optional[SharedSequences] = None,
    ) -> None:
        from repro.tpcw.schema import TpcwScale

        self.cluster = cluster
        self.scenario = scenario
        self.scale = scale if scale is not None else TpcwScale(num_items=80, num_customers=230)
        self.sequences = sequences if sequences is not None else SharedSequences(self.scale)
        self.rng = RngStream(seed, "traffic")
        self.stats = TrafficStats(scenario)
        self.tenants: List[_Tenant] = [
            _Tenant(spec, self, self.rng.child(spec.name), self.stats.tenants[spec.name])
            for spec in scenario.tenants
        ]
        self._inject_until = scenario.inject_until

    def start(self, inject_until: Optional[float] = None) -> None:
        """Spawn one injector process per tenant (call before ``sim.run``)."""
        if inject_until is not None:
            self._inject_until = inject_until
        self.cluster.traffic_stats = self.stats
        for tenant in self.tenants:
            self.cluster.sim.spawn(
                self._injector(tenant), name=f"traffic-{tenant.spec.name}"
            )

    # -- processes ---------------------------------------------------------

    def _injector(self, tenant: _Tenant):
        sim = self.cluster.sim
        spec = tenant.spec
        for at in iter_arrivals(spec.process, tenant.arrival_rng, spec.shape, self._inject_until):
            now = sim.now()
            if at > now:
                yield sim.timeout(at - now)
            sim.spawn(
                self._request(tenant, at), name=f"req-{spec.name}"
            )

    def _request(self, tenant: _Tenant, scheduled_at: float):
        from repro.cluster.clients import SimConnection, drive
        from repro.common.errors import NodeUnavailable, TransactionAborted

        cluster = self.cluster
        sim = cluster.sim
        stats = tenant.stats
        spec = tenant.spec
        stats.injected += 1
        cluster.counters.add("traffic.requests_injected")
        now = sim.now()
        if tenant.breaker is not None and not tenant.breaker.allow(now):
            stats.note_shed("breaker")
            cluster.counters.add("traffic.breaker_short_circuits")
            return
        session = tenant.pick_session()
        name = session.pick()
        deadline = scheduled_at + tenant.deadline if tenant.deadline > 0 else None
        attempts = 0
        stats.in_flight += 1
        try:
            while True:
                now = sim.now()
                if deadline is not None and now >= deadline:
                    # Doomed before we even dialled: cancel client-side.
                    self._fail(tenant, now)
                    return
                conn = SimConnection(cluster)
                conn.tenant = spec.name
                conn.deadline = deadline
                gen = session.start(name, conn)
                try:
                    yield from drive(gen)
                    done = sim.now()
                    latency = done - scheduled_at
                    stats.completed += 1
                    stats.latency.record(latency)
                    if latency <= spec.slo_latency:
                        # Goodput counts only completions within the SLO: a
                        # request finishing a minute late is throughput, not
                        # good service, and counting it would let a
                        # backlog-draining cluster look "recovered".
                        stats.slo_ok += 1
                        stats.goodput.mark(done)
                        self.stats.goodput.mark(done)
                    # Cluster-level metrics measure from scheduled arrival
                    # too: the open-loop latency is the honest one.
                    cluster.metrics.record_completion(done, latency)
                    if tenant.breaker is not None:
                        tenant.breaker.record(True, done)
                    return
                except (TransactionAborted, NodeUnavailable) as exc:
                    gen.close()
                    conn.cleanup()
                    now = sim.now()
                    reason = getattr(exc, "reason", "node-failure")
                    cluster.metrics.record_retry(reason)
                    stats.retried += 1
                    attempts += 1
                    if reason in _SHED_REASONS:
                        # An admission reject is the server shedding on
                        # purpose, not failing: feeding it to the breaker
                        # would amplify a healthy shed into a client-side
                        # blackout (the breaker latches open, sheds every
                        # arrival, and never sees the success that would
                        # close it).
                        stats.note_shed(reason)
                        return
                    if reason in _TERMINAL_FAIL_REASONS or (
                        deadline is not None and now >= deadline
                    ):
                        self._fail(tenant, now)
                        return
                    if attempts >= spec.max_attempts:
                        self._fail(tenant, now)
                        return
                    if tenant.budget is not None and not tenant.budget.try_spend(now):
                        stats.note_shed("retry-budget")
                        cluster.counters.add("traffic.retry_budget_exhausted")
                        return
                    yield sim.timeout(session.retry_backoff(attempts))
        finally:
            stats.in_flight -= 1

    def _fail(self, tenant: _Tenant, now: float) -> None:
        tenant.stats.failed += 1
        self.cluster.metrics.failed += 1
        if tenant.breaker is not None:
            tenant.breaker.record(False, now)
