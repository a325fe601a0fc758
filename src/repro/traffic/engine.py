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

Each arrival passes the tenant's circuit breaker (an open breaker sheds
it client-side), picks a session and is driven by
:func:`repro.cluster.clients.serve` — the browsers' loop, with its one
outcome rule.  The per-tenant SLO invariant audits the identity
``injected == completed + failed + shed + in_flight``; completions within
the tenant's SLO count as goodput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.rng import RngStream
from repro.sim.stats import Histogram, WindowedRate, pretty_table
from repro.tpcw.interactions import SharedSequences
from repro.tpcw.mixes import MIXES
from repro.tpcw.schema import TpcwScale
from repro.tpcw.session import EmulatedBrowser
from repro.traffic.arrivals import iter_arrivals
from repro.traffic.budget import CircuitBreaker, retry_budget
from repro.traffic.scenario import TenantSpec, TrafficScenario

#: Concurrent session contexts each tenant's requests draw from.
SESSIONS = 32
#: Goodput sampling window (seconds) for the burst-recovery measurement.
GOODPUT_WINDOW = 5.0
#: Burst recovery: goodput back within this fraction of the pre-burst level.
RECOVERY_EPSILON = 0.25


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
    goodput: WindowedRate = field(default_factory=lambda: WindowedRate(window=GOODPUT_WINDOW, name="goodput"))
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
                goodput=WindowedRate(window=GOODPUT_WINDOW, name=spec.name),
            )
            for spec in scenario.tenants
        }
        self.goodput = WindowedRate(window=GOODPUT_WINDOW, name="goodput")
        self.end_time = scenario.duration

    # -- burst recovery ----------------------------------------------------

    def burst_recovery(self) -> Optional[Tuple[float, Optional[float], float]]:
        """Measure SLO-goodput recovery after the scenario's last burst.

        Returns ``(pre_burst_rate, recovered_at, degraded_duration)`` or
        ``None`` when the scenario has no burst windows.  Recovery means
        two consecutive goodput buckets at or above
        ``(1 - RECOVERY_EPSILON) * pre_burst_rate``; ``recovered_at`` is
        None (and ``degraded_duration`` runs to the end of injection) when
        goodput never gets back — the metastable signature.
        """
        bursts = self.scenario.bursts()
        if not bursts:
            return None
        burst_start = min(start for start, _end in bursts)
        burst_end = max(end for _start, end in bursts)
        series = self.goodput.series(0.0, self.end_time)
        pre = series.between(
            max(0.0, burst_start - 6 * GOODPUT_WINDOW), burst_start - GOODPUT_WINDOW
        )
        pre_rate = pre.mean()
        if pre_rate <= 0:
            return (0.0, burst_end, 0.0)
        threshold = (1.0 - RECOVERY_EPSILON) * pre_rate
        # Measure only while injection is live: after ``inject_until`` the
        # offered load stops, so near-zero goodput there is drain, not
        # degradation.
        measure_end = min(self.end_time, self.scenario.inject_until)
        post = series.between(burst_end, measure_end)
        streak = 0
        for t, value in zip(post.times, post.values):
            streak = streak + 1 if value >= threshold else 0
            if streak >= 2:
                recovered_at = max(burst_end, t - 1.5 * GOODPUT_WINDOW)
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
            for i in range(SESSIONS)
        ]
        self.budget = retry_budget(cfg)
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

    def __init__(self, cluster, scenario: TrafficScenario, seed: int, scale: TpcwScale) -> None:
        self.cluster = cluster
        self.scenario = scenario
        self.scale = scale
        self.sequences = SharedSequences(scale)
        self.rng = RngStream(seed, "traffic")
        self.stats = TrafficStats(scenario)
        self.tenants: List[_Tenant] = [
            _Tenant(spec, self, self.rng.child(spec.name), self.stats.tenants[spec.name])
            for spec in scenario.tenants
        ]

    def start(self) -> None:
        """Spawn one injector process per tenant (call before ``sim.run``)."""
        self.cluster.traffic_stats = self.stats
        for tenant in self.tenants:
            self.cluster.sim.spawn(
                self._injector(tenant), name=f"traffic-{tenant.spec.name}"
            )

    # -- processes ---------------------------------------------------------

    def _injector(self, tenant: _Tenant):
        sim = self.cluster.sim
        spec = tenant.spec
        until = self.scenario.inject_until
        for at in iter_arrivals(spec.process, tenant.arrival_rng, spec.shape, until):
            now = sim.now()
            if at > now:
                yield sim.timeout(at - now)
            sim.spawn(
                self._request(tenant, at), name=f"req-{spec.name}"
            )

    def _request(self, tenant: _Tenant, scheduled_at: float):
        # Imported here: repro.cluster.clients imports repro.traffic.budget.
        from repro.cluster.clients import SimConnection, serve

        cluster = self.cluster
        sim = cluster.sim
        stats = tenant.stats
        breaker = tenant.breaker
        stats.injected += 1
        cluster.counters.add("traffic.requests_injected")
        if breaker is not None and not breaker.allow(sim.now()):
            stats.note_shed("breaker")
            cluster.metrics.shed += 1
            cluster.counters.add("traffic.breaker_short_circuits")
            return
        session = tenant.pick_session()
        name = session.pick()

        def connect():
            conn = SimConnection(cluster)
            conn.tenant = tenant.spec.name
            return conn

        stats.in_flight += 1
        try:
            outcome, cause, failed_attempts = yield from serve(
                sim, session, name, connect, scheduled_at, cluster.cost.config,
                tenant.spec.max_attempts, tenant.budget, cluster.metrics, cluster.counters,
            )
        finally:
            stats.in_flight -= 1
        now = sim.now()
        stats.retried += failed_attempts
        if outcome == "completed":
            latency = now - scheduled_at
            stats.completed += 1
            stats.latency.record(latency)
            if latency <= tenant.spec.slo_latency:
                # Goodput counts only completions within the SLO: a request
                # finishing a minute late is throughput, not good service,
                # and counting it would let a backlog-draining cluster look
                # "recovered".
                stats.slo_ok += 1
                stats.goodput.mark(now)
                self.stats.goodput.mark(now)
        elif outcome == "failed":
            stats.failed += 1
        else:
            stats.note_shed(cause)
        if breaker is not None:
            if outcome == "shed":
                breaker.record_shed(now)
            else:
                breaker.record(outcome == "completed", now)
