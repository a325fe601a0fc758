"""Open-loop traffic engine: arrival processes, client defenses, engine.

The load must be *open-loop* (arrival schedules are a pure function of
(seed, shape), never of completions), deterministic (same seed, same
schedule, same fingerprint) and honestly measured (latency from the
scheduled arrival time, so queueing a closed-loop client would absorb
shows up in the histogram).
"""

from dataclasses import replace

import pytest

from repro.chaos.faults import FaultPlan
from repro.chaos.plans import OVERLOAD_BASE_COST, OVERLOAD_DEFENSE_COST, Plan
from repro.chaos.scenario import run_plan
from repro.cluster.costs import CostConfig
from repro.common.rng import RngStream
from repro.traffic.arrivals import (
    BurstRate,
    ConstantRate,
    DiurnalRate,
    iter_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.traffic.budget import CircuitBreaker, RetryBudget
from repro.traffic.scenario import TenantSpec, TrafficScenario


class TestRateShapes:
    def test_composite_sums_rates_and_peaks(self):
        shape = ConstantRate(10.0) + BurstRate(extra=40.0, start=5.0, duration=2.0)
        assert shape.rate(1.0) == 10.0
        assert shape.rate(6.0) == 50.0
        assert shape.rate(7.0) == 10.0  # burst window is half-open
        assert shape.peak() == 50.0
        assert shape.bursts() == [(5.0, 7.0)]

    def test_composite_of_composites_flattens(self):
        a = ConstantRate(1.0) + BurstRate(extra=2.0, start=0.0, duration=1.0)
        b = a + ConstantRate(3.0)
        assert len(b.shapes) == 3
        assert b.peak() == 6.0

    def test_diurnal_stays_within_envelope(self):
        shape = DiurnalRate(base=10.0, amplitude=0.6, period=60.0)
        rates = [shape.rate(t / 2.0) for t in range(240)]
        assert min(rates) >= 0.0
        assert max(rates) <= shape.peak() + 1e-9
        # The curve actually swings: trough well below base, crest above.
        assert min(rates) < 5.0 and max(rates) > 15.0


class TestArrivalProcesses:
    def test_poisson_schedule_is_deterministic_per_seed(self):
        shape = ConstantRate(20.0)
        a = list(poisson_arrivals(RngStream(3, "t"), shape, 30.0))
        b = list(poisson_arrivals(RngStream(3, "t"), shape, 30.0))
        c = list(poisson_arrivals(RngStream(4, "t"), shape, 30.0))
        assert a == b
        assert a != c
        assert all(0.0 <= t < 30.0 for t in a)
        assert a == sorted(a)

    def test_poisson_empirical_rate_tracks_shape(self):
        shape = ConstantRate(20.0)
        arrivals = list(poisson_arrivals(RngStream(5, "t"), shape, 100.0))
        assert 20.0 * 100.0 * 0.85 < len(arrivals) < 20.0 * 100.0 * 1.15

    def test_poisson_thinning_concentrates_in_burst_window(self):
        shape = ConstantRate(2.0) + BurstRate(extra=40.0, start=20.0, duration=10.0)
        arrivals = list(poisson_arrivals(RngStream(1, "t"), shape, 60.0))
        inside = [t for t in arrivals if 20.0 <= t < 30.0]
        outside = [t for t in arrivals if not 20.0 <= t < 30.0]
        # ~420 arrivals inside the 10 s window vs ~100 across the other 50 s.
        assert len(inside) > 2 * len(outside)

    def test_uniform_pacing_is_rng_free_and_exact(self):
        shape = ConstantRate(10.0)
        a = list(uniform_arrivals(RngStream(1, "t"), shape, 2.0))
        b = list(uniform_arrivals(RngStream(99, "t"), shape, 2.0))
        assert a == b  # schedule never touches the stream
        assert len(a) == 20
        steps = [a[i + 1] - a[i] for i in range(len(a) - 1)]
        assert all(abs(step - 0.1) < 1e-9 for step in steps)

    def test_uniform_skips_zero_rate_stretches(self):
        shape = BurstRate(extra=4.0, start=10.0, duration=5.0)
        arrivals = list(uniform_arrivals(RngStream(1, "t"), shape, 20.0))
        assert arrivals
        assert all(10.0 <= t < 15.0 for t in arrivals)

    def test_unknown_process_raises(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            list(iter_arrivals("bogus", RngStream(1, "t"), ConstantRate(1.0), 1.0))


class TestRetryBudget:
    def test_burst_spends_down_then_exhausts(self):
        budget = RetryBudget(rate=1.0, burst=3.0)
        assert [budget.try_spend(0.0) for _ in range(4)] == [True, True, True, False]
        assert budget.spent == 3
        assert budget.exhausted == 1

    def test_budget_refills_at_rate(self):
        budget = RetryBudget(rate=2.0, burst=2.0)
        assert budget.try_spend(0.0) and budget.try_spend(0.0)
        assert not budget.try_spend(0.0)
        assert budget.try_spend(0.6)  # 0.6 s * 2/s = 1.2 tokens back
        assert budget.tokens(0.6) < 1.0

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryBudget(rate=0.0)


class TestCircuitBreaker:
    def test_opens_at_failure_fraction_and_sheds(self):
        breaker = CircuitBreaker(0.5, window=4, cooldown=5.0)
        for ok in (True, False, False, False):
            breaker.record(ok, now=1.0)
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.allow(2.0)
        assert breaker.short_circuits == 1

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(0.5, window=2, cooldown=5.0)
        breaker.record(False, 0.0)
        breaker.record(False, 0.0)
        assert breaker.state == "open"
        assert breaker.allow(6.0)  # cooldown elapsed: one probe through
        assert breaker.state == "half-open"
        assert not breaker.allow(6.1)  # only one probe at a time
        breaker.record(True, 6.5)
        assert breaker.state == "closed"
        assert breaker.allow(6.6)

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(0.5, window=2, cooldown=5.0)
        breaker.record(False, 0.0)
        breaker.record(False, 0.0)
        assert breaker.allow(6.0)
        breaker.record(False, 6.5)
        assert breaker.state == "open"
        assert not breaker.allow(7.0)

    def test_shed_probe_reopens_and_a_closed_breaker_ignores_sheds(self):
        breaker = CircuitBreaker(0.5, window=2, cooldown=5.0)
        breaker.record_shed(1.0)
        assert breaker.state == "closed"
        breaker.record(False, 2.0)
        breaker.record(False, 2.0)
        assert breaker.allow(7.0)
        breaker.record_shed(7.2)  # the probe never reached the server
        assert breaker.state == "open"
        assert not breaker.allow(12.0)
        assert breaker.allow(12.5)  # probes again after the cooldown


def _quiet_scenario(rate=6.0, duration=40.0, **tenant_kwargs):
    """One-tenant scenario (fast to simulate)."""
    return TrafficScenario(
        name="unit",
        duration=duration,
        tenants=(
            TenantSpec("web", shape=ConstantRate(rate), mix="shopping", **tenant_kwargs),
        ),
        settle=10.0,
    )


def _run(scenario, seed=3, cost_config=CostConfig()):
    """``scenario`` on a clean fabric."""
    plan = Plan(
        name="unit",
        faults=FaultPlan.fixed(),
        cost=cost_config,
        traffic=lambda duration: scenario,
        settle=scenario.settle,
    )
    return run_plan(plan, seed=seed, duration=scenario.duration)


class TestOpenLoopEngine:
    def test_run_is_deterministic(self):
        a = _run(_quiet_scenario())
        b = _run(_quiet_scenario())
        assert a.fingerprint == b.fingerprint
        assert a.traffic.tenants["web"].injected == b.traffic.tenants["web"].injected
        assert a.traffic.tenants["web"].injected > 0

    def test_offered_load_is_independent_of_cluster_speed(self):
        # Open loop: a ~30x slower server must see the *same* arrival
        # schedule — and the stall must show in the latency histogram
        # because latency is measured from the scheduled arrival time
        # (the coordinated-omission fix; a closed-loop client would have
        # silently injected less and reported rosy latencies).
        fast = _run(_quiet_scenario())
        slow = _run(_quiet_scenario(), cost_config=OVERLOAD_BASE_COST)
        f, s = fast.traffic.tenants["web"], slow.traffic.tenants["web"]
        assert f.injected == s.injected
        assert s.latency.percentile(99) > 2.0 * f.latency.percentile(99)

    def test_accounting_identity_holds_at_quiescence(self):
        report = _run(_quiet_scenario())
        for stats in report.traffic.tenants.values():
            assert stats.in_flight == 0
            assert stats.accounted() == stats.injected
        assert report.ok(), [str(r) for r in report.invariants]

    def test_admission_rejects_are_counted_and_shed(self):
        # A 2/s bucket under 6/s offered load must shed; sheds are cheap
        # (no server work) and show up in both counters and tenant stats.
        cfg = replace(OVERLOAD_BASE_COST, admission_rate=2.0, admission_burst=2.0)
        report = _run(_quiet_scenario(), cost_config=cfg)
        assert report.counters.get("sched.admission_rejects", 0) > 0
        stats = report.traffic.tenants["web"]
        assert stats.shed_by_cause.get("admission-reject", 0) > 0
        assert stats.accounted() == stats.injected

    def test_tight_deadline_cancels_and_fails_terminally(self):
        # On the slow server shape a 60 ms deadline cannot be met by
        # multi-statement interactions: the server cancels mid-flight
        # (sched.deadline_cancels) and the client records a terminal
        # failure instead of retrying doomed work.
        cfg = replace(OVERLOAD_BASE_COST, request_deadline=0.06)
        report = _run(_quiet_scenario(), cost_config=cfg)
        assert report.counters.get("sched.deadline_cancels", 0) > 0
        stats = report.traffic.tenants["web"]
        assert stats.failed > 0
        assert stats.accounted() == stats.injected

    def test_half_open_breaker_does_not_latch_when_its_probe_is_shed(self):
        # A scheduler that admits nothing (burst < one token) and a tenant
        # breaker forced open at t=0: every probe is an admission reject.
        # A shed probe re-opens the breaker, so it keeps probing once per
        # cooldown; it must not stay half-open and short-circuit the rest.
        from repro.cluster.simcluster import SimDmvCluster
        from repro.tpcw import TPCW_SCHEMAS, TpcwScale
        from repro.tpcw.datagen import cached_rows
        from repro.traffic.engine import OpenLoopEngine

        scale = TpcwScale(num_items=80, num_customers=230)
        cfg = CostConfig(admission_rate=0.5, admission_burst=0.5, breaker_failure_threshold=0.5)
        cluster = SimDmvCluster(TPCW_SCHEMAS, num_slaves=1, seed=3, cost_config=cfg)
        cluster.load_tables(cached_rows(scale, 11))
        scenario = _quiet_scenario(duration=40.0)
        engine = OpenLoopEngine(cluster, scenario, seed=3, scale=scale)
        breaker = engine.tenants[0].breaker
        for _ in range(breaker.window):
            breaker.record(False, 0.0)
        engine.start()
        cluster.run(until=scenario.duration)
        stats = engine.stats.tenants["web"]
        probes = stats.shed_by_cause["admission-reject"]
        assert probes >= scenario.inject_until // breaker.cooldown - 1
        assert breaker.state == "open"
        assert stats.accounted() == stats.injected

    def test_burst_recovery_stops_where_the_plan_stops_injection(self):
        # The plan's settle is the scenario's: with injection stopping at
        # 80 s, recovery is measured from the burst's end (54 s) to 80 s,
        # not to the scenario's own 95 s.
        from repro.chaos.plans import PLANS

        report = run_plan(replace(PLANS["overload-undefended"], settle=40.0), duration=120.0)
        assert report.traffic.scenario.inject_until == 80.0
        _pre_rate, recovered_at, degraded = report.traffic.burst_recovery()
        assert recovered_at is None
        assert degraded == pytest.approx(26.0)

    def test_defense_configs_default_off(self):
        cfg = CostConfig()
        assert cfg.admission_rate == 0
        assert cfg.admission_queue_watermark == 0
        assert cfg.request_deadline == 0
        assert cfg.retry_budget_rate == 0
        assert cfg.breaker_failure_threshold == 0
        on = OVERLOAD_DEFENSE_COST
        assert on.admission_rate > 0
        assert on.request_deadline > 0
        assert on.retry_budget_rate > 0
        assert on.breaker_failure_threshold > 0
