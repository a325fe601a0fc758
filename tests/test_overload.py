"""Overload robustness: the update queue and retry budgets composed with
replication machinery, deadline propagation through the scheduler, and the
metastability demo.

The interesting failure modes are *compositions*: updates queueing through
a master failover while quorum acks run with a demoted laggard; a request
deadline expiring inside the master-MPL wait; the defenses-OFF arm staying
SLO-degraded long after a flash crowd while the defenses-ON arm recovers
within seconds on the same seed.
"""

from dataclasses import replace

from repro.chaos import PLANS, run_plan
from repro.chaos.plans import DEFENSE_COUNTERS, OVERLOAD_BASE_COST
from repro.cluster.costs import CostConfig
from repro.cluster.simcluster import SimDmvCluster
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

SCALE = TpcwScale(num_items=80, num_customers=230)


def build_cluster(**kwargs):
    kwargs.setdefault("num_slaves", 3)
    cluster = SimDmvCluster(TPCW_SCHEMAS, **kwargs)
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    cluster.warm_all_caches()
    return cluster


def run_workload(cluster, duration=60.0, browsers=8, settle=15.0, mix="ordering"):
    cluster.start_browsers(browsers, MIXES[mix], SCALE, think_time_mean=0.3)
    cluster.sim.schedule(max(0.0, duration - settle), cluster.stop_browsers)
    cluster.run(until=duration)
    return cluster


def merged_counter(cluster, name):
    from repro.common.counters import Counters

    merged = Counters.merged(
        [node.counters for node in cluster.nodes.values()] + [cluster.counters]
    )
    return merged.get(name)


class TestQueueLimitComposition:
    def test_queue_shed_composes_with_quorum_acks_and_demoted_slave(self):
        # Quorum acks demote a slowed laggard, then the master dies and
        # the arrivals that pile up during reconfiguration park on the
        # update queue.  Nothing may be lost and the audit must still pass
        # with the laggard out of the ack set.
        from repro.chaos import check_all_invariants

        cluster = build_cluster(seed=21, ack_policy="quorum")
        cluster.sim.schedule(8.0, cluster.set_slowdown, "s2", 20.0)
        cluster.kill_node_at("m0", 25.0)
        run_workload(cluster, duration=80.0, browsers=12, settle=20.0)
        assert merged_counter(cluster, "slave.demotions") >= 1
        assert merged_counter(cluster, "sched.queued_updates") > 0
        assert cluster.metrics.failed == 0  # queued work served, never lost
        assert cluster.metrics.completed > 0
        results = check_all_invariants(cluster)
        assert all(r.ok for r in results), [str(r) for r in results]

    def test_queue_shed_and_browser_retry_budget_compose(self):
        # A reconfiguration storm with the closed-loop browsers' own retry
        # budget turned on: once the bucket drains, further failed
        # requests are shed (traffic.retry_budget_exhausted) instead of
        # hammering the recovering scheduler forever.
        cfg = CostConfig(retry_budget_rate=0.2, retry_budget_burst=2.0)
        cluster = build_cluster(seed=8, cost_config=cfg)
        cluster.kill_node_at("m0", 15.0)
        run_workload(cluster, duration=70.0, browsers=12)
        assert merged_counter(cluster, "sched.queued_updates") > 0
        exhausted = merged_counter(cluster, "traffic.retry_budget_exhausted")
        assert exhausted > 0
        assert cluster.metrics.shed == exhausted
        assert cluster.metrics.completed > 0


class TestDeadlinePropagation:
    def test_deadline_expires_in_mpl_queue_and_releases_slot(self):
        # One update MPL slot on the slow server shape: queued updates
        # outlive a tight deadline, are cancelled *inside* the admission
        # wait (counted as sched.deadline_cancels) and the run still
        # drains cleanly — cancelled waiters must not leak MPL slots.
        plan = replace(
            PLANS["overload-undefended"],
            cost=replace(OVERLOAD_BASE_COST, update_mpl=1, request_deadline=0.4),
        )
        report = run_plan(plan, seed=5, duration=60.0)
        assert report.counters.get("sched.deadline_cancels", 0) > 0
        for stats in report.traffic.tenants.values():
            assert stats.in_flight == 0
            assert stats.accounted() == stats.injected

    def test_deadline_is_per_request_not_per_attempt(self):
        # The deadline is stamped at the *scheduled arrival*: whatever the
        # attempt count, no completion may be recorded later than
        # deadline + one interaction's worth of service; a per-attempt
        # deadline would let retries push latency far past it.
        plan = replace(
            PLANS["overload-undefended"],
            cost=replace(OVERLOAD_BASE_COST, request_deadline=1.0),
        )
        report = run_plan(plan, seed=2, duration=60.0)
        for stats in report.traffic.tenants.values():
            if len(stats.latency):
                # Completions start before the deadline; the tail can
                # overrun only by the in-flight interaction, never by a
                # whole retry cycle.
                assert stats.latency.percentile(100) < 1.0 + 3.0


def flash_crowd_arms(seed):
    """The metastability demo: the same seeded flash crowd on the same
    server shape, defenses off and on (the ``overload-undefended`` and
    ``overload`` plans)."""
    return [
        run_plan(PLANS[name], seed=seed, duration=120.0)
        for name in ("overload-undefended", "overload")
    ]


def degraded_after_burst(report):
    """(recovered, seconds goodput stayed below the recovery threshold)."""
    _pre_rate, recovered_at, degraded = report.traffic.burst_recovery() or (0.0, None, 0.0)
    return recovered_at is not None, degraded


class TestMetastabilityDemo:
    def test_off_arm_stays_degraded_at_least_twice_as_long(self):
        off, on = flash_crowd_arms(0)
        assert on.ok(), on.summary()
        on_recovered, on_degraded = degraded_after_burst(on)
        assert on_recovered
        # The OFF arm is the metastable failure: degraded >= 2x longer
        # (typically it never recovers inside the measured window).
        _off_recovered, off_degraded = degraded_after_burst(off)
        assert off_degraded >= 2.0 * max(on_degraded, 1e-9)
        slo = [arm.traffic.totals().slo_attainment() for arm in (off, on)]
        assert slo[1] > slo[0]

    def test_defense_counters_fire_only_on_the_on_arm(self):
        off, on = flash_crowd_arms(7)
        for counter in DEFENSE_COUNTERS:
            assert on.counters.get(counter, 0) > 0, counter
            assert off.counters.get(counter, 0) == 0, counter

    def test_overload_chaos_run_fingerprint_is_reproducible(self):
        a, b = (run_plan(PLANS["overload"], seed=11, duration=60.0) for _ in range(2))
        assert a.fingerprint == b.fingerprint
        assert a.counters == b.counters
