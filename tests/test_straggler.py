"""Straggler tolerance: ack quorums, laggard demotion, exact buffer
accounting, and correctness under quorum acks.

One slow-but-alive replica (a gray failure) must not drag every update
commit: under ``quorum`` acks the laggard is demoted out of the ack set,
commit latency stays at the healthy baseline, and the laggard re-integrates
through data migration once it recovers — all while the default ``all``
policy remains event-for-event identical to the seed behaviour.
"""

from dataclasses import replace

import pytest

from repro.chaos import (
    PLANS,
    FaultPlan,
    Slowdown,
    check_all_invariants,
    check_buffer_bounds,
    check_rejoin_convergence,
    run_plan,
)
from repro.cluster.costs import CostConfig
from repro.cluster.simcluster import SimDmvCluster
from repro.cluster.straggler import (
    LAGGARD_BACKLOG_BYTES,
    LAGGARD_BACKLOG_ENTRIES,
    LAGGARD_SUSTAIN,
    AckLatencyEwma,
    LaggardDetector,
)
from repro.cluster.sync import SyncDmvCluster
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


class TestDetectorUnits:
    def test_ewma_converges(self):
        ewma = AckLatencyEwma()
        for _ in range(200):
            ewma.observe(2.0)
        assert abs(ewma.value - 2.0) < 1e-6
        assert ewma.samples == 200

    def test_detector_flags_sustained_outlier_only(self):
        detector = LaggardDetector()
        # Warm-up: everyone healthy at 1ms.
        for _ in range(4 * LAGGARD_SUSTAIN):
            for target in ("s0", "s1", "s2"):
                detector.observe_ack(target, 0.001)
        assert not detector.ack_latency_verdict("s2")
        # One spike is not a laggard.
        detector.observe_ack("s2", 1.0)
        assert not detector.ack_latency_verdict("s2")
        # Sustained inflation is.
        for _ in range(10 * LAGGARD_SUSTAIN):
            detector.observe_ack("s2", 0.012)
            detector.observe_ack("s0", 0.001)
            detector.observe_ack("s1", 0.001)
        assert detector.ack_latency_verdict("s2")
        assert not detector.ack_latency_verdict("s0")
        detector.forget("s2")
        assert not detector.ack_latency_verdict("s2")

    def test_backlog_verdict_watermarks(self):
        detector = LaggardDetector()
        assert not detector.backlog_verdict(1, 100)
        assert detector.backlog_verdict(LAGGARD_BACKLOG_ENTRIES + 1, 100)
        assert detector.backlog_verdict(1, LAGGARD_BACKLOG_BYTES + 1)

    def test_ack_policy_validation(self):
        with pytest.raises(ValueError):
            SimDmvCluster(TPCW_SCHEMAS, ack_policy="most")


class TestQuorumAcks:
    def test_quorum_saves_commits_from_straggler(self):
        cluster = build_cluster(seed=3, ack_policy="quorum")
        cluster.sim.schedule(10.0, cluster.set_slowdown, "s2", 12.0)
        run_workload(cluster, duration=50.0)
        assert merged_counter(cluster, "net.quorum_commits") > 0
        # Commits proceeded on the quorum while the straggler's ack was
        # still outstanding (before demotion kicked it out of the set).
        assert merged_counter(cluster, "net.quorum_saves") > 0
        assert cluster.metrics.failed == 0

    def test_all_policy_spawns_no_straggler_machinery(self):
        cluster = build_cluster(seed=3, ack_policy="all")
        cluster.sim.schedule(10.0, cluster.set_slowdown, "s2", 12.0)
        run_workload(cluster, duration=40.0)
        # Default policy: the slow node drags commits but is never demoted
        # and no quorum counters exist (bit-for-bit seed compatibility).
        for name in (
            "net.quorum_commits",
            "net.quorum_saves",
            "slave.demotions",
            "slave.rejoins",
        ):
            assert merged_counter(cluster, name) == 0
        assert not cluster.stragglers.ever_demoted

    def test_commit_p99_stays_near_baseline_under_quorum(self):
        def commit_p99(ack_policy, straggle):
            cluster = build_cluster(seed=7, ack_policy=ack_policy)
            if straggle:
                cluster.sim.schedule(12.0, cluster.set_slowdown, "s2", 12.0)
            run_workload(cluster, duration=90.0, browsers=12, settle=20.0)
            assert len(cluster.metrics.commit_latency) > 100
            return cluster.metrics.commit_latency.percentile(99)

        baseline = commit_p99("all", straggle=False)
        dragged = commit_p99("all", straggle=True)
        shielded = commit_p99("quorum", straggle=True)
        # Under all-slave acks every commit waits for the x12 node ...
        assert dragged > 2.0 * baseline
        # ... under quorum acks the laggard is demoted and p99 holds.
        assert shielded <= 2.0 * baseline


class TestDemotionAndRejoin:
    def test_laggard_demoted_then_rejoins_after_recovery(self):
        cluster = build_cluster(seed=5, ack_policy="quorum")
        cluster.sim.schedule(10.0, cluster.set_slowdown, "s2", 12.0)
        cluster.sim.schedule(45.0, cluster.set_slowdown, "s2", 1.0)
        run_workload(cluster, duration=80.0, settle=20.0)
        assert merged_counter(cluster, "slave.demotions") >= 1
        assert merged_counter(cluster, "slave.rejoins") >= 1
        assert "s2" in cluster.stragglers.ever_demoted
        node = cluster.nodes["s2"]
        assert node.alive and node.subscribed and not node.slave.catching_up
        assert not cluster.is_demoted("s2")
        results = check_all_invariants(cluster)
        assert all(r.ok for r in results), [str(r) for r in results]

    def test_demotion_vetoed_for_last_subscribed_slave(self):
        cluster = build_cluster(num_slaves=1, seed=2, ack_policy="quorum")
        assert not cluster.demote_slave("s0")
        assert cluster.counters.get("slave.demotions_vetoed") == 1
        assert not cluster.is_demoted("s0")

    def test_demoted_node_excluded_from_read_routing(self):
        cluster = build_cluster(seed=2, ack_policy="quorum")
        assert cluster.demote_slave("s1")
        active = {s.node_id for s in cluster.scheduler.active_slaves()}
        assert "s1" not in active
        demoted = {s.node_id for s in cluster.scheduler.slaves.values() if s.demoted}
        assert demoted == {"s1"}

    def test_rejoin_convergence_checker_catches_wedged_laggard(self):
        cluster = build_cluster(seed=2, ack_policy="quorum")
        run_workload(cluster, duration=20.0, settle=8.0)
        assert check_rejoin_convergence(cluster).ok  # nothing demoted
        assert cluster.demote_slave("s1")
        # Healthy but still demoted at audit time: flagged as wedged.
        assert not check_rejoin_convergence(cluster).ok
        # A still-degraded laggard is excused.
        cluster.set_slowdown("s1", 8.0)
        assert check_rejoin_convergence(cluster).ok


class TestHeartbeatsWhileDemoted:
    def test_demoted_alive_node_is_never_declared_failstop(self):
        cluster = build_cluster(seed=4, ack_policy="quorum")
        # Hold it demoted for the whole run: the slowdown keeps the rejoin
        # probes failing, so the node stays in the demoted set.
        cluster.sim.schedule(8.0, cluster.set_slowdown, "s2", 16.0)
        run_workload(cluster, duration=60.0)
        assert cluster.is_demoted("s2")
        node = cluster.nodes["s2"]
        assert node.alive  # gray failure, not fail-stop
        # The failure detector never saw a missed heartbeat: no suspicion,
        # no reconfiguration was ever run for the demoted node.
        assert "s2" not in cluster.failover.handled_failures
        assert merged_counter(cluster, "net.suspicions") == 0

    def test_demoted_node_that_crashes_still_reconfigures(self):
        cluster = build_cluster(seed=4, ack_policy="quorum")
        cluster.sim.schedule(8.0, cluster.set_slowdown, "s2", 16.0)
        cluster.kill_node_at("s2", 35.0)
        run_workload(cluster, duration=70.0)
        node = cluster.nodes["s2"]
        assert not node.alive
        # The crash of an (already demoted) node goes through the normal
        # heartbeat -> reconfiguration path.
        assert "s2" in cluster.failover.handled_failures
        results = check_all_invariants(cluster)
        assert all(r.ok for r in results), [str(r) for r in results]


class TestBoundedBuffers:
    def test_pending_ops_counter_never_drifts(self):
        cluster = build_cluster(seed=9, ack_policy="quorum")
        cluster.sim.schedule(10.0, cluster.set_slowdown, "s1", 10.0)
        run_workload(cluster, duration=40.0)
        for node in cluster.nodes.values():
            if node.alive and node.slave is not None:
                assert node.slave.pending_ops == node.slave.pending_op_count()

    def test_planted_pending_ops_drift_is_caught(self):
        """Planted violation: one op of drift between the running counter
        and the queues turns the buffer-bounds checker red."""
        cluster = build_cluster(seed=6, ack_policy="quorum")
        run_workload(cluster, duration=20.0, settle=8.0)
        assert check_buffer_bounds(cluster).ok
        slave = cluster.nodes["s1"].slave
        slave.pending_ops += 1
        result = check_buffer_bounds(cluster)
        assert not result.ok and "s1: pending_ops=" in result.detail


class TestQuorumCorrectness:
    def test_master_failover_under_quorum_promotes_fresh_survivor(self):
        cluster = build_cluster(seed=12, ack_policy="quorum")
        cluster.sim.schedule(8.0, cluster.set_slowdown, "s2", 16.0)
        cluster.kill_node_at("m0", 30.0)
        run_workload(cluster, duration=90.0, settle=25.0)
        masters = [
            n.node_id
            for n in cluster.nodes.values()
            if n.alive and n.master is not None
        ]
        assert masters and "s2" not in masters  # demoted laggard never promoted
        results = check_all_invariants(cluster)
        assert all(r.ok for r in results), [str(r) for r in results]

    def test_straggler_scenario_fingerprint_is_reproducible(self):
        plan = replace(PLANS["straggler"], browsers=8)
        a, b = (run_plan(plan, seed=13, duration=90.0) for _ in range(2))
        assert a.fingerprint == b.fingerprint
        assert a.ok(), [str(r) for r in a.invariants]
        assert a.counters.get("slave.demotions", 0) >= 1


class TestAllPolicyCorners:
    """Corners of the ``all`` policy no fingerprint pin reaches."""

    def test_reintegrated_slave_survives_a_master_failover_undemoted(self):
        # s2 comes back with an empty received vector; under the browsing
        # mix some table sees no write before m0 dies.  The post-failover
        # stale-survivor check would demote it, and under ``all`` no probe
        # daemon would ever rejoin it — so the check stays off there.
        cluster = build_cluster(seed=1)
        cluster.kill_node_at("s2", 10.0)
        cluster.sim.schedule(20.0, cluster.reintegrate, "s2")
        cluster.kill_node_at("m0", 30.0)
        cluster.sim.schedule(45.0, cluster.reintegrate, "m0")
        run_workload(cluster, duration=70.0, settle=15.0, mix="browsing")
        assert merged_counter(cluster, "slave.demotions") == 0
        assert len(cluster.timelines) == 4  # two failures, two reintegrations
        results = check_all_invariants(cluster)
        assert all(r.ok for r in results), [str(r) for r in results]

    @pytest.mark.parametrize(
        "durable, log_while_down, replayed",
        [(False, 0, (0, 0)), (True, 120, (2, 1454))],
    )
    def test_operator_demotion_then_kill_and_reintegrate(
        self, durable, log_while_down, replayed
    ):
        # s1 is slowed so frames are in flight to it when it is demoted,
        # then killed and reintegrated; then the master fails over and
        # rejoins too.  Under ``all`` demotion keeps no replay log; only a
        # durable cluster keeps one while a node is down, and replays it
        # at reintegration.
        cost = CostConfig(durable_wal=True) if durable else None
        cluster = build_cluster(
            seed=5, cost_config=cost, checkpoint_period=10.0 if durable else 0.0
        )
        cluster.sim.schedule(5.0, cluster.set_slowdown, "s1", 30.0)
        cluster.sim.schedule(10.0, cluster.demote_slave, "s1")
        cluster.sim.schedule(10.5, cluster.set_slowdown, "s1", 1.0)
        cluster.kill_node_at("s1", 10.002)
        cluster.sim.schedule(25.0, cluster.reintegrate, "s1")
        cluster.kill_node_at("m0", 40.0)
        cluster.sim.schedule(55.0, cluster.reintegrate, "m0")
        log_sizes = []
        cluster.sim.schedule(
            20.0, lambda: log_sizes.append(len(cluster.pipeline.replay_log))
        )
        run_workload(cluster, duration=80.0, settle=15.0)
        assert merged_counter(cluster, "slave.demotions") == 1
        assert merged_counter(cluster, "net.acks_skipped_demoted") == 0
        assert log_sizes == [log_while_down]
        assert (
            merged_counter(cluster, "slave.replay_write_sets"),
            merged_counter(cluster, "slave.replay_ops"),
        ) == replayed
        assert not cluster.pipeline.replay_log
        assert not cluster.is_demoted("s1")
        results = check_all_invariants(cluster)
        assert all(r.ok for r in results), [str(r) for r in results]


class TestSyncParity:
    def test_sync_demote_rejoin_roundtrip(self):
        cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=3, seed=1)
        cluster.load(TpcwDataGenerator(TpcwScale(num_items=20, num_customers=40), seed=3))
        cluster.demote_slave("s1")
        cluster.run_update(
            [("UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ?", (1,))],
            ["item"],
        )
        assert cluster.counters.get("net.acks_skipped_demoted") >= 1
        cluster.rejoin_slave("s1")
        assert cluster.counters.get("slave.rejoins") == 1
        rows = {}
        for node_id in ("s0", "s1"):
            handle = cluster.nodes[node_id]
            txn = handle.slave.begin_read_only(cluster.scheduler.latest.copy())
            rows[node_id] = handle.sql.execute(
                txn, "SELECT i_stock FROM item WHERE i_id = ?", (1,)
            ).rows
            handle.engine.commit(txn)
        assert rows["s0"] == rows["s1"]

    def test_sync_kill_master_skips_demoted_candidate(self):
        cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=3)
        cluster.load(TpcwDataGenerator(TpcwScale(num_items=20, num_customers=40), seed=3))
        cluster.demote_slave("s0")  # lowest id, would win an id-only election
        assert cluster.kill_master("m0") != "s0"

    def test_sync_refuses_to_demote_last_slave(self):
        cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=1)
        from repro.common.errors import NodeUnavailable

        with pytest.raises(NodeUnavailable):
            cluster.demote_slave("s0")


class TestSlowdownFault:
    def test_slowdown_fault_installs_and_clears(self):
        cluster = build_cluster(num_slaves=2, seed=1)
        plan = FaultPlan(
            seed=1,
            events=(Slowdown(at=5.0, node_id="s1", factor=6.0, until=12.0),),
        )
        plan.schedule(cluster)
        assert "slowdown node s1 x6" in plan.describe()
        cluster.run(until=6.0)
        assert cluster.nodes["s1"].slowdown == 6.0
        cluster.run(until=13.0)
        assert cluster.nodes["s1"].slowdown == 1.0
