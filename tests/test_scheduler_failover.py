"""Integration tests: peer schedulers and scheduler failover (paper §4.1)."""

import pytest

from repro.cluster.simcluster import SimDmvCluster
from repro.common.errors import NodeUnavailable
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

SCALE = TpcwScale(num_items=80, num_customers=230)


def build(num_schedulers=2, **kwargs):
    cluster = SimDmvCluster(
        TPCW_SCHEMAS, num_slaves=2, num_schedulers=num_schedulers, **kwargs
    )
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    cluster.warm_all_caches()
    return cluster


class TestPeerSchedulers:
    def test_primary_is_lowest_alive(self):
        cluster = build()
        assert cluster.scheduler is cluster.schedulers[0].scheduler
        cluster.schedulers[0].alive = False
        assert cluster.scheduler is cluster.schedulers[1].scheduler

    def test_no_scheduler_raises(self):
        cluster = build()
        for agent in cluster.schedulers:
            agent.alive = False
        with pytest.raises(NodeUnavailable):
            _ = cluster.scheduler

    def test_version_state_replicated_to_peer(self):
        cluster = build()
        cluster.start_browsers(6, MIXES["ordering"], SCALE, think_time_mean=0.5)
        cluster.run(until=30.0)
        primary = cluster.schedulers[0].scheduler
        backup = cluster.schedulers[1].scheduler
        assert primary.latest.total() > 0
        # The backup lags by at most the in-flight replication window.
        assert backup.latest.total() >= primary.latest.total() - 5

    def test_topology_mirrored_on_backup(self):
        cluster = build()
        backup = cluster.schedulers[1].scheduler
        assert {s.node_id for s in backup.active_slaves()} == {"s0", "s1"}


class TestSchedulerFailover:
    def test_takeover_restores_service(self):
        cluster = build()
        cluster.start_browsers(8, MIXES["shopping"], SCALE, think_time_mean=0.5)
        cluster.kill_scheduler_at("sched0", 20.0)
        cluster.run(until=80.0)
        # Takeover happened and was fast (heartbeat + two RPC rounds).
        assert len(cluster.failover.scheduler_takeovers) == 1
        detected, done = cluster.failover.scheduler_takeovers[0]
        assert done - detected < 2.0
        # Service continued afterwards.
        late = cluster.metrics.wips.series(end=80.0).between(50.0, 80.0)
        assert late.mean() > 0
        assert cluster.scheduler is cluster.schedulers[1].scheduler

    def test_takeover_resyncs_versions_from_masters(self):
        cluster = build()
        cluster.start_browsers(8, MIXES["ordering"], SCALE, think_time_mean=0.3)
        cluster.kill_scheduler_at("sched0", 20.0)
        cluster.run(until=60.0)
        master = cluster.nodes["m0"]
        backup = cluster.schedulers[1].scheduler
        assert backup.latest.dominates(master.master.current_versions())

    def test_updates_flow_after_takeover(self):
        cluster = build()
        cluster.start_browsers(8, MIXES["ordering"], SCALE, think_time_mean=0.3)
        cluster.kill_scheduler_at("sched0", 20.0)
        cluster.run(until=30.0)
        before = cluster.schedulers[1].scheduler.latest.total()
        cluster.run(until=60.0)
        after = cluster.schedulers[1].scheduler.latest.total()
        assert after > before

    def test_backup_scheduler_death_is_invisible(self):
        cluster = build()
        cluster.start_browsers(6, MIXES["shopping"], SCALE, think_time_mean=0.5)
        cluster.kill_scheduler_at("sched1", 20.0)
        cluster.run(until=60.0)
        assert not cluster.failover.scheduler_takeovers  # primary never changed
        assert cluster.metrics.completed > 50

    def test_scheduler_and_master_failures_combined(self):
        cluster = build()
        cluster.start_browsers(8, MIXES["shopping"], SCALE, think_time_mean=0.5)
        cluster.kill_scheduler_at("sched0", 15.0)
        cluster.kill_node_at("m0", 40.0)
        cluster.run(until=120.0)
        late = cluster.metrics.wips.series(end=120.0).between(90.0, 120.0)
        assert late.mean() > 0
        masters = [n for n in cluster.nodes.values() if n.master and n.alive]
        assert len(masters) == 1
