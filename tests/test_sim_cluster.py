"""Integration tests: the simulated cluster end to end (virtual time)."""

import pytest

from repro.cluster.costs import CostConfig
from repro.cluster.clients import SimConnection
from repro.cluster.simcluster import SimDmvCluster
from repro.common.errors import NodeUnavailable
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

SCALE = TpcwScale(num_items=80, num_customers=230)


def build_cluster(**kwargs):
    kwargs.setdefault("num_slaves", 2)
    cluster = SimDmvCluster(TPCW_SCHEMAS, **kwargs)
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    cluster.warm_all_caches()
    return cluster


class TestSteadyState:
    def test_browsers_complete_interactions(self):
        cluster = build_cluster()
        cluster.start_browsers(8, MIXES["shopping"], SCALE, think_time_mean=1.0)
        cluster.run(until=60.0)
        assert cluster.metrics.completed > 100
        assert cluster.metrics.failed == 0

    def test_throughput_series_nonzero(self):
        cluster = build_cluster()
        cluster.start_browsers(6, MIXES["browsing"], SCALE, think_time_mean=1.0)
        cluster.run(until=80.0)
        series = cluster.metrics.wips.series(end=80.0)
        assert series.mean() > 0.5

    def test_updates_replicate_through_sim(self):
        cluster = build_cluster()
        cluster.start_browsers(6, MIXES["ordering"], SCALE, think_time_mean=0.5)
        cluster.run(until=40.0)
        assert cluster.scheduler.latest.total() > 0
        # Slaves saw the same versions the scheduler confirmed.
        for node_id in ("s0", "s1"):
            node = cluster.nodes[node_id]
            assert node.slave.received_versions.dominates(cluster.scheduler.latest)

    def test_latency_histogram_populated(self):
        cluster = build_cluster()
        cluster.start_browsers(4, MIXES["shopping"], SCALE, think_time_mean=1.0)
        cluster.run(until=30.0)
        assert len(cluster.metrics.latency) == cluster.metrics.completed
        assert cluster.metrics.latency.percentile(95) > 0

    def test_abort_rate_is_low(self):
        """Paper §6.1: version-inconsistency aborts stay under 2.5 %."""
        cluster = build_cluster(num_slaves=3)
        cluster.start_browsers(12, MIXES["shopping"], SCALE, think_time_mean=0.5)
        cluster.run(until=60.0)
        assert cluster.metrics.completed > 200
        assert cluster.metrics.abort_rate() < 0.05

    def test_more_slaves_more_throughput(self):
        # Inflate CPU costs so a single slave saturates at this tiny scale.
        heavy = CostConfig(cpu_per_statement=0.02)
        results = {}
        for n in (1, 3):
            cluster = build_cluster(num_slaves=n, cost_config=heavy)
            cluster.start_browsers(50, MIXES["browsing"], SCALE, think_time_mean=0.1)
            cluster.run(until=40.0)
            results[n] = cluster.metrics.completed
        assert results[3] > results[1] * 1.3


class TestSlaveFailover:
    def test_slave_failure_detected_and_removed(self):
        cluster = build_cluster(num_slaves=2)
        cluster.start_browsers(6, MIXES["shopping"], SCALE, think_time_mean=1.0)
        cluster.kill_node_at("s0", 20.0)
        cluster.run(until=60.0)
        assert "s0" not in [s.node_id for s in cluster.scheduler.active_slaves()]
        assert cluster.metrics.completed > 50
        # Work continued after the failure.
        late = cluster.metrics.wips.series(end=60.0).between(40.0, 60.0)
        assert late.mean() > 0

    def test_spare_promoted_when_last_active_dies(self):
        cluster = build_cluster(num_slaves=1, num_spares=1)
        cluster.start_browsers(5, MIXES["shopping"], SCALE, think_time_mean=1.0)
        cluster.kill_node_at("s0", 15.0)
        cluster.run(until=60.0)
        actives = [s.node_id for s in cluster.scheduler.active_slaves()]
        assert actives == ["spare0"]
        late = cluster.metrics.wips.series(end=60.0).between(40.0, 60.0)
        assert late.mean() > 0


class TestMasterFailover:
    def test_master_failure_promotes_slave(self):
        cluster = build_cluster(num_slaves=3)
        cluster.start_browsers(8, MIXES["shopping"], SCALE, think_time_mean=1.0)
        cluster.kill_node_at("m0", 20.0)
        cluster.run(until=90.0)
        new_master = [n for n in cluster.nodes.values() if n.master is not None and n.alive]
        assert len(new_master) == 1
        assert new_master[0].node_id == "s0"
        # Updates flow again after reconfiguration.
        assert cluster.metrics.completed > 50
        timeline = cluster.timelines[0]
        assert timeline.recovery_duration() > 0

    def test_master_failure_with_stale_spare_backfills(self):
        cluster = build_cluster(num_slaves=2, num_spares=1)
        cluster.make_stale_backup("spare0")
        cluster.start_browsers(8, MIXES["shopping"], SCALE, think_time_mean=1.0)
        cluster.kill_node_at("m0", 20.0)
        cluster.run(until=120.0)
        actives = {s.node_id for s in cluster.scheduler.active_slaves()}
        assert "spare0" in actives
        timeline = cluster.timelines[0]
        assert timeline.migration_pages > 0

    def test_effects_of_unconfirmed_commits_discarded(self):
        cluster = build_cluster(num_slaves=2)
        cluster.start_browsers(10, MIXES["ordering"], SCALE, think_time_mean=0.3)
        cluster.kill_node_at("m0", 15.0)
        cluster.run(until=60.0)
        # All surviving replicas agree with the scheduler's confirmed vector.
        for node in cluster.nodes.values():
            if node.alive and node.slave is not None:
                assert node.slave.received_versions.dominates(cluster.scheduler.latest) or \
                    cluster.scheduler.latest.dominates(node.slave.received_versions)

    def test_master_killed_while_commit_queued_for_its_cpu(self):
        """The crash lands in ``commit_update``'s CPU wait: the engine has
        rolled the transaction back by the time the core is granted, so the
        commit must fail like any other commit on a dead master (the client
        sees ``NodeUnavailable`` and retries) instead of joining an epoch
        with an aborted transaction."""
        cluster = build_cluster(num_slaves=2)
        sim, master = cluster.sim, cluster.nodes["m0"]
        outcomes = []

        def hold_core():
            yield from master.cpu.acquire()
            try:
                yield sim.timeout(5.0)
            finally:
                master.cpu.release()

        def attempt(block_and_kill):
            conn = SimConnection(cluster)
            try:
                yield conn.begin_update(["item"])
                yield conn.query("UPDATE item SET i_stock = i_stock - 1 WHERE i_id = 1")
                if block_and_kill:
                    for _ in range(cluster.cost.config.cores_per_node):
                        master.job(hold_core(), "blocker")
                    yield sim.timeout(0.01)  # both cores are now held
                    cluster.kill_node_at("m0", sim.now() + 0.1)
                yield conn.commit()
                outcomes.append("committed")
            except NodeUnavailable:
                conn.cleanup()
                outcomes.append("unavailable")

        def browser():
            yield from attempt(block_and_kill=True)
            yield from attempt(block_and_kill=False)  # queues through the failover

        sim.spawn(browser(), name="scripted-browser")
        cluster.run(until=30.0)  # nothing may raise out of the event loop
        assert outcomes == ["unavailable", "committed"]
        assert cluster.nodes["s0"].master is not None


class TestReintegration:
    def test_reintegrated_node_rejoins_routing(self):
        cluster = build_cluster(num_slaves=2, checkpoint_period=5.0)
        cluster.start_browsers(6, MIXES["shopping"], SCALE, think_time_mean=0.5)
        cluster.kill_node_at("s0", 20.0)
        cluster.sim.schedule(40.0, cluster.reintegrate, "s0")
        cluster.run(until=120.0)
        assert "s0" in [s.node_id for s in cluster.scheduler.active_slaves()]
        reint = [t for t in cluster.timelines if t.migration_pages >= 0]
        assert reint

    def test_reintegration_transfers_only_changed_pages(self):
        cluster = build_cluster(num_slaves=2, checkpoint_period=1e9)
        cluster.start_browsers(6, MIXES["ordering"], SCALE, think_time_mean=0.5)
        cluster.kill_node_at("s0", 10.0)
        cluster.run(until=30.0)
        process = cluster.reintegrate("s0")
        cluster.run(until=200.0)
        assert process.triggered and process.ok
        timeline = process.value
        total_pages = cluster.nodes["s1"].engine.store.page_count()
        assert 0 < timeline.migration_pages < total_pages

    def test_cold_reintegrated_cache_warms_over_time(self):
        cluster = build_cluster(num_slaves=2)
        cluster.start_browsers(6, MIXES["shopping"], SCALE, think_time_mean=0.5)
        cluster.kill_node_at("s0", 10.0)
        cluster.sim.schedule(20.0, cluster.reintegrate, "s0")
        cluster.run(until=150.0)
        node = cluster.nodes["s0"]
        assert node.cache.resident_count() > 0


class TestPageIdShipping:
    def test_spare_cache_warmed_by_shipping(self):
        cluster = build_cluster(num_slaves=1, num_spares=1, pageid_ship_every=5.0)
        cluster.chill_cache("spare0")
        cluster.start_browsers(6, MIXES["shopping"], SCALE, think_time_mean=0.5)
        cluster.run(until=40.0)
        spare = cluster.nodes["spare0"]
        active = cluster.nodes["s0"]
        assert spare.cache.resident_count() >= active.cache.resident_count() * 0.9
