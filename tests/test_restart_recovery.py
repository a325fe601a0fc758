"""Integration tests: restart-from-own-disk recovery on the simulated cluster.

The durable-WAL mode (``CostConfig(durable_wal=True)``) makes every node
fsync a content-carrying WAL at pre-commit/receive time and checkpoint to
its stable store; a crashed node then restarts from its *own* disk —
checkpoint restore, torn-tail-truncated WAL redo, ghost filtering against
the confirmed commit log — followed by gap replay / migration of only the
commits it missed.  These tests drive that path end to end, assert the
post-quiescence durability invariants, pin fingerprint reproducibility of
the durability chaos plan, and pin that the machinery is invisible
(events, counters, fingerprints) when the flag is off.
"""

from dataclasses import replace

import pytest

from repro.chaos import (
    PLANS,
    BitFlip,
    CrashNode,
    FaultPlan,
    RestartNode,
    check_all_invariants,
    check_durable_prefix,
    check_no_ghost_commits,
    run_plan,
)
from repro.cluster.costs import CostConfig
from repro.cluster.simcluster import SimDmvCluster
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

SCALE = TpcwScale(num_items=80, num_customers=230)

DURABLE = CostConfig(durable_wal=True)


def build_cluster(**kwargs):
    kwargs.setdefault("num_slaves", 2)
    kwargs.setdefault("cost_config", DURABLE)
    kwargs.setdefault("checkpoint_period", 10.0)
    cluster = SimDmvCluster(TPCW_SCHEMAS, **kwargs)
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    cluster.warm_all_caches()
    return cluster


def run_with_browsers(cluster, until, browsers=6, stop_at=None):
    cluster.start_browsers(browsers, MIXES["ordering"], SCALE, think_time_mean=0.4)
    if stop_at is not None:
        cluster.sim.schedule(stop_at, cluster.stop_browsers)
    cluster.run(until=until)


class TestRestartFromDisk:
    def test_slave_crash_restart_rejoins_and_converges(self):
        cluster = build_cluster()
        cluster.kill_node_at("s0", 20.0)
        cluster.restart_node_at("s0", 40.0)
        run_with_browsers(cluster, until=90.0, stop_at=70.0)
        node = cluster.nodes["s0"]
        assert node.alive and node.subscribed and not node.slave.catching_up
        assert node.counters.get("disk.restart_recoveries") == 1
        assert node.counters.get("wal.replayed") > 0
        results = check_all_invariants(cluster)
        assert all(r.ok for r in results), "\n".join(map(str, results))

    def test_restart_replays_wal_and_fetches_only_the_gap(self):
        cluster = build_cluster()
        cluster.kill_node_at("s0", 25.0)
        cluster.restart_node_at("s0", 45.0)
        run_with_browsers(cluster, until=90.0, stop_at=70.0)
        timeline = cluster.timelines[-1]
        # Local redo produced buffered ops; migration then only closed the
        # downtime gap (strictly fewer pages than a from-scratch restore).
        node = cluster.nodes["s0"]
        assert node.counters.get("wal.replayed_ops") > 0
        assert timeline.migration_done > timeline.recovery_done

    def test_torn_write_truncated_at_restart(self):
        cluster = build_cluster()
        cluster.sim.schedule(18.0, cluster.arm_torn_write, "s0")
        cluster.kill_node_at("s0", 20.0)
        cluster.restart_node_at("s0", 40.0)
        run_with_browsers(cluster, until=90.0, stop_at=70.0)
        assert cluster.nodes["s0"].counters.get("wal.torn_tail_records") >= 1
        results = check_all_invariants(cluster)
        assert all(r.ok for r in results), "\n".join(map(str, results))

    def test_fsync_lie_window_loses_believed_synced_tail(self):
        cluster = build_cluster()
        cluster.sim.schedule(10.0, cluster.set_fsync_lie, "s0", True)
        cluster.kill_node_at("s0", 25.0)
        cluster.restart_node_at("s0", 45.0)
        run_with_browsers(cluster, until=90.0, stop_at=70.0)
        node = cluster.nodes["s0"]
        assert node.alive and not node.slave.catching_up
        results = check_all_invariants(cluster)
        assert all(r.ok for r in results), "\n".join(map(str, results))

    def test_master_crash_then_restart_from_disk(self):
        cluster = build_cluster()
        cluster.kill_node_at("m0", 30.0)
        cluster.restart_node_at("m0", 55.0)
        run_with_browsers(cluster, until=100.0, stop_at=80.0)
        node = cluster.nodes["m0"]
        assert node.alive and node.slave is not None  # rejoined as a slave
        assert node.counters.get("disk.restart_recoveries") == 1
        results = check_all_invariants(cluster)
        assert all(r.ok for r in results), "\n".join(map(str, results))
        assert check_no_ghost_commits(cluster).ok

    def test_restart_on_nondurable_cluster_degrades_to_reintegration(self):
        cluster = build_cluster(cost_config=None, checkpoint_period=0.0)
        assert not any(node.durable for node in cluster.nodes.values())
        cluster.kill_node_at("s0", 20.0)
        cluster.restart_node_at("s0", 40.0)
        run_with_browsers(cluster, until=80.0, stop_at=60.0)
        node = cluster.nodes["s0"]
        assert node.alive and node.subscribed
        assert node.counters.get("disk.restart_recoveries") == 0

    def test_durability_invariants_trivial_without_restarts(self):
        cluster = build_cluster()
        run_with_browsers(cluster, until=30.0, stop_at=20.0)
        assert check_durable_prefix(cluster).ok
        assert check_no_ghost_commits(cluster).ok


class TestPlantedDurabilityViolations:
    """The durability checkers read the owning components' audit state: a
    planted violation must fail them (a checker of an empty list is vacuous)."""

    def test_resurfaced_ghost_write_set_is_caught(self):
        cluster = build_cluster()
        run_with_browsers(cluster, until=30.0, stop_at=20.0)
        ghost_key = ("m0", 10**6, (("item", 10**6),))
        cluster.failover.ghosts.append((ghost_key, "m0", 10**6))  # never confirmed
        result = check_no_ghost_commits(cluster)
        assert result.ok and "1 true ghost" in result.detail
        cluster.nodes["s1"].slave._seen_write_sets.add(ghost_key)
        result = check_no_ghost_commits(cluster)
        assert not result.ok and "resurfaced on s1" in result.detail

    def test_restart_below_its_durable_prefix_is_caught(self):
        cluster = build_cluster()
        cluster.kill_node_at("s0", 15.0)
        cluster.restart_node_at("s0", 30.0)
        run_with_browsers(cluster, until=70.0, stop_at=50.0)
        assert len(cluster.migration.restart_audits) == 1
        assert check_durable_prefix(cluster).ok
        node_id, crash_time, confirmed = cluster.migration.restart_audits[0]
        have = cluster.nodes[node_id].slave.received_versions.get("item")
        confirmed["item"] = have + 1_000  # claims more than the restart recovered
        result = check_durable_prefix(cluster)
        assert not result.ok and "item" in result.detail


class TestDurabilityScenario:
    def _run(self, seed=7):
        return run_plan(replace(PLANS["durability"], browsers=8), seed=seed, duration=120.0)

    def test_durability_plan_passes_all_invariants(self):
        report = self._run()
        assert report.ok(), report.summary()
        names = {r.name for r in report.invariants}
        assert {"durable-prefix", "no-ghost-commits"} <= names
        assert report.counters.get("disk.restart_recoveries") == 4
        assert report.counters.get("wal.replayed") > 0
        assert report.counters.get("wal.torn_tail_records") >= 1

    def test_durability_fingerprint_reproduces_exactly(self):
        a, b = self._run(), self._run()
        assert a.fingerprint == b.fingerprint
        assert a.counters == b.counters

    def test_different_seeds_diverge(self):
        assert self._run(3).fingerprint != self._run(4).fingerprint


class TestLegacyCompatibility:
    """The durability machinery must be invisible with the flag off."""

    def test_default_scenario_moves_no_durability_counters(self):
        plan = replace(PLANS["default"], settle=10.0, browsers=8)
        report = run_plan(plan, seed=3, duration=40.0)
        for name in (
            "wal.records",
            "wal.fsyncs",
            "wal.replayed",
            "disk.restart_recoveries",
            "checkpoint.corrupt_pages",
        ):
            assert report.counters.get(name, 0) == 0, name

    def test_random_plan_flag_off_is_byte_identical(self):
        kwargs = dict(seed=9, node_ids=("m0", "s0", "s1"), horizon=150.0)
        legacy = FaultPlan.random(**kwargs)
        flagged_off = FaultPlan.random(storage_faults=False, **kwargs)
        assert legacy.describe() == flagged_off.describe()
        assert not any(isinstance(e, RestartNode) for e in legacy.events)

    def test_random_plan_flag_on_keeps_base_schedule(self):
        kwargs = dict(seed=9, node_ids=("m0", "s0", "s1"), horizon=150.0)
        legacy = FaultPlan.random(**kwargs)
        stormy = FaultPlan.random(storage_faults=True, **kwargs)
        # Same crashes at the same instants (the extra draws come after
        # every base draw), restart-from-disk instead of reintegration,
        # plus one storage fault per victim.
        crashes = lambda plan: sorted(
            (e.at, e.node_id) for e in plan.events if isinstance(e, CrashNode)
        )
        assert crashes(legacy) == crashes(stormy)
        restarts = [e for e in stormy.events if isinstance(e, RestartNode)]
        assert len(restarts) == len(crashes(legacy))
        assert len(stormy.events) == len(legacy.events) + len(restarts)

    def test_durable_fault_hooks_are_noops_when_flag_off(self):
        cluster = SimDmvCluster(TPCW_SCHEMAS, num_slaves=1)
        cluster.arm_torn_write("s0")
        cluster.set_fsync_lie("s0", True)
        cluster.inject_bitflip("s0", target="wal")
        node = cluster.nodes["s0"]
        assert not node.wal._torn_armed and not node.wal.fsync_lies
        assert node.counters.get("wal.bitflips") == 0
