"""Tests for the chaos layer: lossy links, retransmission, dedup,
fault plans, invariant checkers, graceful degradation, and the
satellite edge cases (total-slave loss, total-scheduler loss,
repeat-failure detection after reintegration).
"""

from dataclasses import replace

import pytest

from repro.chaos import (
    ANY,
    PLANS,
    CrashNode,
    FaultPlan,
    LinkFault,
    NetworkModel,
    Partition,
    check_all_invariants,
    check_counter_conservation,
    check_durable_commits,
    default_chaos_plan,
    invariants,
    run_plan,
)
from repro.cluster.channel import ACK_TIMEOUT_BASE, RETRANSMIT_BACKOFF_CAP, RETRANSMIT_LIMIT
from repro.cluster.costs import CostConfig
from repro.cluster.routing import UPDATE_QUEUE_DEADLINE
from repro.cluster.simcluster import SimDmvCluster
from repro.common.errors import NodeUnavailable
from repro.common.rng import RngStream
from repro.core import MasterReplica, SlaveReplica
from repro.engine import Column, TableSchema
from repro.sql import SqlExecutor
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

SCALE = TpcwScale(num_items=80, num_customers=230)

ITEM = TableSchema(
    "item",
    [
        Column("i_id", "int", nullable=False),
        Column("i_title", "str"),
        Column("i_stock", "int"),
    ],
    primary_key=("i_id",),
)


def build_tpcw_cluster(**kwargs):
    kwargs.setdefault("num_slaves", 2)
    cluster = SimDmvCluster(TPCW_SCHEMAS, **kwargs)
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    cluster.warm_all_caches()
    return cluster


def build_item_cluster(**kwargs):
    kwargs.setdefault("num_slaves", 1)
    cluster = SimDmvCluster([ITEM], seed=kwargs.pop("seed", 1), **kwargs)
    rows = [{"i_id": i, "i_title": f"t{i}", "i_stock": 10} for i in range(8)]
    for node in cluster.nodes.values():
        node.engine.bulk_load("item", rows)
    return cluster


def one_write_set(master, i=1):
    sql = SqlExecutor(master.engine)
    txn = master.begin_update()
    sql.execute(txn, "UPDATE item SET i_stock = ? WHERE i_id = ?", (i, i))
    ws = master.pre_commit(txn)
    master.finalize(txn)
    return ws


class TestNetworkModel:
    def net(self):
        return NetworkModel(RngStream(3, "net"))

    def test_links_start_clean(self):
        net = self.net()
        link = net.link("a", "b")
        assert not link.lossy
        assert not link.drops() and not link.duplicates()
        assert link.extra_delay() == 0.0

    def test_wildcard_fault_hits_existing_and_future_links(self):
        net = self.net()
        old = net.link("a", "b")
        net.set_fault(ANY, ANY, drop_p=0.5)
        new = net.link("c", "d")
        assert old.drop_p == 0.5 and new.drop_p == 0.5
        net.clear_fault()
        assert not old.lossy and not net.link("e", "f").lossy

    def test_partition_cuts_both_directions_until_healed(self):
        net = self.net()
        ab = net.link("a", "b")
        net.partition(("a",), ("b",))
        ba = net.link("b", "a")  # created while partitioned
        assert ab.drops() and ba.drops()
        assert not net.link("a", "c").partitioned
        net.heal(("a",), ("b",))
        assert not ab.partitioned and not ba.partitioned
        with pytest.raises(ValueError):
            net.heal(("a",), ("b",))


class TestDedup:
    def test_duplicate_write_set_applied_once(self):
        master = MasterReplica("m0")
        slave = SlaveReplica("s0")
        rows = [{"i_id": i, "i_title": f"t{i}", "i_stock": 10} for i in range(4)]
        for engine in (master.engine, slave.engine):
            engine.create_table(ITEM)
            engine.bulk_load("item", rows)
        ws = one_write_set(master)
        slave.receive(ws)
        assert slave.is_duplicate(ws)
        slave.receive(ws)  # idempotent: filtered, counted
        assert slave.counters.get("net.dups_ignored") == 1
        assert slave.pending_op_count() == len(ws.ops)

    def test_distinct_write_sets_not_confused(self):
        master = MasterReplica("m0")
        slave = SlaveReplica("s0")
        rows = [{"i_id": i, "i_title": f"t{i}", "i_stock": 10} for i in range(4)]
        for engine in (master.engine, slave.engine):
            engine.create_table(ITEM)
            engine.bulk_load("item", rows)
        ws1, ws2 = one_write_set(master, 1), one_write_set(master, 2)
        assert ws1.dedup_key() != ws2.dedup_key()
        slave.receive(ws1)
        assert not slave.is_duplicate(ws2)


class TestRetransmission:
    def test_lost_data_frame_retransmitted_until_delivered(self):
        cluster = build_item_cluster()
        master = cluster.nodes["m0"].master
        target = cluster.nodes["s0"]
        cluster.net.set_fault("m0", "s0", drop_p=1.0)
        ws = one_write_set(master)
        ack = cluster.pipeline.channel("m0", target).send(ws)
        cluster.run(until=0.5)
        assert target.counters.get("net.drops") >= 2
        assert target.counters.get("net.retransmits") >= 1
        assert not ack.triggered
        cluster.net.clear_fault("m0", "s0")
        cluster.run(until=3.0)
        assert ack.triggered and ack.value is True
        assert target.counters.get("slave.write_sets_received") == 1
        # Per-attempt conservation: sent == received + dups + drops.
        assert check_counter_conservation(cluster).ok

    def test_lost_ack_frame_causes_duplicate_filtered_by_slave(self):
        cluster = build_item_cluster()
        master = cluster.nodes["m0"].master
        target = cluster.nodes["s0"]
        cluster.net.set_fault("s0", "m0", drop_p=1.0)  # acks vanish
        ws = one_write_set(master)
        ack = cluster.pipeline.channel("m0", target).send(ws)
        cluster.run(until=0.5)
        assert target.counters.get("net.retransmits") >= 1
        assert target.counters.get("net.dups_ignored") >= 1
        cluster.net.clear_fault("s0", "m0")
        cluster.run(until=3.0)
        assert ack.triggered and ack.value is True
        # Delivered many times, applied exactly once.
        assert target.counters.get("slave.write_sets_received") == 1
        assert target.slave.pending_op_count() == len(ws.ops)
        assert check_counter_conservation(cluster).ok

    def test_exhausted_retransmit_budget_suspects_target(self):
        cluster = build_item_cluster()
        master = cluster.nodes["m0"].master
        target = cluster.nodes["s0"]
        cluster.net.set_fault("m0", "s0", drop_p=1.0)
        ack = cluster.pipeline.channel("m0", target).send(one_write_set(master))
        cluster.run(until=30.0)
        assert ack.triggered and ack.value is False
        assert not target.alive
        assert cluster.counters.get("net.suspicions") >= 1
        assert target.counters.get("net.retransmits") == RETRANSMIT_LIMIT - 1

    def test_backoff_schedule_doubles_then_caps(self):
        cluster = build_item_cluster()
        channel = cluster.pipeline.channel("m0", cluster.nodes["s0"])
        delays = [channel._ack_timeout(a) for a in range(1, 8)]
        assert delays[0] == ACK_TIMEOUT_BASE
        assert delays[1] == 2 * ACK_TIMEOUT_BASE
        assert delays[-1] == RETRANSMIT_BACKOFF_CAP
        assert all(b >= a for a, b in zip(delays, delays[1:]))


class TestFaultPlan:
    def test_schedule_installs_and_describes(self):
        cluster = build_tpcw_cluster()
        plan = FaultPlan(
            seed=5,
            events=(
                LinkFault(at=1.0, drop_p=0.1, until=8.0),
                Partition(at=2.0, heal_at=4.0, group_a=("m0",), group_b=("s0",)),
                CrashNode(at=5.0, node_id="s1"),
            ),
        )
        plan.schedule(cluster)
        text = plan.describe()
        assert "drop" in text and "partition" in text and "crash" in text
        cluster.run(until=3.0)
        assert cluster.net.link("m0", "s0").partitioned
        cluster.run(until=10.0)
        assert not cluster.net.link("m0", "s0").partitioned
        assert not cluster.nodes["s1"].alive
        assert cluster.net.link("m0", "s0").drop_p == 0.0  # fault expired

    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(seed=9, node_ids=("m0", "s0", "s1"), horizon=150.0)
        b = FaultPlan.random(seed=9, node_ids=("m0", "s0", "s1"), horizon=150.0)
        assert a.describe() == b.describe()
        assert all(e.at <= 150.0 for e in a.events)


class TestInvariants:
    def test_clean_run_passes_all_invariants(self):
        cluster = build_tpcw_cluster()
        cluster.start_browsers(6, MIXES["ordering"], SCALE, think_time_mean=0.3)
        cluster.run(until=20.0)
        cluster.stop_browsers()
        cluster.run(until=30.0)
        results = check_all_invariants(cluster)
        assert [r.name for r in results] == [
            "durable-commits",
            "replica-convergence",
            "snapshot-consistency",
            "counter-conservation",
            "buffer-bounds",
            "rejoin-convergence",
            "quorum-no-lost-commits",
            "class-ownership-unique",
            "durable-prefix",
            "no-ghost-commits",
            "interest-coverage",
        ]
        assert all(r.ok for r in results), [str(r) for r in results]

    def test_default_plan_audits_the_feature_checkers_as_ok(self):
        # Audited on every run, not only when their feature is on: each
        # says it had nothing to audit and passes.
        report = run_plan(PLANS["default"], duration=30.0)
        by_name = {r.name: r for r in report.invariants}
        for name in ("durable-prefix", "no-ghost-commits", "interest-coverage"):
            assert by_name[name].ok, str(by_name[name])

    def test_durability_checker_catches_lost_commit(self):
        cluster = build_tpcw_cluster()
        cluster.start_browsers(4, MIXES["ordering"], SCALE, think_time_mean=0.3)
        cluster.run(until=10.0)
        cluster.stop_browsers()
        cluster.run(until=16.0)
        assert check_durable_commits(cluster).ok
        cluster.commit_log.append(("m0", 10**9, {"item": 10**9}))
        assert not check_durable_commits(cluster).ok

    @staticmethod
    def _quiesced_cluster_with_long_log():
        cluster = build_tpcw_cluster()
        cluster.start_browsers(16, MIXES["ordering"], SCALE, think_time_mean=0.1)
        cluster.run(until=25.0)
        cluster.stop_browsers()
        cluster.run(until=35.0)
        assert len(cluster.commit_log) >= 300
        return cluster

    def test_durability_checker_scans_each_watermark_once(self, monkeypatch):
        """One watermark scan per (node, table), however long the log."""
        cluster = self._quiesced_cluster_with_long_log()
        calls = []
        real = invariants._table_watermark

        def counting(node, table):
            calls.append((node.node_id, table))
            return real(node, table)

        monkeypatch.setattr(invariants, "_table_watermark", counting)
        assert check_durable_commits(cluster).ok
        replicas = [n for n in cluster.nodes.values() if n.slave is not None]
        assert 0 < len(calls) <= len(replicas) * len(TPCW_SCHEMAS)
        assert len(calls) == len(set(calls))

    def test_durability_checker_reports_commit_planted_mid_log(self):
        """A missing commit between hundreds of present ones is reported
        against the watermark the replica really holds."""
        cluster = self._quiesced_cluster_with_long_log()
        have = invariants._table_watermark(cluster.nodes["s0"], "item")
        cluster.commit_log.insert(
            len(cluster.commit_log) // 2, ("m0", 424242, {"item": have + 1})
        )
        result = check_durable_commits(cluster)
        assert not result.ok
        assert result.detail.startswith(
            f"txn 424242 (m0, item=v{have + 1}) absent on s0 (at v{have})"
        )

    def test_conservation_checker_catches_imbalance(self):
        cluster = build_tpcw_cluster()
        cluster.start_browsers(4, MIXES["ordering"], SCALE, think_time_mean=0.3)
        cluster.run(until=10.0)
        assert check_counter_conservation(cluster).ok
        cluster.counters.add("net.drops")
        assert not check_counter_conservation(cluster).ok


class TestGracefulDegradation:
    def test_updates_queue_through_master_reconfiguration(self):
        cluster = build_tpcw_cluster(num_slaves=3)
        cluster.start_browsers(8, MIXES["ordering"], SCALE, think_time_mean=0.2)
        cluster.kill_node_at("m0", 10.0)
        cluster.run(until=40.0)
        # Updates arriving during the reconfiguration window parked on the
        # queue instead of failing outright, and the deadline never fired.
        assert cluster.counters.get("sched.queued_updates") > 0
        assert cluster.counters.get("sched.deadline_rejects") == 0
        assert cluster.metrics.failed == 0
        assert cluster.metrics.completed > 50

    def test_update_parked_past_the_deadline_fails_with_reconfig_deadline(self):
        # A reconfiguration slower than the deadline: the failed master's
        # class stays unserved for a minute, so an update that arrives
        # after the detection waits UPDATE_QUEUE_DEADLINE and is rejected.
        cost = CostConfig(recovery_overhead=60.0)
        cluster = SimDmvCluster(TPCW_SCHEMAS, num_slaves=2, cost_config=cost, seed=3)
        cluster.kill_node_at("m0", 1.0)
        outcome = {}

        def one_update():
            yield cluster.sim.timeout(5.0)
            assert cluster.failover.reconfiguring == {"m0"}
            try:
                yield from cluster.router.admit_update(["item"])
            except NodeUnavailable as exc:
                outcome["reason"], outcome["at"] = exc.reason, cluster.sim.now()

        cluster.sim.spawn(one_update())
        cluster.run(until=40.0)
        assert outcome == {"reason": "reconfig-deadline", "at": 5.0 + UPDATE_QUEUE_DEADLINE}
        assert cluster.counters.get("sched.queued_updates") == 1
        assert cluster.counters.get("sched.deadline_rejects") == 1


class TestEdgeCases:
    def test_master_failure_with_no_surviving_slaves_fails_clean(self):
        """Satellite: zero subscribed slaves left -> clean error, no hang."""
        cluster = build_tpcw_cluster(num_slaves=1)
        cluster.start_browsers(6, MIXES["ordering"], SCALE, think_time_mean=0.3)
        cluster.kill_node_at("s0", 5.0)
        cluster.kill_node_at("m0", 10.0)
        end = cluster.run(until=60.0)
        assert end <= 60.0  # terminated: browsers drained, nothing hangs
        assert cluster.metrics.failed > 0  # updates failed (cleanly)
        assert cluster.metrics.completed > 0  # pre-failure work finished

    def test_all_scheduler_agents_dead_fails_clean(self):
        """Satellite: failure of ALL scheduler agents is a clean error."""
        cluster = build_tpcw_cluster(num_slaves=2, num_schedulers=2)
        cluster.start_browsers(6, MIXES["shopping"], SCALE, think_time_mean=0.3)
        cluster.kill_scheduler_at("sched0", 5.0)
        cluster.kill_scheduler_at("sched1", 8.0)
        end = cluster.run(until=40.0)
        assert end <= 40.0
        assert cluster.metrics.failed > 0
        assert cluster.metrics.completed > 0


class TestRepeatFailureDetection:
    def test_node_killed_again_after_reintegration_is_redetected(self):
        """Satellite: the detector's missed map resets on reintegration."""
        cluster = build_tpcw_cluster(num_slaves=2)
        cluster.start_browsers(6, MIXES["shopping"], SCALE, think_time_mean=0.5)
        cluster.kill_node_at("s0", 5.0)
        cluster.run(until=15.0)
        assert "s0" not in [s.node_id for s in cluster.scheduler.active_slaves()]
        cluster.reintegrate("s0")
        cluster.run(until=30.0)
        assert "s0" in [s.node_id for s in cluster.scheduler.active_slaves()]
        assert "s0" not in cluster.failover.handled_failures
        cluster.kill_node("s0")
        cluster.run(until=45.0)
        # Second failure of the same node is detected and handled again.
        assert "s0" not in [s.node_id for s in cluster.scheduler.active_slaves()]
        assert "s0" in cluster.failover.handled_failures


def short_default(seed, duration, settle):
    """The ``default`` plan with 8 browsers at a short length."""
    plan = replace(PLANS["default"], settle=settle, browsers=8)
    return run_plan(plan, seed=seed, duration=duration)


class TestChaosScenario:
    def test_seeded_scenario_reproduces_exactly(self):
        runs = [short_default(3, 40.0, 10.0) for _ in range(2)]
        assert runs[0].fingerprint == runs[1].fingerprint
        assert runs[0].counters == runs[1].counters
        assert runs[0].completed == runs[1].completed
        assert runs[0].ok(), runs[0].summary()

    def test_different_seeds_diverge(self):
        a = short_default(3, 30.0, 10.0)
        b = short_default(4, 30.0, 10.0)
        assert a.fingerprint != b.fingerprint

    def test_default_plan_exercises_loss_retransmit_and_dedup(self):
        report = short_default(7, 60.0, 15.0)
        assert report.ok(), report.summary()
        assert report.counters.get("net.drops", 0) > 0
        assert report.counters.get("net.retransmits", 0) > 0
        assert report.counters.get("net.dups_ignored", 0) > 0
        assert report.completed > 100
        assert all(inv.ok for inv in report.invariants)


class TestWriteScaleoutPlan:
    """The ``write-scaleout`` plan: flash load + forced re-homes + master kill."""

    @staticmethod
    def _run(seed=7, duration=80.0):
        plan = replace(PLANS["write-scaleout"], settle=20.0, browsers=8)
        return run_plan(plan, seed=seed, duration=duration)

    def test_plan_survives_rehomes_and_master_kill(self):
        report = self._run()
        assert report.ok(), report.summary()
        # Both forced handoffs ran (failover/organic moves may add more)
        # and none aborted into the failure path.
        assert report.counters.get("sched.class_rehomes", 0) >= 2
        assert report.counters.get("sched.rehome_aborts", 0) == 0
        # Epoch batching was live on the masters.
        assert report.counters.get("engine.epochs", 0) > 0
        assert (
            report.counters["engine.epoch_batched_commits"]
            >= report.counters["engine.epochs"]
        )
        # The ownership audit actually had dual controllers to inspect.
        ownership = {r.name: r for r in report.invariants}["class-ownership-unique"]
        assert ownership.ok and "controller-owned" in ownership.detail

    def test_plan_is_seed_deterministic(self):
        runs = [self._run(seed=3, duration=60.0) for _ in range(2)]
        assert runs[0].fingerprint == runs[1].fingerprint
        assert runs[0].counters == runs[1].counters
        assert runs[0].ok(), runs[0].summary()
