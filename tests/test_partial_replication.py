"""Tests for partial replication: interest sets, coverage-then-version
routing, broadcast filtering, hot/cold tiering, the interest-coverage
invariant, and the capacity-sweep bench harness.
"""

import os
from dataclasses import replace

import pytest

from repro.chaos import PLANS, check_all_invariants, check_interest_coverage, run_plan
from repro.cluster.interest import InterestRegistry, InterestSet
from repro.cluster.simcluster import SimDmvCluster
from repro.common.errors import ConfigError, NodeUnavailable
from repro.common.versions import VersionVector
from repro.core import ConflictClassMap, MasterReplica
from repro.engine import Column, TableSchema
from repro.scheduler import VersionAwareScheduler
from repro.sql import SqlExecutor
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

SCALE = TpcwScale(num_items=80, num_customers=230)

ALPHA = TableSchema(
    "alpha",
    [Column("id", "int", nullable=False), Column("val", "int")],
    primary_key=("id",),
)
BETA = TableSchema(
    "beta",
    [Column("id", "int", nullable=False), Column("val", "int")],
    primary_key=("id",),
)


def two_table_master():
    master = MasterReplica("m0")
    rows = [{"id": i, "val": 0} for i in range(6)]
    for schema in (ALPHA, BETA):
        master.engine.create_table(schema)
        master.engine.bulk_load(schema.name, rows)
    return master


def commit_on(master, *tables):
    sql = SqlExecutor(master.engine)
    txn = master.begin_update(write_tables=list(tables))
    for table in tables:
        sql.execute(txn, f"UPDATE {table} SET val = val + 1 WHERE id = 1", ())
    ws = master.pre_commit(txn)
    master.finalize(txn)
    return ws


def build_tpcw_cluster(**kwargs):
    kwargs.setdefault("num_slaves", 2)
    cluster = SimDmvCluster(TPCW_SCHEMAS, **kwargs)
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    cluster.warm_all_caches()
    return cluster


class TestInterestSet:
    def test_full_covers_everything(self):
        full = InterestSet.full()
        assert full.is_full
        assert full.covers_table("anything")
        assert full.covers(["a", "b", "c"])

    def test_partial_covers_only_declared(self):
        iset = InterestSet.of("item", "author")
        assert not iset.is_full
        assert iset.covers_table("item")
        assert not iset.covers_table("orders")
        assert iset.covers(["item", "author"])
        assert not iset.covers(["item", "orders"])

    def test_superset_of(self):
        full = InterestSet.full()
        small = InterestSet.of("item")
        big = InterestSet.of("item", "author")
        assert full.superset_of(small) and full.superset_of(full)
        assert big.superset_of(small)
        assert not small.superset_of(big)
        # Only a full set can support a full joiner.
        assert not big.superset_of(full)

    def test_restrict_full_is_identity(self):
        master = two_table_master()
        ws = commit_on(master, "alpha", "beta")
        assert InterestSet.full().restrict(ws) is ws

    def test_restrict_covered_frame_is_identity(self):
        master = two_table_master()
        ws = commit_on(master, "alpha")
        assert InterestSet.of("alpha", "beta").restrict(ws) is ws

    def test_restrict_filters_ops_and_versions(self):
        master = two_table_master()
        ws = commit_on(master, "alpha", "beta")
        restricted = InterestSet.of("alpha").restrict(ws)
        assert restricted is not None and restricted is not ws
        assert all(op.page_id.table == "alpha" for op in restricted.ops)
        assert set(restricted.versions) == {"alpha"}
        assert restricted.versions["alpha"] == ws.versions["alpha"]
        assert (restricted.master_id, restricted.txn_id, restricted.seq) == (
            ws.master_id,
            ws.txn_id,
            ws.seq,
        )
        assert restricted.byte_size() < ws.byte_size()

    def test_restrict_drops_uninteresting_frame(self):
        master = two_table_master()
        ws = commit_on(master, "beta")
        assert InterestSet.of("alpha").restrict(ws) is None

    def test_restrict_is_idempotent_for_dedup(self):
        """Retransmitted frames restricted twice keep the same dedup key."""
        master = two_table_master()
        ws = commit_on(master, "alpha", "beta")
        iset = InterestSet.of("alpha")
        once = iset.restrict(ws)
        twice = iset.restrict(once)
        assert twice.dedup_key() == once.dedup_key()


class TestInterestRegistry:
    def test_full_declarations_keep_registry_inactive(self):
        reg = InterestRegistry()
        reg.declare("s0", InterestSet.full())
        assert not reg.partial_active
        assert reg.get("s0").is_full

    def test_partial_declaration_activates(self):
        reg = InterestRegistry()
        reg.declare("s1", InterestSet.of("item"))
        assert reg.partial_active
        assert reg.covers_table("s1", "item")
        assert not reg.covers_table("s1", "orders")
        # Undeclared nodes are full replicas.
        assert reg.covers_table("s0", "orders")

    def test_redeclaring_full_clears_entry(self):
        reg = InterestRegistry()
        reg.declare("s1", InterestSet.of("item"))
        reg.declare("s1", InterestSet.full())
        assert not reg.partial_active


def make_sched(n_slaves=3):
    ccm = ConflictClassMap.single_class(["item", "orders"])
    ccm.assign_masters(["m0"])
    sched = VersionAwareScheduler("sched0", ccm)
    for i in range(n_slaves):
        sched.add_slave(f"s{i}")
    return sched


class TestPartialRouting:
    def test_uncovering_candidates_shed_and_counted(self):
        sched = make_sched(n_slaves=3)
        sched.set_interest("s1", ["orders"])
        for _ in range(4):
            routed = sched.route_read(["item"])
            assert routed.node_id != "s1"
        assert sched.cluster_counters.get("sched.coverage_rejects") == 4

    def test_reject_count_is_per_candidate(self):
        sched = make_sched(n_slaves=3)
        sched.set_interest("s1", ["orders"])
        sched.set_interest("s2", ["orders"])
        sched.route_read(["item"])
        assert sched.cluster_counters.get("sched.coverage_rejects") == 2

    def test_fresh_covering_slave_wins(self):
        sched = make_sched(n_slaves=2)
        sched.set_interest("s1", ["item"])
        sched.on_master_commit("m0", {"item": 3})
        # Version 3 was confirmed before s0 acked it: s0 owes, s1 does not.
        sched.note_owed("s0", {"item": 3})
        assert sched.route_read(["item"]).node_id == "s1"
        # The ack clears the debt: s0 serves again once s1 owes instead.
        sched.note_acked("s0", {"item": 3})
        sched.note_owed("s1", {"item": 3})
        assert sched.route_read(["item"]).node_id == "s0"

    def test_stale_but_covering_falls_back_to_master(self):
        sched = make_sched(n_slaves=2)
        sched.set_interest("s1", ["item"])
        sched.on_master_commit("m0", {"item": 3})
        for node_id in ("s0", "s1"):
            sched.note_owed(node_id, {"item": 3})
        routed = sched.route_read(["item"])
        assert routed.node_id == "m0"
        assert routed.tag == VersionVector({"item": 3})
        assert sched.cluster_counters.get("sched.read_master_fallbacks") == 1

    def test_fresh_but_uncovering_never_beats_coverage(self):
        """Coverage first: a slave that owes nothing but lacks the table is
        shed even when every covering slave owes (master fallback instead)."""
        sched = make_sched(n_slaves=2)
        sched.set_interest("s1", ["orders"])
        sched.on_master_commit("m0", {"item": 5})
        sched.note_owed("s0", {"item": 5})
        routed = sched.route_read(["item"])
        assert routed.node_id == "m0"
        assert sched.cluster_counters.get("sched.coverage_rejects") == 1
        assert sched.cluster_counters.get("sched.read_master_fallbacks") == 1

    def test_a_debt_on_another_table_does_not_shed(self):
        sched = make_sched(n_slaves=1)
        sched.note_owed("s0", {"orders": 4})
        assert sched.route_read(["item"]).node_id == "s0"
        assert sched.route_read(["orders"]).node_id == "m0"
        # An ack of an older version covers nothing.
        sched.note_acked("s0", {"orders": 3})
        assert sched.route_read(["orders"]).node_id == "m0"
        sched.note_acked("s0", {"orders": 4})
        assert sched.route_read(["orders"]).node_id == "s0"

    def test_no_covering_replica_or_master_raises(self):
        sched = make_sched(n_slaves=1)
        sched.set_interest("s0", ["orders"])
        sched.set_interest("m0", ["orders"])  # promoted ex-partial master
        with pytest.raises(NodeUnavailable):
            sched.route_read(["item"])

    def test_slave_owing_an_ack_is_skipped_under_full_replication(self):
        # The same rule with no interest set declared anywhere.
        sched = make_sched(n_slaves=2)
        sched.on_master_commit("m0", {"item": 1})
        sched.note_owed("s0", {"item": 1})
        assert [sched.route_read(["item"]).node_id for _ in range(3)] == ["s1"] * 3
        sched.note_owed("s1", {"item": 1})
        assert sched.route_read(["item"]).node_id == "m0"
        assert sched.cluster_counters.get("sched.coverage_rejects") == 0

    def test_slave_added_under_partial_mode_starts_fresh(self):
        sched = make_sched(n_slaves=1)
        sched.set_interest("s0", ["orders"])
        sched.on_master_commit("m0", {"item": 7})
        sched.note_owed("s9", {"item": 7})
        sched.add_slave("s9")  # rejoin completes migration before re-add
        assert sched.route_read(["item"]).node_id == "s9"

    def test_rejoin_after_demotion_clears_the_debt(self):
        sched = make_sched(n_slaves=1)
        sched.note_owed("s0", {"item": 2})
        sched.set_demoted("s0", True)
        sched.set_demoted("s0", False)  # after the rejoin's data migration
        assert sched.route_read(["item"]).node_id == "s0"


class TestClusterPartial:
    def run_partial_cluster(self, **kwargs):
        kwargs.setdefault(
            "interest_sets", {"s0": None, "s1": ("item", "author", "customer")}
        )
        cluster = build_tpcw_cluster(num_slaves=2, seed=5, **kwargs)
        cluster.start_browsers(8, MIXES["ordering"], SCALE, think_time_mean=0.5)
        cluster.run(until=40.0)
        return cluster

    def test_broadcast_filtering_saves_bytes(self):
        cluster = self.run_partial_cluster()
        assert cluster.metrics.completed > 100
        saved = cluster.nodes["s1"].counters.get("net.bytes_saved_partial")
        filtered = cluster.nodes["s1"].counters.get("net.write_sets_filtered")
        assert saved > 0 and filtered > 0
        # The full replica pays full freight.
        assert cluster.nodes["s0"].counters.get("net.bytes_saved_partial") == 0

    def test_partial_slave_state_is_leak_free(self):
        cluster = self.run_partial_cluster()
        slave = cluster.nodes["s1"].slave
        interest = {"item", "author", "customer"}
        for table, version in slave.received_versions.as_dict().items():
            if table not in interest:
                assert version == 0, f"leaked {table}@{version}"
        result = check_interest_coverage(cluster)
        assert result.ok, result.detail
        assert "leak-free" in result.detail

    def test_coverage_invariant_detects_injected_leak(self):
        cluster = self.run_partial_cluster()
        # Hand an unrestricted orders frame straight to the partial slave,
        # bypassing the cluster's broadcast filter.
        master = cluster.nodes["m0"].master
        sql = SqlExecutor(master.engine)
        txn = master.begin_update(write_tables=["orders"])
        sql.execute(txn, "UPDATE orders SET o_status = ? WHERE o_id = ?", ("X", 1))
        ws = master.pre_commit(txn)
        master.finalize(txn)
        assert ws is not None
        cluster.nodes["s1"].slave.receive(ws)
        result = check_interest_coverage(cluster)
        assert not result.ok
        assert "orders" in result.detail

    def test_coverage_invariant_counts_min_replication_factor(self):
        cluster = self.run_partial_cluster(min_replication_factor=2)
        assert check_interest_coverage(cluster).ok
        # Demand more covering holders than exist for orders (master +
        # full slave = 2 < 3): the invariant must flag it.
        cluster.min_replication_factor = 3
        result = check_interest_coverage(cluster)
        assert not result.ok and "orders" in result.detail

    def test_reads_fall_back_to_master_when_no_slave_covers(self):
        cluster = build_tpcw_cluster(
            num_slaves=2,
            seed=5,
            interest_sets={"s0": ("item", "author"), "s1": ("item", "author")},
        )
        cluster.start_browsers(8, MIXES["ordering"], SCALE, think_time_mean=0.5)
        cluster.run(until=40.0)
        # order_inquiry/order_display touch customer/orders: no slave
        # covers them, so those reads complete on the master.
        assert cluster.metrics.completed > 100
        assert cluster.metrics.failed == 0
        assert cluster.counters.get("sched.read_master_fallbacks") > 0
        assert check_interest_coverage(cluster).ok

    def test_tiering_budget_spills_and_refaults(self):
        capped = self.run_partial_cluster(slave_cache_pages=8)
        assert capped.metrics.completed > 100
        evictions = sum(
            capped.nodes[s].counters.get("cache.evictions") for s in ("s0", "s1")
        )
        assert evictions > 0
        # Budgets bind per slave: resident set never exceeds the cap.
        for node_id in ("s0", "s1"):
            assert capped.nodes[node_id].cache.resident_count() <= 8
        assert all(r.ok for r in check_all_invariants(capped))

    def test_interest_set_for_unknown_node_rejected(self):
        with pytest.raises(ConfigError):
            SimDmvCluster(
                TPCW_SCHEMAS, num_slaves=1, interest_sets={"s7": ("item",)}
            )

    def test_master_must_keep_full_interest(self):
        with pytest.raises(ConfigError):
            SimDmvCluster(
                TPCW_SCHEMAS, num_slaves=1, interest_sets={"m0": ("item",)}
            )


class TestPartialChaosPlan:
    def _run(self, seed=7, duration=60.0):
        plan = replace(PLANS["partial"], settle=15.0, browsers=8)
        return run_plan(plan, seed=seed, duration=duration)

    def test_plan_survives_sole_extra_replica_crash(self):
        report = self._run()
        assert report.ok(), report.summary()
        assert report.counters.get("net.bytes_saved_partial", 0) > 0
        assert report.counters.get("sched.coverage_rejects", 0) > 0
        assert report.counters.get("cache.evictions", 0) > 0
        coverage = {r.name: r for r in report.invariants}["interest-coverage"]
        assert coverage.ok and "leak-free" in coverage.detail

    def test_plan_is_seed_deterministic(self):
        runs = [self._run(seed=3, duration=40.0) for _ in range(2)]
        assert runs[0].fingerprint == runs[1].fingerprint
        assert runs[0].counters == runs[1].counters
        assert runs[0].ok(), runs[0].summary()


@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_QUICK"),
    reason="capacity sweep is bench-sized; set REPRO_BENCH_QUICK=1",
)
class TestCapacitySweep:
    def test_acceptance_point_serves_twice_its_budget(self):
        from repro.bench.harness import run_capacity_sweep

        points = run_capacity_sweep(duration=20.0, clients=16)
        for _budget, report in points:
            assert report.ok(), report.summary()
            assert report.window.metrics.completed > 0
        # The tightest budget the master's dataset exceeds twice over.
        budget, report = min(
            ((b, r) for b, r in points if b and r.window.pages["m0"] >= 2 * b),
            key=lambda point: point[0],
        )
        assert report.window.counters["cache.evictions"] > 0
        assert report.window.counters["net.bytes_saved_partial"] > 0
