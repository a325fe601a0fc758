"""Cost-model regression: re-home pricing must not perturb the static path.

The historical cost model priced class->master assignment as free because
it could never change.  Forced re-homes make handoffs a real cost
(``CostModel.rehome_cost``); these tests pin down that (a) the new knobs
default to the legacy configuration, (b) the static-path cost formulas
return exactly the values the seed shipped with, (c) a legacy cluster
never charges a re-home, and (d) the two fields that once drove a
load-driven rebalancer, ``dynamic_classes`` and ``rebalance_interval``,
are accepted and change nothing.
"""

from dataclasses import replace

import pytest

from repro.chaos import PLANS, run_plan
from repro.cluster.costs import CostConfig, CostModel
from repro.cluster.simcluster import SimDmvCluster
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale


class TestLegacyDefaults:
    def test_scaleout_knobs_default_off(self):
        cfg = CostConfig()
        assert cfg.epoch_max_txns == 1
        assert cfg.epoch_ms == 0.0
        assert cfg.update_mpl == 0
        assert cfg.dynamic_classes is False
        assert cfg.rebalance_interval == 0.0

    def test_static_statement_cpu_unchanged(self):
        # Hard-coded legacy expectation: the exact formula the seed used.
        model = CostModel(CostConfig())
        delta = {
            "engine.rows_read": 10,
            "engine.pages_read": 4,
            "engine.pages_written": 2,
            "engine.rows_inserted": 1,
            "engine.rows_updated": 2,
            "engine.rows_deleted": 0,
            "index.rotations": 3,
            "locks.waits": 1,
            "slave.ops_applied": 5,
        }
        expected = (
            0.0003          # cpu_per_statement
            + 0.00002 * 10  # rows read
            + 0.00001 * 6   # pages read + written
            + 0.00008 * 3   # rows written
            + 0.00020 * 3   # index rotations
            + 0.00005 * 1   # lock waits
            + 0.00002 * 5   # lazy applies folded into the statement
        )
        assert model.statement_cpu(delta) == pytest.approx(expected, rel=1e-12)

    def test_static_replication_cpu_unchanged(self):
        model = CostModel(CostConfig())
        assert model.precommit_cpu(100) == pytest.approx(0.00003 * 100)
        assert model.apply_cpu(100) == pytest.approx(0.00002 * 100)
        assert model.receive_cpu(100) == pytest.approx(0.00002 * 100)


class TestRehomeCost:
    def test_formula(self):
        cfg = CostConfig(
            rehome_handoff_overhead=0.5,
            cpu_per_rehome_table=0.01,
            cpu_per_op_apply=0.001,
        )
        model = CostModel(cfg)
        assert model.rehome_cost(6, pending_ops=20) == pytest.approx(
            0.5 + 0.01 * 6 + 0.001 * 20
        )

    def test_no_pending_ops_term_by_default(self):
        model = CostModel(CostConfig())
        assert model.rehome_cost(3) == pytest.approx(0.02 + 0.0005 * 3)

    def test_scales_with_tables_and_backlog(self):
        model = CostModel(CostConfig())
        base = model.rehome_cost(1)
        assert model.rehome_cost(8) > base
        assert model.rehome_cost(1, pending_ops=1000) > base


class TestStaticClusterNeverPaysRehome:
    def test_legacy_run_has_no_scaleout_activity(self):
        scale = TpcwScale(num_items=40, num_customers=72)
        cluster = SimDmvCluster(TPCW_SCHEMAS, num_slaves=2, seed=3)
        cluster.load(TpcwDataGenerator(scale, seed=3))
        cluster.warm_all_caches()
        cluster.start_browsers(8, MIXES["ordering"], scale, think_time_mean=0.3)
        cmap = cluster.conflict_map
        owners = {c: cmap.master_of_class(c) for c in cmap.class_ids()}
        cluster.run(until=15.0)
        assert cluster.router.in_flight == {}  # no MPL admission: no update held a slot
        snap = cluster.counters.snapshot()
        assert snap.get("sched.class_rehomes", 0) == 0
        assert snap.get("sched.rehome_aborts", 0) == 0
        # The conflict map never moved.
        assert {c: cmap.master_of_class(c) for c in owners} == owners


class TestInertRebalancerFields:
    def test_dynamic_classes_and_rebalance_interval_change_nothing(self):
        # A short two-master run with both forced re-homes of the
        # ``write-scaleout`` plan: the fingerprint hashes every counter.
        plan = PLANS["write-scaleout"]
        legacy_knobs = replace(plan, cost=replace(
            plan.cost, dynamic_classes=True, rebalance_interval=5.0
        ))
        default = run_plan(plan, duration=20.0)
        assert default.counters.get("sched.class_rehomes", 0) > 0
        assert run_plan(legacy_knobs, duration=20.0).fingerprint == default.fingerprint
