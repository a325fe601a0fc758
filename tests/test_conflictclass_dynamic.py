"""Dynamic conflict-class sharding: split/merge/re-home correctness.

Three layers of assurance:

* unit tests of the ``ConflictClassMap`` mutation API (atom floors, id
  allocation, master inheritance, epoch bumps);
* Hypothesis: random split/merge/re-home sequences over random template
  sets always preserve the disjointness invariants (every table in
  exactly one class, no co-written atom ever split across classes), and
  map construction is independent of input ordering and of
  ``PYTHONHASHSEED``;
* cluster-level: a forced re-home mid-run drains the class and replays
  zero lost or duplicated write-sets (commit-log coverage, counter
  conservation, byte-identical replica contents).
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.core import ConflictClassMap
from repro.tpcw.schema import TABLE_NAMES, UPDATE_TEMPLATES

TABLES = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"]


def pair_map():
    """Four atoms of two tables each — plenty of room to regroup."""
    return ConflictClassMap(
        TABLES, [{"t0", "t1"}, {"t2", "t3"}, {"t4", "t5"}, {"t6", "t7"}]
    )


class TestSplit:
    def test_single_atom_class_is_the_floor(self):
        ccm = ConflictClassMap.single_class(["a", "b"])
        assert ccm.split_class(0) is None

    def test_split_after_merge_restores_granularity(self):
        ccm = pair_map()
        ccm.assign_masters(["m0"])
        merged = ccm.merge_classes(0, 1)
        assert ccm.num_classes == 3
        new_id = ccm.split_class(merged)
        assert new_id is not None and new_id >= 4  # fresh id, never recycled
        assert ccm.num_classes == 4
        ccm.validate_disjoint()
        # The split moved whole atoms: t2/t3 travel together.
        assert ccm.class_of("t2") == ccm.class_of("t3") == new_id

    def test_split_product_inherits_master(self):
        ccm = pair_map()
        ccm.assign_masters(["m0", "m1"])
        merged = ccm.merge_classes(0, 1)
        owner = ccm.master_of_class(merged)
        new_id = ccm.split_class(merged)
        assert ccm.master_of_class(new_id) == owner

    def test_split_bumps_assignment_epoch(self):
        ccm = pair_map()
        ccm.merge_classes(0, 1)
        before = ccm.assignment_epoch
        ccm.split_class(0)
        assert ccm.assignment_epoch == before + 1


class TestMerge:
    def test_merge_retires_absorbed_id(self):
        ccm = pair_map()
        ccm.assign_masters(["m0"])
        ccm.merge_classes(0, 2)
        assert 2 not in ccm.class_ids()
        assert ccm.class_of("t4") == 0
        ccm.validate_disjoint()

    def test_merge_keeps_keepers_master(self):
        ccm = pair_map()
        ccm.assign_masters(["m0", "m1"])
        keeper_master = ccm.master_of_class(0)
        ccm.merge_classes(0, 2)
        assert ccm.master_of_class(0) == keeper_master

    def test_merge_unknown_class_rejected(self):
        ccm = pair_map()
        with pytest.raises(ConfigError):
            ccm.merge_classes(0, 99)

    def test_merge_self_is_noop(self):
        ccm = pair_map()
        before = ccm.assignment_epoch
        assert ccm.merge_classes(1, 1) == 1
        assert ccm.assignment_epoch == before


class TestRehome:
    def test_rehome_moves_ownership_and_bumps_epoch(self):
        ccm = pair_map()
        ccm.assign_masters(["m0", "m1"])
        cls = ccm.class_of("t0")
        before = ccm.assignment_epoch
        ccm.rehome_class(cls, "m1")
        assert ccm.master_of_class(cls) == "m1"
        assert ccm.assignment_epoch == before + 1
        ccm.validate_disjoint()

    def test_rehome_unknown_class_rejected(self):
        ccm = pair_map()
        with pytest.raises(ConfigError):
            ccm.rehome_class(42, "m0")


# -- Hypothesis: disjointness survives any mutation sequence --------------------

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["split", "merge", "rehome"]),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=30,
)

templates_strategy = st.lists(
    st.sets(st.sampled_from(TABLES), min_size=1, max_size=4),
    max_size=6,
)


@st.composite
def map_and_ops(draw):
    return draw(templates_strategy), draw(ops_strategy)


class TestDisjointnessProperty:
    @settings(max_examples=200, deadline=None)
    @given(map_and_ops())
    def test_random_mutations_preserve_disjointness(self, case):
        templates, ops = case
        ccm = ConflictClassMap(TABLES, templates)
        masters = ["m0", "m1", "m2", "m3"]
        ccm.assign_masters(masters)
        atom_count = len(ccm.atoms)
        for kind, a, b in ops:
            ids = ccm.class_ids()
            if kind == "split":
                ccm.split_class(ids[a % len(ids)])
            elif kind == "merge" and len(ids) > 1:
                keep, absorb = ids[a % len(ids)], ids[b % len(ids)]
                if keep != absorb:
                    ccm.merge_classes(keep, absorb)
            elif kind == "rehome":
                ccm.rehome_class(ids[a % len(ids)], masters[b % len(masters)])
            # The invariants hold after *every* step, not just at the end.
            ccm.validate_disjoint()
            # Classes partition the tables exactly.
            assert sorted(
                t for c in ccm.class_ids() for t in ccm.tables_of_class(c)
            ) == sorted(TABLES)
            # Atom granularity is the floor and the ceiling of regrouping.
            assert 1 <= len(ccm.class_ids()) <= atom_count
            assert ccm.num_classes == len(ccm.class_ids())

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_construction_is_order_independent(self, rng):
        shuffled_tables = list(TABLE_NAMES)
        rng.shuffle(shuffled_tables)
        shuffled_templates = [set(t) for t in UPDATE_TEMPLATES]
        rng.shuffle(shuffled_templates)
        reference = ConflictClassMap(TABLE_NAMES, UPDATE_TEMPLATES)
        permuted = ConflictClassMap(shuffled_tables, shuffled_templates)
        assert permuted._class_of_table == reference._class_of_table
        assert permuted.atoms == reference.atoms


_HASHSEED_SCRIPT = """
import json, sys
from repro.core import ConflictClassMap
from repro.tpcw.schema import TABLE_NAMES, UPDATE_TEMPLATES

ccm = ConflictClassMap(TABLE_NAMES, UPDATE_TEMPLATES)
ccm.assign_masters(["m0", "m1", "m2", "m3"])
merged = ccm.merge_classes(*ccm.class_ids()[:2])
new_id = ccm.split_class(merged)
ccm.rehome_class(new_id if new_id is not None else merged, "m2")
print(json.dumps({
    "classes": ccm._class_of_table,
    "masters": {str(k): v for k, v in sorted(ccm._master_of_class.items())},
    "atoms": [sorted(a) for a in ccm.atoms],
    "epoch": ccm.assignment_epoch,
}, sort_keys=True))
"""


class TestHashSeedDeterminism:
    def test_routing_tables_identical_across_hash_seeds(self):
        outputs = []
        for seed in ("0", "1", "1234"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), "src") if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT],
                capture_output=True, text=True, env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]


# -- cluster level: a drained re-home loses and duplicates nothing ---------------


class TestDrainedRehomeReplay:
    def test_forced_rehome_mid_run_zero_lost_or_duplicated(self):
        from dataclasses import replace

        from repro.chaos.invariants import check_all_invariants
        from repro.cluster.costs import CostConfig
        from repro.cluster.simcluster import SimDmvCluster
        from repro.tpcw import (
            MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale, tpcw_conflict_map,
        )

        scale = TpcwScale(num_items=40, num_customers=96)
        cost = replace(
            CostConfig(),
            update_mpl=4,
            epoch_max_txns=4,
            epoch_ms=5.0,
            dynamic_classes=True,
            rebalance_interval=1e9,  # only the forced re-home moves classes
        )
        cmap = tpcw_conflict_map(multi_master=True)
        cluster = SimDmvCluster(
            TPCW_SCHEMAS,
            num_slaves=2,
            conflict_map=cmap,
            multi_master=True,
            num_masters=2,
            cost_config=cost,
            seed=5,
        )
        cluster.load(TpcwDataGenerator(scale, seed=5))
        cluster.warm_all_caches()
        cluster.start_browsers(24, MIXES["ordering"], scale, think_time_mean=0.3)

        def force_rehome():
            cls = cmap.class_of("customer")
            src = cmap.master_of_class(cls)
            dst = next(
                n.node_id for n in cluster.rebalancer.class_masters() if n.node_id != src
            )
            cluster.rehome_table_to("customer", dst)

        cluster.sim.schedule(6.0, force_rehome)
        cluster.run(until=20.0)
        snap = cluster.counters.snapshot()
        assert snap.get("sched.class_rehomes", 0) == 1
        assert snap.get("sched.rehome_aborts", 0) == 0
        cmap.validate_disjoint()

        # Ownership flipped consistently down to the lock controllers.
        for class_id in cmap.class_ids():
            owner = cmap.master_of_class(class_id)
            tables = set(cmap.tables_of_class(class_id))
            for node in cluster.rebalancer.class_masters():
                owned = node.engine.controller.owned
                if node.node_id == owner:
                    assert tables <= owned
                else:
                    assert not (owned & tables)

        # Quiesce, then audit: every confirmed commit everywhere, contents
        # byte-identical, every transmission accounted once.
        cluster.stop_browsers()
        cluster.run(until=cluster.sim.now() + 10.0)
        results = {r.name: r for r in check_all_invariants(cluster)}
        for name in (
            "durable-commits",
            "replica-convergence",
            "snapshot-consistency",
            "counter-conservation",
        ):
            assert results[name].ok, str(results[name])
