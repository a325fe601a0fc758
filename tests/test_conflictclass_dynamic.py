"""Static conflict classes with movable owners: re-home correctness.

A class's tables are fixed at construction; only its master moves
(``rehome_class``, ``reassign_master``).  Three layers of assurance:

* unit tests of ``rehome_class``;
* Hypothesis: random re-home / reassign sequences over random template
  sets always keep every table in exactly one class (the class it was
  built in) and every class owned by one of the masters, and map
  construction is independent of input ordering and of
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
    """Four classes of two tables each."""
    return ConflictClassMap(
        TABLES, [{"t0", "t1"}, {"t2", "t3"}, {"t4", "t5"}, {"t6", "t7"}]
    )


class TestRehome:
    def test_rehome_moves_ownership(self):
        ccm = pair_map()
        ccm.assign_masters(["m0", "m1"])
        cls = ccm.class_of("t0")
        others = {c: ccm.master_of_class(c) for c in ccm.class_ids() if c != cls}
        ccm.rehome_class(cls, "m1")
        assert ccm.master_of_class(cls) == "m1"
        assert {c: ccm.master_of_class(c) for c in others} == others
        assert ccm.tables_of_class(cls) == ["t0", "t1"]
        ccm.validate_disjoint()

    def test_rehome_unknown_class_rejected(self):
        ccm = pair_map()
        with pytest.raises(ConfigError):
            ccm.rehome_class(42, "m0")


# -- Hypothesis: disjointness survives any owner change -------------------------

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["rehome", "reassign"]),
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
        built = {t: ccm.class_of(t) for t in TABLES}
        ids = ccm.class_ids()
        for kind, a, b in ops:
            if kind == "rehome":
                ccm.rehome_class(ids[a % len(ids)], masters[b % len(masters)])
            else:
                ccm.reassign_master(masters[a % len(masters)], masters[b % len(masters)])
            # The invariants hold after *every* step, not just at the end.
            ccm.validate_disjoint()
            # Classes partition the tables exactly, as they were built.
            assert sorted(
                t for c in ccm.class_ids() for t in ccm.tables_of_class(c)
            ) == sorted(TABLES)
            assert {t: ccm.class_of(t) for t in TABLES} == built
            assert ccm.class_ids() == ids
            # Every co-written template stays inside one class.
            for template in templates:
                ccm.class_of_tables(template)
            # Every class has exactly one owner, one of the masters.
            assert all(ccm.master_of_class(c) in masters for c in ids)

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


_HASHSEED_SCRIPT = """
import json, sys
from repro.core import ConflictClassMap
from repro.tpcw.schema import TABLE_NAMES, UPDATE_TEMPLATES

ccm = ConflictClassMap(TABLE_NAMES, UPDATE_TEMPLATES)
ccm.assign_masters(["m0", "m1", "m2", "m3"])
ccm.rehome_class(ccm.class_ids()[-1], "m2")
ccm.reassign_master("m1", "m3")
print(json.dumps({
    "classes": ccm._class_of_table,
    "masters": {str(k): v for k, v in sorted(ccm._master_of_class.items())},
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
        from repro.chaos.invariants import check_all_invariants
        from repro.cluster.costs import CostConfig
        from repro.cluster.simcluster import SimDmvCluster
        from repro.core.dual import DualController
        from repro.tpcw import (
            MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale, tpcw_conflict_map,
        )

        scale = TpcwScale(num_items=40, num_customers=96)
        cost = CostConfig(update_mpl=4, epoch_max_txns=4, epoch_ms=5.0)
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

        masters = sorted(
            n.node_id for n in cluster.nodes.values()
            if isinstance(n.engine.controller, DualController)
        )
        assert len(masters) == 2

        def force_rehome():
            src = cmap.master_of_class(cmap.class_of("customer"))
            cluster.rehome_table_to("customer", next(m for m in masters if m != src))

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
            for node_id in masters:
                owned = cluster.nodes[node_id].engine.controller.owned
                if node_id == owner:
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
