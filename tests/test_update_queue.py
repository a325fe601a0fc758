"""The update-admission queue: one arrival-ordered FIFO per conflict class.

An update waits in its class's queue while the class is unserved (its
master failing over, or the class being re-homed) and for room on its
master.  These tests drive two ways out of the queue: the bounded
hand-over to a promoted master, and the hand-over after a forced
re-home's ownership flip.  The third, the reconfiguration deadline, is
``tests/test_chaos.py::TestGracefulDegradation``.
"""

import itertools

from repro.cluster.costs import CostConfig
from repro.cluster.routing import HANDOVER_MPL
from repro.cluster.simcluster import SimDmvCluster
from repro.core.dual import DualController
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale, tpcw_conflict_map

SCALE = TpcwScale(num_items=40, num_customers=96)


def _loaded(cluster, seed):
    cluster.load(TpcwDataGenerator(SCALE, seed=seed))
    cluster.warm_all_caches()
    return cluster


def _record_admissions(cluster, note=lambda tables: None):
    """Wrap the router: one ``(arrival, tables, note, node_id, slot,
    in_flight)`` record per admitted update, in admission order."""
    router = cluster.router
    admit, arrivals, records = router.admit_update, itertools.count(), []

    def recording(tables, tenant="default", deadline=None):
        arrival, noted = next(arrivals), note(tables)
        node, slot = yield from admit(tables, tenant, deadline)
        records.append(
            (arrival, tuple(tables), noted, node.node_id, slot,
             router.in_flight.get(node.node_id, 0))
        )
        return node, slot

    router.admit_update = recording
    return records


class TestFailoverHandOver:
    def test_backlog_reaches_the_promoted_master_bounded_and_in_order(self):
        cluster = _loaded(SimDmvCluster(TPCW_SCHEMAS, num_slaves=3, seed=11), seed=11)
        records = _record_admissions(cluster)
        cluster.start_browsers(24, MIXES["ordering"], SCALE, think_time_mean=0.2)
        cluster.kill_node_at("m0", 10.0)
        cluster.run(until=40.0)

        promoted = cluster.conflict_map.master_of_class(0)
        assert promoted != "m0"
        # With update_mpl 0 only a handed-over update holds a slot, and
        # the backlog was deep enough for the bound to bite.
        queued = [r for r in records if r[4] is not None]
        assert len(queued) > 2 * HANDOVER_MPL
        assert {r[3] for r in queued} == {promoted}
        assert max(r[5] for r in queued) == HANDOVER_MPL
        # One queue, served in arrival order.
        assert [r[0] for r in queued] == sorted(r[0] for r in queued)
        # Counted once if it waited for the unserved class; newcomers
        # behind the backlog only waited for room.  None rejected or lost.
        assert 0 < cluster.counters.get("sched.queued_updates") < len(queued)
        assert cluster.counters.get("sched.deadline_rejects") == 0
        assert cluster.metrics.failed == 0
        # Admission is unbounded again once the backlog is gone.
        assert records[-1][4] is None
        cluster.stop_browsers()
        cluster.run(until=cluster.sim.now() + 10.0)
        assert set(cluster.router.in_flight.values()) == {0}


class TestRehomeHandOver:
    def test_updates_parked_by_a_forced_rehome_run_after_the_flip(self):
        # The drained re-home of tests/test_conflictclass_dynamic.py, of
        # the busiest class and with a one-second handoff, so a backlog
        # deeper than the MPL forms behind the drain barrier.
        cost = CostConfig(
            update_mpl=4, epoch_max_txns=4, epoch_ms=5.0, rehome_handoff_overhead=1.0
        )
        cmap = tpcw_conflict_map(multi_master=True)
        cluster = _loaded(
            SimDmvCluster(
                TPCW_SCHEMAS, num_slaves=2, conflict_map=cmap, multi_master=True,
                num_masters=2, cost_config=cost, seed=5,
            ),
            seed=5,
        )
        moving = cmap.class_of("orders")
        src = cmap.master_of_class(moving)
        dst = next(
            n.node_id for n in cluster.nodes.values()
            if isinstance(n.engine.controller, DualController) and n.node_id != src
        )
        records = _record_admissions(
            cluster, note=lambda tables: moving in cluster.rehomer.rehoming_classes
            and cmap.class_of_tables(tables) == moving,
        )
        cluster.start_browsers(24, MIXES["ordering"], SCALE, think_time_mean=0.3)
        cluster.sim.schedule(6.0, cluster.rehome_table_to, "orders", dst)
        cluster.run(until=20.0)

        snap = cluster.counters.snapshot()
        assert snap.get("sched.class_rehomes", 0) == 1
        parked = [r for r in records if r[2]]
        assert len(parked) > cost.update_mpl
        # Served only after the flip, by the new owner, in arrival order.
        assert {r[3] for r in parked} == {dst}
        assert [r[0] for r in parked] == sorted(r[0] for r in parked)
        # The MPL bounded every master throughout, and queued_updates
        # counted each parked update once and no wait for room.
        assert max(r[5] for r in records) == cost.update_mpl
        assert snap.get("sched.queued_updates", 0) == len(parked)
        assert snap.get("sched.deadline_rejects", 0) == 0
