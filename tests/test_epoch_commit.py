"""Epoch commit: batching, liveness, admission.

Every update commit is a member of a commit epoch; ``epoch_max_txns``
members share one version-vector advance, one WAL force and one
broadcast/ack barrier.  These tests pin the observable contract:

* under load, epochs actually batch (``engine.epoch_batched_commits``
  strictly exceeds ``engine.epochs``) and every batched commit is still
  durable, converged and conserved;
* under trickle load, the ``epoch_ms`` timer seals part-filled epochs so
  no commit ever hangs waiting for co-members that never arrive;
* ``update_mpl`` admission keeps the per-master update multiprogramming
  level at or below the configured bound throughout the run;
* the default configuration (``epoch_max_txns == 1``) is the smallest
  epoch: one epoch, one write-set and one logged commit per transaction.
"""

from dataclasses import replace

import pytest

from repro.chaos import PLANS, run_plan
from repro.chaos.invariants import check_all_invariants
from repro.cluster.costs import CostConfig
from repro.cluster.simcluster import SimDmvCluster
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

SCALE = TpcwScale(num_items=40, num_customers=96)
SEED = 11

EPOCH_COST = replace(
    CostConfig(),
    update_mpl=4,
    epoch_max_txns=4,
    epoch_ms=5.0,
)


def _make_cluster(cost, num_slaves=2, seed=SEED):
    cluster = SimDmvCluster(
        TPCW_SCHEMAS, num_slaves=num_slaves, cost_config=cost, seed=seed
    )
    cluster.load(TpcwDataGenerator(SCALE, seed=seed))
    cluster.warm_all_caches()
    return cluster


def _epoch_totals(cluster):
    epochs = batched = 0
    for node in cluster.nodes.values():
        snap = node.counters.snapshot()
        epochs += snap.get("engine.epochs", 0)
        batched += snap.get("engine.epoch_batched_commits", 0)
    return epochs, batched


def _quiesce_and_check(cluster):
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


def _record_epochs(cluster):
    """Every commit epoch the cluster opens, in opening order."""
    opened = {}
    open_epoch = cluster.pipeline._open_epoch

    def recording(node):
        epoch = open_epoch(node)
        opened.setdefault(id(epoch), epoch)
        return epoch

    cluster.pipeline._open_epoch = recording
    return opened.values()


class TestEpochBatching:
    def test_loaded_epochs_batch_multiple_commits(self):
        cluster = _make_cluster(EPOCH_COST)
        opened = _record_epochs(cluster)
        cluster.start_browsers(32, MIXES["ordering"], SCALE, think_time_mean=0.2)
        cluster.run(until=20.0)
        epochs, batched = _epoch_totals(cluster)
        assert epochs > 0
        # Batching is real: strictly more commits than epochs, i.e. the
        # average epoch carried more than one member.
        assert batched > epochs
        assert batched <= epochs * EPOCH_COST.epoch_max_txns
        # A commit counts as batched when it joins its epoch and enters the
        # log when the epoch is confirmed, so mid-run the two differ by the
        # members of epochs still in flight.  No epoch with members failed
        # (one whose only joiner failed validation seals empty, unconfirmed).
        assert all(epoch.done.value for epoch in opened if epoch.done.triggered and epoch.members)
        in_flight = sum(len(epoch.members) for epoch in opened if not epoch.done.triggered)
        assert len(cluster.commit_log) + in_flight == batched
        _quiesce_and_check(cluster)
        epochs, batched = _epoch_totals(cluster)
        assert len(cluster.commit_log) == batched

    def test_trickle_load_timer_seals_part_filled_epochs(self):
        # One browser can never fill a 64-member epoch; only the epoch_ms
        # timer stands between its commits and a hang.
        cost = replace(EPOCH_COST, epoch_max_txns=64)
        cluster = _make_cluster(cost)
        cluster.start_browsers(1, MIXES["ordering"], SCALE, think_time_mean=0.2)
        cluster.run(until=20.0)
        epochs, batched = _epoch_totals(cluster)
        assert batched > 0, "trickle commits hung waiting for epoch members"
        assert epochs > 0
        _quiesce_and_check(cluster)

    def test_default_config_commits_size_one_epochs(self):
        cluster = _make_cluster(CostConfig())
        cluster.start_browsers(8, MIXES["ordering"], SCALE, think_time_mean=0.2)
        cluster.run(until=15.0)
        _quiesce_and_check(cluster)
        epochs, batched = _epoch_totals(cluster)
        write_sets = sum(
            node.counters.snapshot().get("master.write_sets", 0)
            for node in cluster.nodes.values()
        )
        assert len(cluster.commit_log) > 0
        assert epochs == write_sets
        assert batched == len(cluster.commit_log)
        assert all(epoch.sealed for epoch in cluster.pipeline.epochs.values())


class TestAdmissionControl:
    def test_update_mpl_bound_holds_throughout(self):
        cluster = _make_cluster(EPOCH_COST)
        router, admit, grants = cluster.router, cluster.router.admit_update, []

        def recording_admit(tables, tenant="default", deadline=None):
            """Check the bound at every grant."""
            node, slot = yield from admit(tables, tenant, deadline)
            grants.append((slot, router.in_flight[node.node_id]))
            return node, slot

        router.admit_update = recording_admit
        cluster.start_browsers(32, MIXES["ordering"], SCALE, think_time_mean=0.2)
        cluster.run(until=20.0)
        # Every update was admitted through a slot of its master.
        assert grants and all(slot is not None for slot, _ in grants)
        assert router.bound == EPOCH_COST.update_mpl
        assert all(in_use <= EPOCH_COST.update_mpl for _, in_use in grants)
        # The load was heavy enough that the bound actually bit.
        assert max(in_use for _, in_use in grants) == EPOCH_COST.update_mpl
        _quiesce_and_check(cluster)
        assert set(router.in_flight.values()) == {0}  # no slot leaked


# test id -> registered plan: every replication feature that used to be
# exercised only at epoch size one, composed with batching epochs.
COMPOSED_PLANS = {
    "default": "default",
    "durability": "durability",
    "straggler-quorum": "straggler",
}


def _composed_run(plan_name, epoch_max_txns, seed, duration=60.0):
    plan = PLANS[COMPOSED_PLANS[plan_name]]
    cost = replace(
        plan.cost,
        epoch_max_txns=epoch_max_txns,
        epoch_ms=5.0 if epoch_max_txns > 1 else 0.0,
    )
    plan = replace(plan, cost=cost, settle=15.0, browsers=12)
    return run_plan(plan, seed=seed, duration=duration)


class TestEpochComposition:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("epoch_max_txns", [1, 4])
    @pytest.mark.parametrize("plan_name", sorted(COMPOSED_PLANS))
    def test_invariants_and_determinism(self, plan_name, epoch_max_txns, seed):
        report = _composed_run(plan_name, epoch_max_txns, seed)
        assert report.ok(), [str(r) for r in report.invariants if not r.ok]
        assert report.completed > 0
        epochs = report.counters.get("engine.epochs", 0)
        batched = report.counters.get("engine.epoch_batched_commits", 0)
        assert 0 < epochs <= batched
        again = _composed_run(plan_name, epoch_max_txns, seed)
        assert again.fingerprint == report.fingerprint
