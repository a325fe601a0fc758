"""Differential test: the synchronous driver vs the simulated driver.

Both drivers run the same timing-free protocol core (``repro.cluster.
protocol`` + ``MasterReplica``/``SlaveReplica``); the simulator only adds
virtual time and a transport.  So one seeded, *sequential* stream of TPC-W
interactions must leave both clusters in the same state: same confirmed
version vector, same page contents on every replica (slaves brought to the
final vector first), same row counts, same number of write-sets published
by every master — also when a master is killed in the middle of the stream.
Both sides run their defaults: every master either driver builds, promotees
and dual-role masters included, runs OCC read validation.
"""

import pytest

from repro.cluster.clients import SimConnection
from repro.cluster.simcluster import SimDmvCluster
from repro.cluster.sync import SyncDmvCluster
from repro.common.rng import RngStream
from repro.core.dual import DualController
from repro.engine.engine import OccReadValidation
from repro.tpcw import (
    INTERACTIONS,
    MIXES,
    TPCW_SCHEMAS,
    InteractionContext,
    TpcwDataGenerator,
    TpcwScale,
    run_sync,
    tpcw_conflict_map,
)
from repro.tpcw.interactions import SharedSequences

SCALE = TpcwScale(num_items=60, num_customers=173)
STREAM_LENGTH = 300
ROWS_PER_PAGE = 64  # the embedded engines' default


def interaction_stream(seed):
    rng = RngStream(seed, "differential-stream")
    return [MIXES["ordering"].pick(rng) for _ in range(STREAM_LENGTH)]


def make_ctx(seed):
    """One session per side, built identically (and with a frozen clock)."""
    return InteractionContext(
        rng=RngStream(seed, "differential-ctx"),
        scale=SCALE,
        sequences=SharedSequences(SCALE),
        now=lambda: 0.0,
        customer_id=5,
    )


def cluster_kwargs(multi_master):
    kwargs = dict(num_slaves=2, seed=3)
    if multi_master:
        kwargs.update(multi_master=True, conflict_map=tpcw_conflict_map(multi_master=True))
    return kwargs


def run_on_sync(stream, seed, multi_master, kill_at):
    cluster = SyncDmvCluster(TPCW_SCHEMAS, now=lambda: 0.0, **cluster_kwargs(multi_master))
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    ctx, conn = make_ctx(seed), cluster.connect()
    for index, name in enumerate(stream):
        if index == kill_at:
            cluster.kill_master("m0")
        run_sync(INTERACTIONS[name](conn, ctx))
    return cluster


def run_on_sim(stream, seed, multi_master, kill_at):
    cluster = SimDmvCluster(
        TPCW_SCHEMAS, rows_per_page=ROWS_PER_PAGE, **cluster_kwargs(multi_master)
    )
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    cluster.warm_all_caches()
    ctx = make_ctx(seed)
    finished = []

    def scripted_client():
        for index, name in enumerate(stream):
            if index == kill_at:
                cluster.kill_node("m0")
                # Sit out detection + cleanup + promotion, as the inline
                # driver's kill_master() does by returning only when done.
                yield cluster.sim.timeout(15.0)
            yield from INTERACTIONS[name](SimConnection(cluster), ctx)
        finished.append(cluster.sim.now())

    cluster.sim.spawn(scripted_client(), name="scripted-client")
    cluster.run(until=600.0)
    assert finished, "the scripted client did not get through the stream"
    assert cluster.metrics.retried == 0
    return cluster


def replica_state(cluster):
    """{node: {table: [(page, slot, row), ...]}} of every alive replica,
    with every slave role first brought to the final version vector."""
    state = {}
    for node_id, node in cluster.nodes.items():
        if not node.alive:
            continue
        if node.slave is not None:
            node.slave.apply_all_pending()
        tables = {}
        for page in sorted(node.engine.store.all_pages(), key=lambda p: str(p.page_id)):
            rows = tables.setdefault(page.page_id.table, [])
            rows.extend((str(page.page_id), slot, row) for slot, row in page.iter_live())
        state[node_id] = tables
    return state


@pytest.mark.parametrize("kill_at", [None, STREAM_LENGTH // 2], ids=["steady", "master-kill"])
@pytest.mark.parametrize("multi_master", [False, True], ids=["1-master", "2-master"])
def test_sync_and_sim_drivers_agree(multi_master, kill_at):
    seed = 17
    stream = interaction_stream(seed)
    assert len(set(stream)) > 5  # a real mix, reads and updates
    sync = run_on_sync(stream, seed, multi_master, kill_at)
    sim = run_on_sim(stream, seed, multi_master, kill_at)

    assert sim.scheduler.latest.as_dict() == sync.scheduler.latest.as_dict()
    assert sync.scheduler.latest.total() > 50  # the stream really wrote

    sync_state, sim_state = replica_state(sync), replica_state(sim)
    assert sorted(sim_state) == sorted(sync_state)  # same survivors, same ids
    for node_id in sync_state:
        for table in sorted(set(sync_state[node_id]) | set(sim_state[node_id])):
            assert sim_state[node_id].get(table) == sync_state[node_id].get(table), (
                f"{table} differs on {node_id}"
            )
    # Replicas of one cluster agree with each other too (row counts follow).
    reference = next(iter(sync_state.values()))
    for node_id, tables in sync_state.items():
        assert {t: len(r) for t, r in tables.items()} == {
            t: len(r) for t, r in reference.items()
        }, node_id

    for node_id in sync.nodes:
        assert sim.nodes[node_id].counters.get("master.write_sets") == sync.nodes[
            node_id
        ].counters.get("master.write_sets"), node_id
    masters = lambda cluster: sorted(  # noqa: E731
        n.node_id for n in cluster.nodes.values() if n.alive and n.master is not None
    )
    assert masters(sim) == masters(sync)
    if kill_at is not None:
        assert "m0" not in masters(sync) and "s0" in masters(sync)
    # One concurrency control on both sides, or the oracle compares two
    # configurations: the promotee and every dual-role master included.
    for cluster in (sync, sim):
        for node_id in masters(cluster):
            controller = cluster.nodes[node_id].engine.controller
            if multi_master:
                assert isinstance(controller, DualController), node_id
                controller = controller.occ
            assert isinstance(controller, OccReadValidation), node_id
