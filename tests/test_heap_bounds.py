"""Heap ratchet: what a full garbage collection has to walk.  No timing.

The sibling of ``test_write_path_calls.py`` for the other half of the host
cost: CPython's cyclic collector walks every GC-tracked object each time the
tracked heap grows by a quarter, so what the simulator keeps alive — not
just what it does per op — is paid for again and again.  A short, quiesced
ordering-mix run on two masters and four slaves pins:

* nothing is retained for history alone: the replication channels hold no
  acked sends and the scheduler's query log (which no simulated consumer
  reads) holds no entries;
* a page has one id object cluster-wide, which every replica keys it by;
* an index bucket is a flat list whose only tracked elements are location
  tuples (no per-entry object);
* tracked objects per row: per bulk-loaded row replica, and per row replica
  inserted between a run of T and a run of 2T sim-s — so the heap grows with
  the data, not with run length.  Measured on CPython 3.11: 1.38 and 3.00
  with one flat tuple per index key (1.39 and 3.04 with a tuple per key
  column and one around them; 1.52 and 4.29 with a bucket list, a queue list and a slot list built per
  slave for every key and page a write-set gives it; 3.09 per bulk-loaded row
  replica with every replica's slot lists and buckets copied instead of
  frozen and shared; 5.47 and 12.3 with an entry object per index fact, a
  ``PageId`` per page per replica, a queue tuple per op per slave, and every
  write-set sent and update query logged kept alive);
* bytes per bulk-loaded row replica at one row per page, under
  ``tracemalloc``: a copied replica shares the loaded one's frozen slots,
  buckets and checkpoint images and pays only for its own pages, dicts and
  tree nodes.  Measured on CPython 3.11: 455 B with one flat tuple per index
  key (473 B with a tuple per key column and one around them; 483 B with a
  bucket list per key; 799 B copying them);
* bytes per inserted row replica, the same T / 2T runs at one row per page
  (the benchmark's layout, where every inserted row is a page no slave
  reader touches, so its ops stay buffered) under ``tracemalloc``: object
  counts cannot tell a pending queue's ``deque`` from its ``list``, bytes
  can.  Measured on CPython 3.11: 942 B with one flat tuple per index key
  (984 B with a tuple per key column and one around them; 1,201 B with the
  per-slave lists above; 1,807 B with a ``deque`` per pending page);
* what a write-set gives the slaves is built once and shared: slaves fed one
  insert hold one bucket object for its new keys, one queue head for its page
  and one empty slot image for the page they allocated on receipt.
"""

import gc
import tracemalloc

import pytest

from repro.cluster.simcluster import SimDmvCluster
from repro.core import MasterReplica, SlaveReplica
from repro.engine import Column, HeapEngine, IndexDef, TableSchema, make_update_controller
from repro.engine.indexes import encode_key, entries
from repro.storage.page import empty_slots
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale, tpcw_conflict_map

SCALE = TpcwScale(num_items=40, num_customers=144)
RUN_SIM_S = 15.0
SETTLE_SIM_S = 25.0
BULK_BUDGET = 2.0  # tracked objects per bulk-loaded row, per replica
BULK_BYTES_BUDGET = 580  # traced bytes per bulk-loaded row, per replica, one row per page
GROWTH_BUDGET = 3.75  # tracked objects per inserted row, per replica
GROWTH_BYTES_BUDGET = 1050  # traced bytes per inserted row, per replica, one row per page


def tracked_heap() -> int:
    gc.collect()
    return len(gc.get_objects())


def traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def build(**cluster_kwargs) -> SimDmvCluster:
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        num_slaves=4,
        multi_master=True,
        num_masters=2,
        conflict_map=tpcw_conflict_map(multi_master=True),
        seed=0,
        **cluster_kwargs,
    )
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    return cluster


def run_quiesced(cluster: SimDmvCluster, sim_s: float) -> SimDmvCluster:
    cluster.start_browsers(40, MIXES["ordering"], SCALE, think_time_mean=0.3)
    cluster.sim.schedule(sim_s, cluster.stop_browsers)
    cluster.run(until=sim_s + SETTLE_SIM_S)
    assert cluster.metrics.completed > 1000 and cluster.metrics.failed == 0
    return cluster


def row_replicas(cluster: SimDmvCluster) -> int:
    """Rows summed over every replica of every table."""
    return sum(sum(node.engine.row_counts().values()) for node in cluster.nodes.values())


def index_buckets(engine):
    for table in engine.tables.values():
        yield from table.pk_index._buckets.values()
        for index in table.indexes.values():
            for _key, bucket in index._tree.items():
                yield bucket


@pytest.fixture(scope="module")
def quiesced():
    return run_quiesced(build(), RUN_SIM_S)


def test_nothing_is_retained_for_history(quiesced):
    assert quiesced.pipeline.channels
    for channel in quiesced.pipeline.channels.values():
        assert not any(pending.ack.triggered for pending in channel._unacked)
        assert not channel._unacked  # and, quiesced, nothing in flight
    for agent in quiesced.schedulers:
        assert agent.scheduler.query_log._entries == []


def test_every_replica_keys_a_page_by_one_id_object(quiesced):
    nodes = list(quiesced.nodes.values())
    masters = [node for node in nodes if node.master is not None]
    assert len(masters) == 2 and len(nodes) == 6
    keys = [{key: key for key in node.engine.store.page_map()} for node in nodes]
    for master in masters:
        pages = master.engine.store.page_map()
        assert len(pages) > 50
        for page_id in pages:
            for node, node_keys in zip(nodes, keys):
                assert node_keys[page_id] is page_id
                assert node.engine.store.get(page_id).page_id is page_id


def test_bucket_elements_are_immutable_but_for_locations(quiesced):
    gc.collect()
    for node in quiesced.nodes.values():
        for bucket in index_buckets(node.engine):
            assert bucket and len(bucket) % 4 == 0
            for loc, insert_v, delete_v, writer in entries(bucket):
                assert type(loc) is tuple and len(loc) == 2
                assert not any(gc.is_tracked(v) for v in (insert_v, delete_v, writer))


def test_tracked_objects_grow_with_rows_not_with_run_length():
    base = tracked_heap()
    cluster = build()
    loaded = row_replicas(cluster)
    bulk = tracked_heap() - base
    assert bulk <= loaded * BULK_BUDGET, f"{bulk} tracked for {loaded} row replicas"

    run_quiesced(cluster, RUN_SIM_S)
    after_t, rows_t = tracked_heap() - base, row_replicas(cluster)
    cluster = None
    cluster = run_quiesced(build(), 2 * RUN_SIM_S)
    after_2t, rows_2t = tracked_heap() - base, row_replicas(cluster)
    inserted = rows_2t - rows_t
    assert inserted > 1000
    grown = after_2t - after_t
    assert grown <= inserted * GROWTH_BUDGET, f"{grown} tracked for {inserted} inserted"


def test_bulk_loaded_rows_share_what_no_replica_wrote():
    tracemalloc.start()
    try:
        base = traced_bytes()
        cluster = build(rows_per_page=1)
        bulk, loaded = traced_bytes() - base, row_replicas(cluster)
    finally:
        tracemalloc.stop()
    assert bulk <= loaded * BULK_BYTES_BUDGET, f"{bulk} B for {loaded} row replicas"


def test_retained_bytes_grow_with_rows_not_with_run_length():
    tracemalloc.start()
    try:
        cluster = run_quiesced(build(rows_per_page=1), RUN_SIM_S)
        after_t, rows_t = traced_bytes(), row_replicas(cluster)
        cluster = None
        cluster = run_quiesced(build(rows_per_page=1), 2 * RUN_SIM_S)
        after_2t, rows_2t = traced_bytes(), row_replicas(cluster)
    finally:
        tracemalloc.stop()
    inserted = rows_2t - rows_t
    assert inserted > 1000
    grown = after_2t - after_t
    assert grown <= inserted * GROWTH_BYTES_BUDGET, f"{grown} B for {inserted} inserted"


def slaves_fed_one_write_set(num_slaves, write):
    """``num_slaves`` slaves (one row per page, holding row 1 of a small
    indexed table like their master) that received the one write-set
    ``write(table, txn)`` made on the master; returns ``(slaves, write_set)``."""
    schema = TableSchema(
        "item", [Column("i_id", "int", nullable=False), Column("i_title", "str")],
        primary_key=("i_id",), indexes=[IndexDef("ix_title", ("i_title",))],
    )
    master = MasterReplica("m0", HeapEngine(make_update_controller(), rows_per_page=1))
    slaves = [SlaveReplica(f"s{i}", HeapEngine(rows_per_page=1)) for i in range(num_slaves)]
    for engine in [master.engine] + [slave.engine for slave in slaves]:
        engine.create_table(schema)
        engine.bulk_load("item", [{"i_id": 1, "i_title": "old"}])
    txn = master.begin_update()
    write(master.engine.table("item"), txn)
    write_set = master.pre_commit(txn)
    master.finalize(txn)
    for slave in slaves:
        slave.receive(write_set)
    return slaves, write_set


def test_slaves_fed_one_insert_share_what_it_gave_them():
    slaves, write_set = slaves_fed_one_write_set(
        3, lambda table, txn: table.insert_row(txn, {"i_id": 7, "i_title": "t"})
    )
    (op,) = write_set.ops
    tables = [slave.engine.table("item") for slave in slaves]
    pk_buckets = {id(table.pk_index._buckets.get(encode_key((7,)))) for table in tables}
    title_buckets = {id(table.index("ix_title")._tree.get(encode_key(("t",)))) for table in tables}
    assert len(pk_buckets) == 1 and pk_buckets == title_buckets  # one object, every slave and index
    bucket = tables[0].pk_index._buckets.get(encode_key((7,)))
    assert list(entries(bucket)) == [(op.loc, write_set.versions["item"], None, None)]
    assert {id(slave.pending[op.page_id]) for slave in slaves} == {id(write_set.queue_heads[0])}
    for slave in slaves:  # received, never read: the one empty image
        assert slave.engine.store.get(op.page_id).slots is empty_slots(1)
