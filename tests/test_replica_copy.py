"""Load once, copy into the rest: the copy must be indistinguishable.

Every multi-replica loader bulk-loads (and checkpoints) its first replica
and copies the result into the others.  These tests pin what makes that
safe: a copy *equals* an independent load down to tree shape and counters
(and goes on behaving like one), it *shares nothing mutable* with its source
or siblings, and the loaders really do the row-by-row work once.  Slaves fed
the same write-sets share what those give them (queue heads, index entries,
empty page images) under the same rule.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.simcluster import SimDmvCluster
from repro.cluster.sync import SyncDmvCluster
from repro.common.errors import SchemaError
from repro.common.ids import PageId
from repro.common.versions import VersionVector
from repro.core import MasterReplica, SlaveReplica
from repro.engine import (
    Column, HeapEngine, IndexDef, Table, TableSchema, bulk_load_replicas, make_update_controller,
)
from repro.engine.indexes import entries
from repro.storage.checkpoint import FuzzyCheckpointer, PageImage, StableStore
from repro.storage.page import PageStore
from repro.tpcw import TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

COLUMNS = [
    Column("id", "int", nullable=False),
    Column("a", "int"),
    Column("b", "str"),
    Column("c", "float"),
]
INDEX_CHOICES = [("a",), ("b",), ("b", "a"), ("c", "id")]


class Replica:
    """An engine with its stable store, as every cluster node pairs them,
    and the slave that owns the engine, if one does."""

    slave = None

    def __init__(self, schema, rows_per_page=64, engine=None):
        self.engine = engine if engine is not None else HeapEngine(rows_per_page=rows_per_page)
        self.engine.create_table(schema)
        self.stable = StableStore(self.engine.counters)
        self.checkpointer = FuzzyCheckpointer(self.engine.store, self.stable)

    def checkpoint(self):
        return self.checkpointer.full_checkpoint(self.engine.page_is_dirty)


# -- full structural description ------------------------------------------------------
def describe_page(page):
    return (page.page_id, page.capacity, tuple(page.slots), page.version,
            page.stamp, page.live_rows, page._free_hint)


def describe_bucket(bucket):
    return list(entries(bucket))


def describe_tree(tree):
    def walk(node, parent):
        if node is tree.nil:
            return None
        assert node.parent is parent
        return (node.key, node.color, describe_bucket(node.value),
                walk(node.left, node), walk(node.right, node))

    return (walk(tree.root, tree.nil), tree.size, tree.rotations)


def describe_engine(engine):
    store = engine.store
    for pages in store._per_table.values():
        assert all(store._pages[page.page_id] is page for page in pages)
    tables = {}
    for name, table in engine.tables.items():
        assert all(store._pages[page.page_id] is page for page in table._nonfull)
        tables[name] = (
            table.row_count,
            [page.page_id for page in table._nonfull],
            [(key, describe_bucket(b)) for key, b in table.pk_index._buckets.items()],
            table.pk_index.entry_count,
            {n: (describe_tree(ix._tree), ix.entry_count) for n, ix in table.indexes.items()},
        )
    return {
        "pages": [describe_page(page) for page in store._pages.values()],
        "per_table": {t: [p.page_id for p in pages] for t, pages in store._per_table.items()},
        "tables": tables,
        "versions": engine.versions.as_dict(),
        "counters": list(engine.counters.snapshot().items()),
    }


def describe_checkpoint(checkpointer):
    stable = checkpointer.stable

    def images(generation):
        return [
            (pid, image.page_id, image.version, image.checksum, image.verify(),
             describe_page(image.page))
            for pid, image in generation.items()
        ]

    return (images(stable._images), images(stable._previous), stable.flushes,
            list(checkpointer._cursor))


def describe_slave(slave):
    """Pending queues by value, the counts kept beside them, what was received."""
    if slave is None:
        return None
    return (
        [(page_id, list(queue)) for page_id, queue in slave.pending.items()],
        slave.pending_ops,
        slave.received_versions.as_dict(),
        sorted(slave._seen_write_sets),
        slave.catching_up,
    )


def describe(replica):
    return (describe_engine(replica.engine), describe_checkpoint(replica.checkpointer),
            describe_slave(replica.slave))


def reachable_parts(replica):
    """Every container a replica reaches, by ``id()``: pages and their
    slots, page lists and dicts, buckets, tree nodes, checkpoint images and
    a slave's pending queues.

    An image is frozen as a whole, so the walk stops at it (a shared image's
    snapshot page is reached through it alone and has frozen slots).
    """
    parts = {}

    def reach(*objects):
        parts.update((id(obj), obj) for obj in objects)

    store = replica.engine.store
    reach(store._pages, store._per_table, *store._per_table.values())
    for page in store._pages.values():
        reach(page, page.slots)
    for table in replica.engine.tables.values():
        reach(table._nonfull, table.pk_index._buckets, *table.pk_index._buckets.values())
        for index in table.indexes.values():
            stack = [index._tree.root]
            while stack:
                node = stack.pop()
                if node is not index._tree.nil:
                    reach(node, node.value)  # a bucket's elements are immutable
                    stack += [node.left, node.right]
    for generation in (replica.stable._images, replica.stable._previous):
        reach(generation, *generation.values())
        assert all(type(image.page.slots) is tuple for image in generation.values())
    if replica.slave is not None:  # a queue's (version, op) entries are immutable
        reach(replica.slave.pending, *replica.slave.pending.values())
    return parts


def is_frozen(obj):
    """A tuple (frozen slots, bucket or queue) or a frozen dataclass (``PageImage``)."""
    if type(obj) is tuple:
        return True
    params = getattr(type(obj), "__dataclass_params__", None)
    return params is not None and params.frozen


def mutable_parts(replica):
    """``id()`` of everything a replica may mutate in place later.

    Frozen slots, buckets, images and queue heads are not: replicas set up by
    copy or fed the same write-sets share them by design (see
    :func:`assert_only_frozen_is_shared`).
    """
    return {key for key, obj in reachable_parts(replica).items() if not is_frozen(obj)}


def assert_only_frozen_is_shared(*replicas):
    """Every object reachable from two of ``replicas`` is immutable."""
    seen = {}
    for replica in replicas:
        for key, obj in reachable_parts(replica).items():
            seen.setdefault(key, [obj, 0])[1] += 1
    shared = [obj for obj, holders in seen.values() if holders > 1]
    assert all(is_frozen(obj) for obj in shared), [
        type(obj).__name__ for obj in shared if not is_frozen(obj)
    ]
    return shared


# -- (a) equivalence --------------------------------------------------------------------
@st.composite
def loads(draw):
    """A schema, ``rows_per_page`` and the rows, split into one or two loads."""
    indexes = draw(st.lists(st.sampled_from(INDEX_CHOICES), unique=True, max_size=3))
    schema = TableSchema(
        "t", COLUMNS, primary_key=("id",),
        indexes=[IndexDef("ix_" + "_".join(cols), cols) for cols in indexes],
    )
    ids = draw(st.lists(st.integers(0, 200), unique=True, max_size=40))
    rows = [
        {
            "id": row_id,
            "a": draw(st.none() | st.integers(0, 3)),
            "b": draw(st.none() | st.sampled_from(["x", "y", "zz"])),
            "c": draw(st.sampled_from([0, 1.5, 2.0])),
        }
        for row_id in ids
    ]
    cut = draw(st.integers(0, len(rows)))
    batches = [rows[:cut], rows[cut:]] if draw(st.booleans()) else [rows]
    return schema, draw(st.sampled_from([1, 2, 3, 64])), batches


def mutate(replica, fresh_id):
    """One committed transaction: an update of an indexed column, a delete, an insert."""
    engine = replica.engine
    table = engine.table("t")
    txn = engine.begin()
    locs = [loc for loc, _row in table.scan(txn)]
    if locs:
        table.update_row(txn, locs[0], {"a": 9, "b": "moved"})
        table.delete_row(txn, locs[-1])
    table.insert_row(txn, {"id": fresh_id, "a": 1, "b": "x", "c": 0.5})
    engine.commit(txn)


@settings(max_examples=60, deadline=None)
@given(loads())
def test_copied_replica_equals_an_independently_loaded_one(load):
    schema, rows_per_page, batches = load
    alone = Replica(schema, rows_per_page)
    source, copy = Replica(schema, rows_per_page), Replica(schema, rows_per_page)
    for batch in batches:
        assert alone.engine.bulk_load("t", batch) == len(batch)
        assert bulk_load_replicas([source.engine, copy.engine], "t", batch) == len(batch)
    flushed = source.checkpoint()
    assert alone.checkpoint() == copy.checkpointer.copy_from(source.checkpointer) == flushed
    assert describe(copy) == describe(alone) == describe(source)
    assert not mutable_parts(copy) & mutable_parts(source)
    assert_only_frozen_is_shared(copy, source)
    # ... and it stays equal: same tree walks, rotations, slot choices, flushes.
    for replica in (copy, alone):
        mutate(replica, fresh_id=1000)
        replica.checkpoint()
    assert describe(copy) == describe(alone)
    for index in copy.engine.table("t").indexes.values():
        index._tree.check_invariants()


def test_copy_of_the_tpcw_dataset_through_the_cluster_loader():
    """``SimDmvCluster.load``: every node equals a node that loaded for itself."""
    scale = TpcwScale(num_items=30, num_customers=58)

    def cluster_of(num_slaves):
        cluster = SimDmvCluster(TPCW_SCHEMAS, num_slaves=num_slaves, rows_per_page=4)
        cluster.load(TpcwDataGenerator(scale, seed=42))
        return cluster

    loaded_itself = cluster_of(1).nodes["m0"]  # the first node always does
    reference = describe(loaded_itself)[:2]  # engine and checkpoint: a master has no queues
    nodes = list(cluster_of(3).nodes.values())
    for node in nodes:
        assert describe(node)[:2] == reference
    for node, other in zip(nodes, nodes[1:]):
        assert not mutable_parts(node) & mutable_parts(other)
    assert assert_only_frozen_is_shared(*nodes)  # and the image is shared, not copied


# -- (b) isolation ------------------------------------------------------------------------
ITEM = TableSchema(
    "item",
    [Column("i_id", "int", nullable=False), Column("i_title", "str"), Column("i_stock", "int")],
    primary_key=("i_id",),
    indexes=[IndexDef("ix_title", ("i_title",)), IndexDef("ix_stock", ("i_stock", "i_id"))],
)


def test_mutating_one_replica_leaves_source_and_siblings_untouched():
    master = MasterReplica("m0")
    slaves = [SlaveReplica("s0"), SlaveReplica("s1")]
    m0, s0, s1 = replicas = [Replica(ITEM, engine=r.engine) for r in [master] + slaves]
    rows = [{"i_id": i, "i_title": f"b{i % 7}", "i_stock": i % 3} for i in range(150)]
    bulk_load_replicas([r.engine for r in replicas], "item", rows)
    m0.checkpoint()
    for replica in (s0, s1):
        replica.checkpointer.copy_from(m0.checkpointer)
    pristine = describe(s1)
    assert describe(m0) == describe(s0) == pristine

    # The source commits updates, deletes and inserts; one slave receives them.
    table = master.engine.table("item")
    txn = master.begin_update()
    for i_id in (3, 4, 5):
        (loc,) = table.pk_lookup(txn, (i_id,))
        table.update_row(txn, loc, {"i_title": "retitled", "i_stock": 40 + i_id})
    for i_id in (10, 11):
        (loc,) = table.pk_lookup(txn, (i_id,))
        table.delete_row(txn, loc)
    for i_id in (500, 501):
        table.insert_row(txn, {"i_id": i_id, "i_title": "new", "i_stock": 1})
    write_set = master.pre_commit(txn)
    slaves[0].receive(write_set)  # eager index maintenance on s0 only
    master.finalize(txn)
    assert describe(m0) != pristine and describe(s0) != pristine
    assert describe(s1) == pristine

    # Master-failure cleanup on s0 reverts its index entries — nobody else's.
    source_now = describe(m0)
    assert slaves[0].discard_above(VersionVector()) == len(write_set.ops)
    assert describe(s1) == pristine and describe(m0) == source_now

    # A latent disk fault on s0 is s0's alone.
    page_id = PageId("item", 0)
    assert s0.stable.corrupt_page(page_id)
    assert not s0.stable.load(page_id).verify()
    assert m0.stable.load(page_id).verify() and s1.stable.load(page_id).verify()
    assert describe(s1) == pristine and describe(m0) == source_now

    # A sibling applying the write-set for real changes neither of the others.
    s0_now = describe(s0)
    slaves[1].receive(write_set)
    for page_id in list(slaves[1].pending):
        slaves[1].materialize_fully(page_id)
    s1.checkpoint()
    assert describe(s1) != pristine
    assert describe(m0) == source_now and describe(s0) == s0_now


def copied_holders(rows_per_page):
    """A master and three slaves set up by copy, checkpoint included, plus
    a feeding master loaded on its own (its write-sets drive the slaves)."""
    def master_of(node_id):
        controller = make_update_controller()
        return MasterReplica(node_id, HeapEngine(controller, rows_per_page=rows_per_page))

    master = master_of("m0")
    slaves = [SlaveReplica(f"s{i}", HeapEngine(rows_per_page=rows_per_page)) for i in range(3)]
    holders = [Replica(ITEM, engine=r.engine) for r in [master] + slaves]
    for holder, slave in zip(holders[1:], slaves):
        holder.slave = slave
    rows = [{"i_id": i, "i_title": f"b{i % 5}", "i_stock": i % 3} for i in range(24)]
    bulk_load_replicas([r.engine for r in holders], "item", rows)
    holders[0].checkpoint()
    for replica in holders[1:]:
        replica.checkpointer.copy_from(holders[0].checkpointer)
    feeder = master_of("f")
    feeder.engine.create_table(ITEM)
    feeder.engine.bulk_load("item", rows)
    return master, slaves, holders, feeder


def write_some(engine, txn, live, data, next_id):
    """Random inserts, indexed and unindexed updates and deletes in ``txn``."""
    table = engine.table("item")
    for _ in range(data.draw(st.integers(1, 4), label="statements")):
        kind = data.draw(st.sampled_from(["insert", "update", "delete"]), label="kind")
        if kind == "insert" or not live:
            table.insert_row(txn, {"i_id": next_id[0], "i_title": "new", "i_stock": 1})
            live.add(next_id[0])
            next_id[0] += 1
            continue
        i_id = data.draw(st.sampled_from(sorted(live)), label="row")
        (loc,) = table.pk_lookup(txn, (i_id,))
        if kind == "update":
            changes = data.draw(st.sampled_from(
                [{"i_stock": 7}, {"i_title": "retitled"}, {"i_title": "b1", "i_stock": 0}]
            ), label="changes")
            table.update_row(txn, loc, changes)
        else:
            table.delete_row(txn, loc)
            live.discard(i_id)


MASTER_WRITERS = ["commit", "revert", "gc", "flush", "corrupt-recover"]
SLAVE_WRITERS = ["receive", "materialize", "drain", "discard", "gc", "flush",
                 "corrupt-recover", "receive-page", "catch-up"]


def feed(feeder, slaves, live, data, next_id):
    """One write-set of random writes from ``feeder``, received by ``slaves``."""
    txn = feeder.begin_update()
    write_some(feeder.engine, txn, live, data, next_id)
    write_set = feeder.pre_commit(txn)
    feeder.finalize(txn)
    for slave in slaves:
        slave.receive(write_set)
    return feeder.current_versions()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 4, 64]), st.booleans(), st.data())
def test_every_writer_on_one_holder_leaves_the_others_untouched(rows_per_page, on_slave, data):
    """Replicas set up by copy share frozen slots, buckets and images, and
    slaves fed the same write-sets share the queue heads, index entries and
    empty page images those give them; each writer must thaw its own before
    it writes.  The slaves are fed alike, then one holder takes a random
    sequence of every writer it has; the others must not move at all."""
    master, slaves, holders, feeder = copied_holders(rows_per_page)
    live = set(range(24))  # rows of the holder (master) or of the feeder (slave)
    next_id = [100]
    history = [feeder.current_versions()]
    for _ in range(data.draw(st.integers(0, 3), label="fed alike")):
        history.append(feed(feeder, slaves, live, data, next_id))
    if not on_slave:
        live = set(range(24))
    target = holders[1] if on_slave else holders[0]
    witnesses = [replica for replica in holders if replica is not target]
    pristine = [describe(replica) for replica in witnesses]
    engine, stable = target.engine, target.stable
    fed = True  # until a discard: the slave has received all the feeder wrote
    # A slave collects or drains up to versions the cluster has confirmed,
    # and the confirmed vector a discard is given never falls below them: a
    # discard draws only from history at or after the last of those.
    confirmed_floor = 0

    steps = data.draw(st.lists(
        st.sampled_from(SLAVE_WRITERS if on_slave else MASTER_WRITERS), min_size=1, max_size=12,
    ), label="writers")
    for step in steps:
        if step in ("commit", "revert"):
            txn = engine.begin()
            written = set(live)
            write_some(engine, txn, written, data, next_id)
            if step == "commit":
                engine.commit(txn)
                live = written
            else:
                engine.abort(txn)
        elif step == "receive" and fed:
            history.append(feed(feeder, slaves[:1], live, data, next_id))
        elif step == "materialize" and slaves[0].pending:
            page_id = data.draw(st.sampled_from(sorted(slaves[0].pending)), label="page")
            slaves[0].materialize_fully(page_id)
        elif step == "drain":
            drained = data.draw(st.integers(confirmed_floor, len(history) - 1), label="drain")
            slaves[0].drain_to(history[drained])
            confirmed_floor = drained
        elif step == "discard":
            confirmed = data.draw(st.sampled_from(history[confirmed_floor:]), label="confirmed")
            slaves[0].discard_above(confirmed)
            fed = False
        elif step == "gc" and on_slave:
            slaves[0].gc_versions(feeder.current_versions())
            confirmed_floor = len(history) - 1
        elif step == "catch-up" and slaves[0].catching_up:
            slaves[0].finish_catchup()  # rebuilds indexes, re-applies what is queued
        elif step == "catch-up":
            slaves[0].catching_up = True  # receives skip the indexes until finished
        elif step == "gc":
            master.engine.gc_index_entries(master.current_versions())
        elif step == "flush":
            page = data.draw(st.sampled_from(list(engine.store.all_pages())), label="flush")
            if not engine.page_is_dirty(page):
                stable.flush_page(page)
        elif step == "corrupt-recover":
            page_id = data.draw(st.sampled_from(sorted(stable._images)), label="corrupt")
            assert stable.corrupt_page(page_id)
            restarted = PageStore(engine.store.rows_per_page)
            stable.recover_into(restarted)
            for page in restarted.all_pages():  # writes land in the restarted copy only
                if page.live_rows:
                    page.put(next(slot for slot, _row in page.iter_live()), None)
        elif step == "receive-page" and fed:
            page = data.draw(st.sampled_from(list(feeder.engine.store.all_pages())), label="page")
            slaves[0].receive_page(PageImage(page.page_id, page.version, page.snapshot()))
        assert [describe(replica) for replica in witnesses] == pristine, step
    assert_only_frozen_is_shared(*witnesses)


# -- (c) the work is done once ----------------------------------------------------------------
@pytest.fixture
def work(monkeypatch):
    """Counts ``Table.bulk_load`` and ``StableStore.flush_page`` calls."""
    calls = {"bulk_load": 0, "flush_page": 0}

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(Table, "bulk_load")
    counting(StableStore, "flush_page")
    return calls


@pytest.mark.parametrize("replicas", [2, 5])
def test_sim_cluster_loads_and_checkpoints_once(work, replicas):
    cluster = SimDmvCluster(TPCW_SCHEMAS, num_slaves=replicas - 1, rows_per_page=4)
    cluster.load(TpcwDataGenerator(TpcwScale(num_items=30, num_customers=58), seed=42))
    assert len(cluster.nodes) == replicas
    pages = cluster.nodes["m0"].engine.store.page_count()
    assert work == {"bulk_load": len(TPCW_SCHEMAS), "flush_page": pages}
    for node in cluster.nodes.values():
        assert node.engine.store.page_count() == len(node.stable) == pages
        assert node.counters.get("checkpoint.pages_flushed") == pages


@pytest.mark.parametrize("replicas", [2, 5])
def test_sync_cluster_loads_once(work, replicas):
    cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=replicas - 2, num_disk_backends=1)
    counts = cluster.load(TpcwDataGenerator(TpcwScale(num_items=30, num_customers=58), seed=42))
    assert len(cluster.nodes) + len(cluster.disk_backends) == replicas
    assert work == {"bulk_load": len(TPCW_SCHEMAS), "flush_page": 0}
    engines = [n.engine for n in cluster.nodes.values()] + [d.engine for d in cluster.disk_backends]
    for engine in engines:
        assert engine.row_counts() == counts
    pages = cluster.nodes["m0"].engine.store.page_count()
    assert sum(node.checkpoint() for node in cluster.nodes.values()) == work["flush_page"]
    assert work["flush_page"] == pages * len(cluster.nodes)


# -- preconditions are checked, not assumed -------------------------------------------------------
class TestPreconditions:
    ROWS = [{"id": i, "a": i, "b": "x", "c": 1.0} for i in range(5)]
    SCHEMA = TableSchema("t", COLUMNS, primary_key=("id",), indexes=[IndexDef("ix_a", ("a",))])

    def test_destination_must_hold_what_the_source_held(self):
        source, other = Replica(self.SCHEMA), Replica(self.SCHEMA)
        other.engine.bulk_load("t", self.ROWS)
        with pytest.raises(SchemaError, match="not replicas of one image"):
            bulk_load_replicas([source.engine, other.engine], "t", self.ROWS)
        assert source.engine.table("t").row_count == 0  # refused before any load

    def test_destination_must_page_like_the_source(self):
        source, other = Replica(self.SCHEMA, rows_per_page=2), Replica(self.SCHEMA, rows_per_page=4)
        with pytest.raises(SchemaError, match="not replicas of one image"):
            bulk_load_replicas([source.engine, other.engine], "t", self.ROWS)

    def test_no_copy_under_an_open_transaction(self):
        source, other = Replica(self.SCHEMA), Replica(self.SCHEMA)
        other.engine.begin()
        with pytest.raises(RuntimeError, match="active transactions"):
            bulk_load_replicas([source.engine, other.engine], "t", self.ROWS)

    def test_only_an_empty_stable_store_adopts_a_checkpoint(self):
        source, other = Replica(self.SCHEMA), Replica(self.SCHEMA)
        bulk_load_replicas([source.engine, other.engine], "t", self.ROWS)
        source.checkpoint()
        other.checkpoint()
        with pytest.raises(ValueError, match="empty stable store"):
            other.checkpointer.copy_from(source.checkpointer)

    def test_a_single_replica_just_loads(self):
        only = Replica(self.SCHEMA)
        assert bulk_load_replicas([only.engine], "t", self.ROWS) == 5
