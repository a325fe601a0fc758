"""One index delta per op: the derivation is right and sharing it is safe.

``Table.index_delta(op)`` is derived once (by the master, when it builds the
redo op) and then looped over by the master's stamp / revert and by every
slave that receives the op.  These tests pin the three things that makes
safe: the delta *equals* the keys computed from the full before/after rows;
replicas that apply the same cached tuples end up with indexes that answer
exactly as indexes rebuilt from pages do, and *share nothing mutable*; and
an op that arrives without a cached delta derives the same one lazily.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.cluster.interest import InterestSet
from repro.cluster.sync import SyncDmvCluster, datagen_tables
from repro.common.rng import RngStream
from repro.common.versions import VersionVector
from repro.core import MasterReplica, SlaveReplica
from repro.core.writeset import WriteSet
from repro.disk.wal import WriteAheadLog
from repro.engine import Column, IndexDef, TableSchema, bulk_load_replicas
from repro.engine.indexes import encode_key
from repro.engine.schema import key_at
from repro.storage.ops import ENCODE_STATS, OpKind, PageOp
from repro.tpcw import (
    INTERACTIONS,
    MIXES,
    TPCW_SCHEMAS,
    InteractionContext,
    TpcwDataGenerator,
    TpcwScale,
    run_sync,
)
from repro.tpcw.interactions import SharedSequences
from tests.test_replica_copy import (
    COLUMNS,
    INDEX_CHOICES,
    describe_bucket,
    describe_engine,
    mutable_parts,
)


def fresh(op):
    """``op`` as a log or a wire would hand it over: equal, nothing cached on it."""
    copy = dataclasses.replace(op)
    assert copy == op and copy._index_delta is None
    return copy


def fresh_write_set(write_set, ops=None):
    return WriteSet(
        write_set.master_id, write_set.txn_id,
        tuple(fresh(op) for op in write_set.ops) if ops is None else tuple(ops),
        dict(write_set.versions), seq=write_set.seq,
    )


def indexes_of(engine):
    """What eager index maintenance writes, structurally: row counts, hash
    buckets in order, tree shape and colours, rotations, entry counts."""
    return {
        name: (rows, pk_buckets, pk_entries, trees)
        for name, (rows, _nonfull, pk_buckets, pk_entries, trees)
        in describe_engine(engine)["tables"].items()
    }


def index_facts(engine):
    """The entries alone, per key in key order — what a master (whose trees
    also carry the scars of aborted inserts) and its slaves must agree on."""
    return {
        name: (
            table.row_count,
            sorted((key, describe_bucket(b)) for key, b in table.pk_index._buckets.items()),
            {ix: [(key, describe_bucket(b)) for key, b in index._tree.items()]
             for ix, index in table.indexes.items()},
        )
        for name, table in engine.tables.items()
    }


def expected_delta(table, before, after):
    """The index delta of one row change, from the full before/after rows."""
    all_positions = [table.schema._pk_positions, *table._index_positions.values()]
    delta = []
    for slot, positions in enumerate(all_positions):
        old = encode_key(key_at(before, positions)) if before is not None else None
        new = encode_key(key_at(after, positions)) if after is not None else None
        if old != new:
            delta.append((slot, old, new))
    return tuple(delta)


def assert_immutable(value):
    """A tuple of tuples all the way down to scalars."""
    if isinstance(value, tuple):
        for part in value:
            assert_immutable(part)
    else:
        assert value is None or isinstance(value, (int, float, str))


# -- (a) the derivation --------------------------------------------------------------------
VALUES = {
    "a": st.none() | st.integers(0, 3),
    "b": st.none() | st.sampled_from(["x", "y", "zz"]),
    "c": st.sampled_from([0.0, 1.5, 2.0]),
}


@st.composite
def histories(draw):
    """A schema, a page size small enough for slot reuse, initial rows and
    a list of transactions: (commit?, [insert | update | delete steps])."""
    indexes = draw(st.lists(st.sampled_from(INDEX_CHOICES), unique=True, max_size=4))
    schema = TableSchema(
        "t", COLUMNS, primary_key=("id",),
        indexes=[IndexDef("ix_" + "_".join(cols), cols) for cols in indexes],
    )
    row = st.fixed_dictionaries(VALUES)
    initial = draw(st.lists(row, max_size=6))
    step = st.one_of(
        st.tuples(st.just("insert"), row),
        st.tuples(st.just("delete"), st.integers(0, 50)),
        # Any subset of the non-key columns: key-changing and not, NULL <-> value.
        st.tuples(st.just("update"), st.integers(0, 50),
                  st.fixed_dictionaries({}, optional=VALUES)),
    )
    txns = draw(st.lists(st.tuples(st.booleans(), st.lists(step, min_size=1, max_size=5)),
                         max_size=6))
    return schema, draw(st.sampled_from([1, 2, 64])), initial, txns


def run_steps(master, txn, steps, next_id):
    """Run ``steps`` in ``txn``; victims are picked among the rows it can see."""
    table = master.engine.table("t")
    for step in steps:
        live = [loc for loc, _row in table.scan(txn)]
        if step[0] == "insert":
            table.insert_row(txn, {"id": next(next_id), **step[1]})
        elif live and step[0] == "delete":
            table.delete_row(txn, live[step[1] % len(live)])
        elif live:
            table.update_row(txn, live[step[1] % len(live)], step[2])


@settings(max_examples=80, deadline=None)
@given(histories())
def test_index_delta_equals_the_keys_of_the_full_rows(history):
    schema, rows_per_page, initial, txns = history
    master = MasterReplica("m0")
    shared, lazy, full_image = slaves = [SlaveReplica(f"s{i}") for i in range(3)]
    engines = [master.engine] + [slave.engine for slave in slaves]
    for engine in engines:
        engine.store.rows_per_page = rows_per_page
        engine.create_table(schema)
    next_id = iter(range(10**6))
    bulk_load_replicas(engines, "t", [{"id": next(next_id), **row} for row in initial])
    table = master.engine.table("t")

    for commit, steps in txns:
        before_txn = index_facts(master.engine)
        derived = ENCODE_STATS["index_deltas"]
        txn = master.begin_update()
        run_steps(master, txn, steps, next_id)
        assert len(txn.journal) == len(txn.redo)
        assert ENCODE_STATS["index_deltas"] - derived == len(txn.redo)
        for record, op in zip(txn.journal, txn.redo):
            delta = table.index_delta(op)
            assert delta is record.index_delta is op._index_delta
            assert delta == expected_delta(table, record.before, record.after)
            assert_immutable(delta)
            # An op with nothing cached derives the same delta, delta-encoded
            # or (UPDATE as full before/after images) not.
            assert lazy.engine.table("t").index_delta(fresh(op)) == delta
        if not commit:
            master.abort(txn)
            assert index_facts(master.engine) == before_txn  # revert undid every entry
            continue
        images = [
            PageOp(op.page_id, op.kind, op.slot, record.after, record.before)
            if op.kind is OpKind.UPDATE else fresh(op)
            for record, op in zip(txn.journal, txn.redo)
        ]
        write_set = master.pre_commit(txn)
        if write_set is None:
            continue  # nothing written: committed locally
        master.finalize(txn)
        derived = ENCODE_STATS["index_deltas"]
        # Received, lost to a master failure, received again: the discard
        # undoes exactly the entries the receive made.
        confirmed, before_receive = shared.received_versions.copy(), index_facts(shared.engine)
        shared.receive(write_set)
        assert shared.discard_above(confirmed) == len(write_set.ops)
        assert index_facts(shared.engine) == before_receive
        shared.receive(write_set)
        assert ENCODE_STATS["index_deltas"] == derived  # the master's deltas, reused
        lazy.receive(fresh_write_set(write_set))
        full_image.receive(fresh_write_set(write_set, images))
        assert ENCODE_STATS["index_deltas"] - derived == 2 * len(write_set.ops)

    # Three ways to the same indexes; and the master's, stamped, hold the same facts.
    assert indexes_of(lazy.engine) == indexes_of(full_image.engine)
    assert index_facts(master.engine) == index_facts(shared.engine) == index_facts(lazy.engine)
    # ... which are the indexes the pages imply.
    latest = master.current_versions()
    eager = answers(shared, latest)
    shared.apply_all_pending()
    shared.engine.rebuild_all_indexes()
    assert answers(shared, latest) == eager


def answers(slave, tag):
    """What ``slave``'s indexes say at ``tag``: every primary-key lookup, and
    per secondary index the (key-ordered) range scan as sorted locations."""
    txn = slave.begin_read_only(tag)
    found = {}
    for name, table in slave.engine.tables.items():
        keys = [tuple(value if tag else None for tag, value in zip(key[::2], key[1::2]))
                for key in table.pk_index._buckets]
        lookups = {key: sorted(table.pk_lookup(txn, key), key=str) for key in keys}
        found[name] = (
            {key: locs for key, locs in lookups.items() if locs},
            {ix: sorted(table.index_range(txn, ix, None, None), key=str) for ix in table.indexes},
        )
    slave.engine.commit(txn)
    return found


# -- (b) differential: eager maintenance from shared deltas vs a rebuild ---------------------
SCALE = TpcwScale(num_items=60, num_customers=173)


class RecordingCluster(SyncDmvCluster):
    """Keeps every write-set its masters broadcast, in order."""

    def __init__(self, *args, **kwargs):
        self.write_sets = []
        super().__init__(*args, **kwargs)

    def broadcast(self, write_set, exclude):
        self.write_sets.append(write_set)
        super().broadcast(write_set, exclude)


def loaded_slaves(count):
    """``count`` stand-alone slaves holding the dataset ``tpcw_cluster`` loads."""
    slaves = [SlaveReplica(f"r{i}") for i in range(count)]
    for slave in slaves:
        for schema in TPCW_SCHEMAS:
            slave.engine.create_table(schema)
    for name, rows in datagen_tables(TpcwDataGenerator(SCALE, seed=11)):
        bulk_load_replicas([slave.engine for slave in slaves], name, rows)
    return slaves


def tpcw_cluster(stream_length=250, seed=5):
    cluster = RecordingCluster(TPCW_SCHEMAS, num_slaves=3, now=lambda: 0.0, seed=3)
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    rng = RngStream(seed, "index-delta-stream")
    ctx = InteractionContext(
        rng=RngStream(seed, "index-delta-ctx"), scale=SCALE,
        sequences=SharedSequences(SCALE), now=lambda: 0.0, customer_id=5,
    )
    conn = cluster.connect()
    for _ in range(stream_length):
        run_sync(INTERACTIONS[MIXES["ordering"].pick(rng)](conn, ctx))
    return cluster


def test_slave_indexes_answer_as_rebuilt_ones_after_a_tpcw_ordering_stream():
    derived = ENCODE_STATS["index_deltas"]
    cluster = tpcw_cluster()
    slaves = [cluster.nodes[sid].slave for sid in cluster.slave_ids()]
    assert len(slaves) == 3
    ops = cluster.nodes["m0"].counters.get("master.ops_replicated")
    assert ops > 300
    assert ENCODE_STATS["index_deltas"] - derived == ops  # once per op, not per replica
    latest = cluster.latest_versions()
    key_order = {}
    for slave in slaves:
        eager = answers(slave, latest)
        # Range scans come back in key order while the pages still lag ...
        txn = slave.begin_read_only(latest)
        for name, table in slave.engine.tables.items():
            for ix, positions in table._index_positions.items():
                key_order[name, ix] = [
                    encode_key(key_at(table.fetch(txn, loc), positions))
                    for loc in table.index_range(txn, ix, None, None)
                ]
                assert key_order[name, ix] == sorted(key_order[name, ix])
        slave.engine.commit(txn)
        # ... and agree with indexes rebuilt from the materialised pages.
        slave.apply_all_pending()
        slave.engine.rebuild_all_indexes()
        assert answers(slave, latest) == eager
    assert any(len(keys) > 50 for keys in key_order.values())


# -- (c) sharing: one replica's discard, GC and further receives are its own -----------------
def test_replicas_fed_the_same_ops_share_nothing_mutable():
    ITEM = TableSchema(
        "item",
        [Column("i_id", "int", nullable=False), Column("i_title", "str"), Column("i_stock", "int")],
        primary_key=("i_id",),
        indexes=[IndexDef("ix_title", ("i_title",)), IndexDef("ix_stock", ("i_stock", "i_id"))],
    )
    master = MasterReplica("m0")
    slaves = [SlaveReplica(f"s{i}") for i in range(3)]
    engines = [master.engine] + [slave.engine for slave in slaves]
    for engine in engines:
        engine.create_table(ITEM)
    rows = [{"i_id": i, "i_title": f"b{i % 7}", "i_stock": i % 3} for i in range(40)]
    bulk_load_replicas(engines, "item", rows)
    table = master.engine.table("item")

    def commit(changes):
        txn = master.begin_update()
        for i_id, change in changes:
            if change == "insert":
                table.insert_row(txn, {"i_id": i_id, "i_title": "new", "i_stock": 1})
                continue
            (loc,) = table.pk_lookup(txn, (i_id,))
            if change == "delete":
                table.delete_row(txn, loc)
            else:
                table.update_row(txn, loc, change)
        write_set = master.pre_commit(txn)
        master.finalize(txn)
        return write_set

    first = commit([(3, {"i_title": "retitled", "i_stock": 9}), (10, "delete"), (500, "insert")])
    second = commit([(4, {"i_stock": 7}), (500, "delete"), (501, "insert")])
    for slave in slaves:
        slave.receive(first)
        slave.receive(second)
    for write_set in (first, second):
        for op in write_set.ops:
            assert_immutable(op._index_delta)

    class Wrapped:  # what ``mutable_parts`` walks
        def __init__(self, slave):
            self.engine = slave.engine
            self.slave = slave
            self.stable = type("NoImages", (), {"_images": {}, "_previous": {}})

    s0, s1, s2 = slaves
    states = [indexes_of(slave.engine) for slave in slaves]
    assert states[0] == states[1] == states[2]
    parts = [mutable_parts(Wrapped(slave)) for slave in slaves]
    assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def only_changed(*mutated):
        """``mutated`` differ from their last recorded state; nobody else does."""
        for position, slave in enumerate(slaves):
            now = indexes_of(slave.engine)
            assert (now != states[position]) == (slave in mutated)
            states[position] = now

    def entries(slave):
        return slave.engine.table("item").pk_index.entry_count

    # Master-failure discard on s0: it reverts the second write-set's entries — its own.
    assert s0.discard_above(VersionVector(first.versions)) == len(second.ops)
    only_changed(s0)
    assert (entries(s0), entries(s1), entries(s2)) == (41, 42, 42)
    # Index GC on s1 drops its committed deletes — its own.
    assert s1.gc_versions(master.current_versions()) > 0
    only_changed(s1)
    assert (entries(s0), entries(s1), entries(s2)) == (41, 40, 42)
    # A further receive on s2, and s0 taking the discarded write-set again — their own.
    third = commit([(5, {"i_title": "later"}), (501, "delete")])
    s2.receive(third)
    s0.receive(second)
    only_changed(s0, s2)
    s0.receive(third)
    s1.receive(third)
    assert index_facts(s0.engine) == index_facts(s2.engine)
    for slave in slaves:
        txn = slave.begin_read_only(master.current_versions())
        assert slave.engine.table("item").pk_lookup(txn, (500,)) == []
        assert len(slave.engine.table("item").pk_lookup(txn, (3,))) == 1
        assert len(list(slave.engine.table("item").index_range(txn, "ix_title", None, None))) == 39


# -- (d) the lazy path: WAL round trip, interest restriction ---------------------------------
def test_wal_restored_and_interest_restricted_write_sets_apply_the_same():
    derived = ENCODE_STATS["index_deltas"]
    cluster = tpcw_cluster(stream_length=120, seed=9)
    source = cluster.nodes[cluster.slave_ids()[0]].slave
    write_sets = cluster.write_sets
    assert len(write_sets) > 20
    ops = sum(len(write_set.ops) for write_set in write_sets)
    assert ENCODE_STATS["index_deltas"] - derived == ops

    live, restored, partial, partial_lazy = loaded_slaves(4)

    # Through a WAL whose records hold what a real log would: ops with nothing cached.
    wal = WriteAheadLog()
    for write_set in write_sets:
        live.receive(write_set)
        wal.append_commit(
            write_set.txn_id, tuple(fresh(op) for op in write_set.ops),
            versions=write_set.versions, master_id=write_set.master_id, seq=write_set.seq,
        )
    wal.fsync()
    assert ENCODE_STATS["index_deltas"] - derived == ops  # live reused the master's
    records, torn = wal.recover_records()
    assert torn == 0 and len(records) == len(write_sets)
    for record in records:
        restored.restore_write_set(
            WriteSet(record.master_id, record.txn_id, record.ops, dict(record.versions),
                     seq=record.seq)
        )
    assert ENCODE_STATS["index_deltas"] - derived == 2 * ops  # derived on arrival
    assert indexes_of(restored.engine) == indexes_of(live.engine)
    assert index_facts(restored.engine) == index_facts(source.engine)  # a slave that served reads
    assert restored.pending_ops == live.pending_ops == ops

    # Restricted to an interest set: the surviving ops are the master's own
    # objects (cached delta and all); a copy with nothing cached applies the same.
    interest = InterestSet.of("orders", "order_line", "item")
    kept = 0
    for write_set in write_sets:
        restricted = interest.restrict(write_set)
        if restricted is None:
            continue
        kept += len(restricted.ops)
        assert all(any(op is original for original in write_set.ops) for op in restricted.ops)
        partial.receive(restricted)
        partial_lazy.receive(fresh_write_set(restricted))
    assert 0 < kept < ops
    assert indexes_of(partial.engine) == indexes_of(partial_lazy.engine)
    for name in ("orders", "order_line", "item"):
        assert indexes_of(partial.engine)[name] == indexes_of(live.engine)[name]
    assert indexes_of(partial.engine)["customer"] != indexes_of(live.engine)["customer"]
