"""The read funnel's contract: counters and cache order, row for row.

A statement reads its rows through one engine-level step and adds its
``cache.hits`` / ``engine.pages_read`` / ``engine.rows_read`` to the
counter bag once, when it ends.  These tests pin what that must not change:
whatever a statement does — finish, hit a version conflict at its k-th row,
lose its transaction half-way, block on a lock — the counters and the LRU
order afterwards are exactly those of the same reads done one
``Table.fetch`` at a time.  The expectation is never written down by hand:
a second, identically loaded replica is driven through the same locations
with per-row ``Table.fetch`` calls, which add their counts immediately.
"""

import pytest

from repro.common.counters import Counters
from repro.common.errors import TransactionAborted, VersionInconsistency
from repro.common.versions import VersionVector
from repro.core import MasterReplica, SlaveReplica
from repro.engine import Column, HeapEngine, IndexDef, TableSchema, TxnMode
from repro.engine.engine import LockWait, TwoPhaseLocking, make_update_controller
from repro.sql import SqlExecutor
from repro.storage.cache import PageCache

PARENT = TableSchema(
    "parent",
    [
        Column("p_id", "int", nullable=False),
        Column("p_grp", "int"),
        Column("p_m_id", "int"),
    ],
    primary_key=("p_id",),
    indexes=[IndexDef("ix_parent_grp", ("p_grp",))],
)
MID = TableSchema(
    "mid",
    [Column("m_id", "int", nullable=False), Column("m_val", "str")],
    primary_key=("m_id",),
)
CHILD = TableSchema(
    "child",
    [
        Column("c_id", "int", nullable=False),
        Column("c_p_id", "int"),
        Column("c_qty", "int"),
    ],
    primary_key=("c_id",),
    indexes=[IndexDef("ix_child_parent", ("c_p_id",))],
)
SCHEMAS = (PARENT, MID, CHILD)

JOIN = (
    "SELECT p_id, m_val, c_qty FROM parent, mid, child "
    "WHERE parent.p_m_id = mid.m_id AND child.c_p_id = parent.p_id AND parent.p_grp = ?"
)

READ_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "engine.pages_read",
    "engine.rows_read",
    "slave.version_aborts",
    "index.lookups",
    "index.range_scans",
)

ROWS = {
    "parent": [{"p_id": i, "p_grp": i % 3, "p_m_id": (i * 7) % 10} for i in range(24)],
    "mid": [{"m_id": i, "m_val": f"m{i}"} for i in range(10)],
    "child": [{"c_id": i, "c_p_id": i % 24, "c_qty": 1 + i % 5} for i in range(96)],
}


def new_slave(cache_pages):
    counters = Counters()
    engine = HeapEngine(
        counters=counters, cache=PageCache(cache_pages, counters), rows_per_page=4, name="s"
    )
    slave = SlaveReplica("s", engine=engine, counters=counters)
    for schema in SCHEMAS:
        engine.create_table(schema)
        engine.bulk_load(schema.name, ROWS[schema.name])
    return slave


def build(cache_pages=1 << 20):
    """A master and two slaves in the same state: ``sql_slave`` runs the
    statement, ``row_slave`` the same reads one ``Table.fetch`` at a time."""
    master = MasterReplica(
        "m0", engine=HeapEngine(controller=make_update_controller(), rows_per_page=4)
    )
    for schema in SCHEMAS:
        master.engine.create_table(schema)
        master.engine.bulk_load(schema.name, ROWS[schema.name])
    return master, new_slave(cache_pages), new_slave(cache_pages)


def replicate(master, slaves, statement, params=()):
    txn = master.begin_update()
    SqlExecutor(master.engine).execute(txn, statement, params)
    write_set = master.pre_commit(txn)
    for slave in slaves:
        slave.receive(write_set)
    master.finalize(txn)


def join_by_fetch(slave, txn, group, after_parent_row=lambda n: None):
    """The join's reads in the join's order, one ``Table.fetch`` per row."""
    tables = slave.engine.tables
    parent, mid, child = tables["parent"], tables["mid"], tables["child"]
    out = []
    seen = 0
    for p_loc in parent.index_range(txn, "ix_parent_grp", (group,), (group + 1,)):
        p_row = parent.fetch(txn, p_loc)
        seen += 1
        after_parent_row(seen)
        for m_loc in mid.pk_lookup(txn, (p_row[2],)):
            m_row = mid.fetch(txn, m_loc)
            for c_loc in child.index_range(txn, "ix_child_parent", (p_row[0],), (p_row[0] + 1,)):
                c_row = child.fetch(txn, c_loc)
                out.append((p_row[0], m_row[1], c_row[2]))
    return out


def read_counters(slave):
    return {name: slave.counters.get(name) for name in READ_COUNTERS}


class TestStatementEqualsPerRowFetches:
    def test_completed_join(self):
        _master, sql_slave, row_slave = build()
        tag = VersionVector()
        result = SqlExecutor(sql_slave.engine).execute(
            sql_slave.begin_read_only(tag), JOIN, (1,)
        )
        expected = join_by_fetch(row_slave, row_slave.begin_read_only(tag), 1)
        assert result.rows == expected and len(expected) == 32
        assert read_counters(sql_slave) == read_counters(row_slave)
        assert sql_slave.counters.get("engine.rows_read") == 8 + 8 + 32

    def test_version_conflict_at_the_kth_row(self):
        master, sql_slave, row_slave = build()
        slaves = (sql_slave, row_slave)
        # child 40 belongs to parent 16: the join in group 1 reaches it
        # after several parents.  A reader at the new version materialises
        # its page, which puts the page past the old reader's tag.
        replicate(master, slaves, "UPDATE child SET c_qty = 99 WHERE c_id = 40")
        newest = master.current_versions()
        for slave in slaves:
            reader = slave.begin_read_only(newest)
            SqlExecutor(slave.engine).execute(reader, "SELECT c_qty FROM child WHERE c_id = 40")
            slave.engine.commit(reader)
        assert read_counters(sql_slave) == read_counters(row_slave)

        old = VersionVector()
        with pytest.raises(VersionInconsistency):
            SqlExecutor(sql_slave.engine).execute(sql_slave.begin_read_only(old), JOIN, (1,))
        with pytest.raises(VersionInconsistency):
            join_by_fetch(row_slave, row_slave.begin_read_only(old), 1)
        counters = read_counters(sql_slave)
        assert counters == read_counters(row_slave)
        assert counters["slave.version_aborts"] == 1
        # The conflict came part-way: some rows were read, not all 48, and
        # the row that raised touched the cache but was never counted read.
        assert 0 < counters["engine.rows_read"] - 1 < 48
        assert sql_slave.engine.cache.hottest(50) == row_slave.engine.cache.hottest(50)

    def test_transaction_aborted_under_the_statement(self):
        _master, sql_slave, row_slave = build()
        tag = VersionVector()

        # now() is evaluated once per parent row by the residual filter; the
        # third evaluation aborts the transaction, as a node reconfiguration
        # would, and the next row read must stop the statement.
        txn = sql_slave.begin_read_only(tag)
        calls = []

        def clock():
            calls.append(1)
            if len(calls) == 3:
                sql_slave.engine.abort(txn, reason="node-failure")
            return 0.0

        with pytest.raises(TransactionAborted) as raised:
            SqlExecutor(sql_slave.engine, now=clock).execute(
                txn, JOIN + " AND parent.p_id + now() >= 0", (1,)
            )
        assert raised.value.reason == "txn-inactive"

        row_txn = row_slave.begin_read_only(tag)

        def abort_at_third(seen):
            if seen == 3:
                row_slave.engine.abort(row_txn, reason="node-failure")

        with pytest.raises(TransactionAborted):
            join_by_fetch(row_slave, row_txn, 1, after_parent_row=abort_at_third)
        assert read_counters(sql_slave) == read_counters(row_slave)
        # Two parents joined in full, the third read, then nothing more.
        assert sql_slave.counters.get("engine.rows_read") == 2 * (1 + 1 + 4) + 1

    def test_cache_smaller_than_the_join(self):
        _master, sql_slave, row_slave = build(cache_pages=5)
        tag = VersionVector()
        for group in (1, 2, 1):
            SqlExecutor(sql_slave.engine).execute(sql_slave.begin_read_only(tag), JOIN, (group,))
            join_by_fetch(row_slave, row_slave.begin_read_only(tag), group)
            assert read_counters(sql_slave) == read_counters(row_slave)
            assert sql_slave.engine.cache.hottest(5) == row_slave.engine.cache.hottest(5)
        assert sql_slave.counters.get("cache.evictions") > 0
        assert sql_slave.engine.cache.resident_count() == 5


class TestLockWaitMidScan:
    def build(self):
        counters = Counters()
        engine = HeapEngine(
            controller=TwoPhaseLocking(), counters=counters,
            cache=PageCache(100, counters), rows_per_page=4,
        )
        engine.create_table(MID)
        engine.bulk_load("mid", [{"m_id": i, "m_val": f"m{i}"} for i in range(20)])
        return engine

    def test_full_scan_blocked_on_the_third_page(self):
        engine = self.build()
        sql = SqlExecutor(engine)
        writer = engine.begin(write_intent=["mid"])
        sql.execute(writer, "UPDATE mid SET m_val = 'x' WHERE m_id = 9")  # page 2
        before = engine.counters.snapshot()
        reader = engine.begin(TxnMode.READ_ONLY)
        with pytest.raises(LockWait):
            sql.execute(reader, "SELECT m_id FROM mid")
        delta = engine.counters.delta_since(before)
        # Two pages read in full; the third touched the cache, then blocked.
        assert delta == {
            "engine.txns_started": 1,
            "engine.table_scans": 1,
            "cache.hits": 1,       # page 2 is resident since the update
            "cache.misses": 2,
            "engine.pages_read": 2,
            "engine.rows_read": 8,
            "locks.waits": 1,
        }

    def test_in_list_probe_blocked_charges_the_rows_before_it(self):
        counters = Counters()
        engine = HeapEngine(
            controller=TwoPhaseLocking(), counters=counters,
            cache=PageCache(100, counters), rows_per_page=4,
        )
        engine.create_table(CHILD)
        engine.bulk_load("child", ROWS["child"])
        sql = SqlExecutor(engine)
        writer = engine.begin(write_intent=["child"])
        sql.execute(writer, "UPDATE child SET c_qty = 0 WHERE c_id = 33")  # parent 9
        reader = engine.begin(TxnMode.READ_ONLY)
        before = counters.snapshot()
        with pytest.raises(LockWait):
            sql.execute(reader, "SELECT c_qty FROM child WHERE c_p_id IN (1, 2, 9, 3)")
        delta = counters.delta_since(before)
        # Parents 1 and 2 in full (four children each), child 9 of parent 9,
        # then child 33 blocks; parent 3's range is never opened.
        assert delta["engine.rows_read"] == delta["engine.pages_read"] == 9
        assert delta["index.range_scans"] == 3 and delta["locks.waits"] == 1
        assert delta["cache.hits"] + delta["cache.misses"] == 10


class TestFlushIsPerStatement:
    def test_no_statement_sees_anothers_pending_counts(self):
        _master, slave, _ = build()
        sql = SqlExecutor(slave.engine)
        counters = slave.counters
        txn = slave.begin_read_only(VersionVector())
        sql.execute(txn, JOIN, (0,))
        assert counters.get("engine.rows_read") == counters.get("engine.pages_read") == 48

        # A statement that raises at its very first row adds nothing ...
        slave.engine.abort(txn)
        before = counters.snapshot()
        with pytest.raises(TransactionAborted):
            sql.execute(txn, JOIN, (0,))
        delta = counters.delta_since(before)
        assert "engine.rows_read" not in delta and "cache.hits" not in delta

        # ... and leaves nothing behind for the next one to inherit.
        txn = slave.begin_read_only(VersionVector())
        before = counters.snapshot()
        sql.execute(txn, "SELECT m_val FROM mid WHERE m_id = 3")
        assert counters.delta_since(before) == {
            "index.lookups": 1, "cache.hits": 1, "engine.pages_read": 1, "engine.rows_read": 1,
        }

    def test_direct_fetch_and_scan_add_their_counts_at_once(self):
        _master, slave, _ = build()
        table = slave.engine.table("mid")
        txn = slave.begin_read_only(VersionVector())
        (loc,) = table.pk_lookup(txn, (3,))
        assert table.fetch(txn, loc) == (3, "m3")
        assert slave.counters.get("engine.rows_read") == 1
        scan = table.scan(txn)
        next(scan)
        scan.close()  # abandoned after one row of the first page
        assert slave.counters.get("engine.rows_read") == 2
        assert slave.counters.get("engine.pages_read") == 2

    def test_promotion_rebuilds_the_funnel_for_the_new_controller(self):
        _master, slave, _ = build()
        engine = slave.engine
        slave.engine.set_controller(TwoPhaseLocking())
        txn = engine.begin(TxnMode.READ_ONLY)
        SqlExecutor(engine).execute(txn, "SELECT m_val FROM mid WHERE m_id = 3")
        page_id = engine.store.pages_of("mid")[0].page_id  # m_id 3 lives on page 0
        assert list(engine.controller.manager.holders_of(page_id)) == [txn.txn_id]
        assert engine.counters.get("engine.rows_read") == 1
