"""Unit tests for the heap engine: schema, txns, commit/abort, locking."""

import pytest

from repro.common.errors import SchemaError, TransactionAborted
from repro.engine import (
    Column,
    HeapEngine,
    IndexDef,
    LockWait,
    TableSchema,
    TwoPhaseLocking,
    TxnMode,
    TxnState,
)

ITEM = TableSchema(
    name="item",
    columns=[
        Column("i_id", "int", nullable=False),
        Column("i_title", "str"),
        Column("i_cost", "float"),
        Column("i_subject", "str"),
    ],
    primary_key=("i_id",),
    indexes=[IndexDef("item_subject", ("i_subject", "i_id"))],
)


def make_engine(controller=None):
    engine = HeapEngine(controller=controller, rows_per_page=4)
    engine.create_table(ITEM)
    return engine


def insert_items(engine, txn, n, start=0):
    locs = []
    for i in range(start, start + n):
        locs.append(
            engine.table("item").insert_row(
                txn,
                {"i_id": i, "i_title": f"book-{i}", "i_cost": float(i), "i_subject": "SCI"},
            )
        )
    return locs


class TestSchema:
    def test_row_roundtrip(self):
        row = ITEM.row_from_dict({"i_id": 1, "i_title": "t", "i_cost": 2, "i_subject": None})
        assert row == (1, "t", 2.0, None)
        assert row[ITEM.position("i_title")] == "t"

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            ITEM.row_from_dict({"nope": 1})

    def test_type_check(self):
        with pytest.raises(SchemaError):
            ITEM.row_from_dict({"i_id": "not-an-int"})

    def test_not_null_enforced(self):
        with pytest.raises(SchemaError):
            ITEM.row_from_dict({"i_title": "t"})  # i_id missing and NOT NULL

    def test_bool_is_not_int(self):
        with pytest.raises(SchemaError):
            ITEM.row_from_dict({"i_id": True})

    def test_updated_row(self):
        row = ITEM.row_from_dict({"i_id": 1, "i_title": "a"})
        assert ITEM.updated_row(row, {"i_title": "b"})[1] == "b"

    def test_pk_required(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", "int")], primary_key=())

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a"), Column("a")], primary_key=("a",))

    def test_index_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                [Column("a", "int")],
                primary_key=("a",),
                indexes=[IndexDef("bad", ("zz",))],
            )


class TestCrud:
    def test_insert_and_fetch(self):
        engine = make_engine()
        txn = engine.begin()
        (loc,) = insert_items(engine, txn, 1)
        assert engine.table("item").fetch(txn, loc)[1] == "book-0"
        engine.commit(txn)

    def test_duplicate_pk_rejected(self):
        engine = make_engine()
        txn = engine.begin()
        insert_items(engine, txn, 1)
        with pytest.raises(TransactionAborted) as err:
            insert_items(engine, txn, 1)
        assert err.value.reason == "duplicate-key"

    def test_pk_reusable_after_delete(self):
        engine = make_engine()
        txn = engine.begin()
        (loc,) = insert_items(engine, txn, 1)
        engine.commit(txn)
        txn2 = engine.begin()
        engine.table("item").delete_row(txn2, loc)
        insert_items(engine, txn2, 1)  # same id again
        engine.commit(txn2)

    def test_update_row(self):
        engine = make_engine()
        txn = engine.begin()
        (loc,) = insert_items(engine, txn, 1)
        engine.commit(txn)
        txn2 = engine.begin()
        engine.table("item").update_row(txn2, loc, {"i_cost": 99.0})
        engine.commit(txn2)
        txn3 = engine.begin(TxnMode.READ_ONLY)
        assert engine.table("item").fetch(txn3, loc)[2] == 99.0

    def test_pk_update_rejected(self):
        engine = make_engine()
        txn = engine.begin()
        (loc,) = insert_items(engine, txn, 1)
        with pytest.raises(SchemaError):
            engine.table("item").update_row(txn, loc, {"i_id": 777})

    def test_scan(self):
        engine = make_engine()
        txn = engine.begin()
        insert_items(engine, txn, 10)
        engine.commit(txn)
        txn2 = engine.begin(TxnMode.READ_ONLY)
        assert len(list(engine.table("item").scan(txn2))) == 10

    def test_pages_span(self):
        engine = make_engine()  # 4 rows per page
        txn = engine.begin()
        insert_items(engine, txn, 10)
        engine.commit(txn)
        assert engine.store.page_count() == 3

    def test_row_count(self):
        engine = make_engine()
        txn = engine.begin()
        locs = insert_items(engine, txn, 5)
        engine.table("item").delete_row(txn, locs[0])
        engine.commit(txn)
        assert engine.table("item").row_count == 4

    def test_slot_reuse_after_delete(self):
        engine = make_engine()
        txn = engine.begin()
        locs = insert_items(engine, txn, 4)  # fills page 0
        engine.table("item").delete_row(txn, locs[1])
        engine.commit(txn)
        txn2 = engine.begin()
        (new_loc,) = insert_items(engine, txn2, 1, start=100)
        engine.commit(txn2)
        assert new_loc == locs[1]  # freed slot reused

    def test_read_only_txn_cannot_write(self):
        engine = make_engine()
        txn = engine.begin(TxnMode.READ_ONLY)
        with pytest.raises(TransactionAborted):
            insert_items(engine, txn, 1)

    def test_index_lookup_after_commit(self):
        engine = make_engine()
        txn = engine.begin()
        insert_items(engine, txn, 5)
        engine.commit(txn)
        ro = engine.begin(TxnMode.READ_ONLY)
        locs = list(engine.table("item").index_range(ro, "item_subject", ("SCI",), ("SCI", 10**9)))
        assert len(locs) == 5


class TestAbort:
    def test_abort_restores_rows(self):
        engine = make_engine()
        txn = engine.begin()
        insert_items(engine, txn, 3)
        engine.commit(txn)
        txn2 = engine.begin()
        insert_items(engine, txn2, 3, start=10)
        engine.abort(txn2)
        ro = engine.begin(TxnMode.READ_ONLY)
        assert len(list(engine.table("item").scan(ro))) == 3
        assert engine.table("item").row_count == 3

    def test_abort_restores_update(self):
        engine = make_engine()
        txn = engine.begin()
        (loc,) = insert_items(engine, txn, 1)
        engine.commit(txn)
        txn2 = engine.begin()
        engine.table("item").update_row(txn2, loc, {"i_title": "changed"})
        engine.abort(txn2)
        ro = engine.begin(TxnMode.READ_ONLY)
        assert engine.table("item").fetch(ro, loc)[1] == "book-0"

    def test_abort_restores_delete_and_indexes(self):
        engine = make_engine()
        txn = engine.begin()
        (loc,) = insert_items(engine, txn, 1)
        engine.commit(txn)
        txn2 = engine.begin()
        engine.table("item").delete_row(txn2, loc)
        engine.abort(txn2)
        ro = engine.begin(TxnMode.READ_ONLY)
        assert engine.table("item").pk_lookup(ro, (0,)) == [loc]

    def test_abort_is_idempotent(self):
        engine = make_engine()
        txn = engine.begin()
        insert_items(engine, txn, 1)
        engine.abort(txn)
        engine.abort(txn)  # no-op
        assert txn.state is TxnState.ABORTED

    def test_abort_all_active(self):
        engine = make_engine()
        t1 = engine.begin()
        t2 = engine.begin()
        insert_items(engine, t1, 1)
        insert_items(engine, t2, 1, start=50)
        assert engine.abort_all_active() == 2
        assert engine.table("item").row_count == 0


class TestSavepoints:
    def test_statement_rollback(self):
        engine = make_engine()
        txn = engine.begin()
        insert_items(engine, txn, 2)
        sp = txn.savepoint()
        insert_items(engine, txn, 2, start=10)
        engine.rollback_to(txn, sp)
        engine.commit(txn)
        ro = engine.begin(TxnMode.READ_ONLY)
        assert len(list(engine.table("item").scan(ro))) == 2

    def test_rollback_truncates_redo(self):
        engine = make_engine()
        txn = engine.begin()
        insert_items(engine, txn, 1)
        sp = txn.savepoint()
        insert_items(engine, txn, 1, start=10)
        engine.rollback_to(txn, sp)
        assert len(txn.redo) == 1


class TestVersionsAndCommit:
    def test_commit_returns_versions(self):
        engine = make_engine()
        txn = engine.begin()
        insert_items(engine, txn, 1)
        versions = engine.commit(txn)
        assert versions == {"item": 1}
        txn2 = engine.begin()
        insert_items(engine, txn2, 1, start=5)
        assert engine.commit(txn2) == {"item": 2}

    def test_commit_stamps_page_versions(self):
        engine = make_engine()
        txn = engine.begin()
        (loc,) = insert_items(engine, txn, 1)
        engine.commit(txn)
        assert engine.store.get(loc[0]).version == 1

    def test_commit_stamps_index_versions(self):
        engine = make_engine()
        txn = engine.begin()
        (loc,) = insert_items(engine, txn, 1)
        engine.commit(txn)
        from repro.common.versions import VersionVector

        ro = engine.begin(TxnMode.READ_ONLY, tag=VersionVector({"item": 1}))
        assert engine.table("item").pk_lookup(ro, (0,)) == [loc]
        ro0 = engine.begin(TxnMode.READ_ONLY, tag=VersionVector({"item": 0}))
        assert engine.table("item").pk_lookup(ro0, (0,)) == []


class TestTwoPhaseLocking:
    def test_write_conflict_raises_lockwait(self):
        engine = make_engine(controller=TwoPhaseLocking())
        t1 = engine.begin()
        (loc,) = insert_items(engine, t1, 1)
        engine.commit(t1)
        t2 = engine.begin()
        t3 = engine.begin()
        engine.table("item").update_row(t2, loc, {"i_cost": 1.0})
        with pytest.raises(LockWait):
            engine.table("item").update_row(t3, loc, {"i_cost": 2.0})

    def test_lock_released_after_commit(self):
        engine = make_engine(controller=TwoPhaseLocking())
        t1 = engine.begin()
        (loc,) = insert_items(engine, t1, 1)
        engine.commit(t1)
        t2 = engine.begin()
        engine.table("item").update_row(t2, loc, {"i_cost": 1.0})
        engine.commit(t2)
        t3 = engine.begin()
        engine.table("item").update_row(t3, loc, {"i_cost": 2.0})
        engine.commit(t3)

    def test_reader_blocks_on_writer(self):
        engine = make_engine(controller=TwoPhaseLocking())
        t1 = engine.begin()
        (loc,) = insert_items(engine, t1, 1)
        engine.commit(t1)
        writer = engine.begin()
        engine.table("item").update_row(writer, loc, {"i_cost": 5.0})
        reader = engine.begin(TxnMode.READ_ONLY)
        with pytest.raises(LockWait):
            engine.table("item").fetch(reader, loc)

    def test_lockwait_retry_after_release(self):
        engine = make_engine(controller=TwoPhaseLocking())
        t1 = engine.begin()
        (loc,) = insert_items(engine, t1, 1)
        engine.commit(t1)
        writer = engine.begin()
        engine.table("item").update_row(writer, loc, {"i_cost": 5.0})
        reader = engine.begin(TxnMode.READ_ONLY)
        sp = reader.savepoint()
        granted = []
        try:
            engine.table("item").fetch(reader, loc)
        except LockWait as wait:
            engine.rollback_to(reader, sp)
            wait.request.on_grant(lambda r: granted.append(True))
        engine.commit(writer)
        assert granted == [True]
        assert engine.table("item").fetch(reader, loc)[2] == 5.0

    def test_dirty_page_detection(self):
        engine = make_engine(controller=TwoPhaseLocking())
        txn = engine.begin()
        (loc,) = insert_items(engine, txn, 1)
        page = engine.store.get(loc[0])
        assert engine.page_is_dirty(page)
        engine.commit(txn)
        assert not engine.page_is_dirty(page)


class TestCounters:
    def test_engine_counters_move(self):
        engine = make_engine()
        txn = engine.begin()
        insert_items(engine, txn, 3)
        engine.commit(txn)
        assert engine.counters.get("engine.rows_inserted") == 3
        assert engine.counters.get("engine.txns_committed") == 1
