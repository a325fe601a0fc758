"""Integration tests for the DMV core: master -> slave replication semantics."""

import pytest

from repro.common.errors import SchemaError, VersionInconsistency
from repro.common.ids import page_id_of
from repro.common.versions import VersionVector
from repro.core import MasterReplica, SlaveReplica, WriteSet
from repro.engine import Column, HeapEngine, IndexDef, TableSchema
from repro.sql import SqlExecutor
from repro.storage.ops import OpKind, PageOp, delta_update_op

ITEM = TableSchema(
    "item",
    [
        Column("i_id", "int", nullable=False),
        Column("i_title", "str"),
        Column("i_stock", "int"),
    ],
    primary_key=("i_id",),
    indexes=[IndexDef("ix_title", ("i_title",))],
)
ORDERS = TableSchema(
    "orders",
    [Column("o_id", "int", nullable=False), Column("o_total", "float")],
    primary_key=("o_id",),
)


def build_pair(n_slaves=1):
    master = MasterReplica("m0")
    slaves = [SlaveReplica(f"s{i}") for i in range(n_slaves)]
    for schema in (ITEM, ORDERS):
        master.engine.create_table(schema)
        for slave in slaves:
            slave.engine.create_table(schema)
    rows = [{"i_id": i, "i_title": f"b{i}", "i_stock": 10} for i in range(20)]
    master.engine.bulk_load("item", rows)
    for slave in slaves:
        slave.engine.bulk_load("item", rows)
    return master, slaves


def commit_update(master, slaves, fn):
    """Run an update on the master and replicate it synchronously."""
    txn = master.begin_update()
    sql = SqlExecutor(master.engine)
    fn(sql, txn)
    ws = master.pre_commit(txn)
    if ws is not None:
        for slave in slaves:
            slave.receive(ws)
    master.finalize(txn)
    return ws


class TestReplicationBasics:
    def test_write_set_carries_versions(self):
        master, slaves = build_pair()
        ws = commit_update(
            master, slaves, lambda sql, txn: sql.execute(
                txn, "UPDATE item SET i_stock = 5 WHERE i_id = 1"
            )
        )
        assert ws.versions == {"item": 1}
        assert len(ws.ops) == 1
        assert ws.byte_size() > 64

    def test_empty_write_set_skipped(self):
        master, slaves = build_pair()
        txn = master.begin_update()
        assert master.pre_commit(txn) is None  # nothing written

    def test_versions_increment_per_table(self):
        master, slaves = build_pair()
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 1 WHERE i_id = 0"))
        ws = commit_update(
            master, slaves,
            lambda s, t: (
                s.execute(t, "UPDATE item SET i_stock = 2 WHERE i_id = 0"),
                s.execute(t, "INSERT INTO orders (o_id, o_total) VALUES (1, 9.5)"),
            ),
        )
        assert ws.versions == {"item": 2, "orders": 1}
        assert master.current_versions().as_dict() == {"item": 2, "orders": 1}

    def test_slave_buffers_without_applying(self):
        master, slaves = build_pair()
        slave = slaves[0]
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 99 WHERE i_id = 3"))
        assert slave.pending_op_count() == 1
        # The data page itself is untouched until a reader arrives.
        page_id = next(iter(slave.pending))
        assert slave.engine.store.get(page_id).version == 0


class TestLazyMaterialisation:
    def test_tagged_read_sees_its_version(self):
        master, slaves = build_pair()
        slave = slaves[0]
        sql = SqlExecutor(slave.engine)
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 99 WHERE i_id = 3"))
        txn = slave.begin_read_only(VersionVector({"item": 1}))
        rs = sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 3")
        assert rs.scalar() == 99
        assert slave.pending_op_count() == 0  # applied on demand

    def test_old_tag_does_not_apply_newer_ops(self):
        master, slaves = build_pair()
        slave = slaves[0]
        sql = SqlExecutor(slave.engine)
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 99 WHERE i_id = 3"))
        txn = slave.begin_read_only(VersionVector({"item": 0}))
        rs = sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 3")
        assert rs.scalar() == 10  # original value
        assert slave.pending_op_count() == 1

    def test_version_inconsistency_abort(self):
        master, slaves = build_pair()
        slave = slaves[0]
        sql = SqlExecutor(slave.engine)
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 99 WHERE i_id = 3"))
        # A new reader materialises v1; an old reader must then abort.
        new_reader = slave.begin_read_only(VersionVector({"item": 1}))
        sql.execute(new_reader, "SELECT i_stock FROM item WHERE i_id = 3")
        old_reader = slave.begin_read_only(VersionVector({"item": 0}))
        with pytest.raises(VersionInconsistency):
            sql.execute(old_reader, "SELECT i_stock FROM item WHERE i_id = 3")
        assert slave.counters.get("slave.version_aborts") == 1

    def test_same_tag_readers_share_replica(self):
        master, slaves = build_pair()
        slave = slaves[0]
        sql = SqlExecutor(slave.engine)
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 99 WHERE i_id = 3"))
        tag = VersionVector({"item": 1})
        for _ in range(2):
            txn = slave.begin_read_only(tag)
            assert sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 3").scalar() == 99

    def test_insert_visible_via_index_at_tag(self):
        master, slaves = build_pair()
        slave = slaves[0]
        sql = SqlExecutor(slave.engine)
        commit_update(
            master, slaves,
            lambda s, t: s.execute(t, "INSERT INTO item (i_id, i_title, i_stock) VALUES (100, 'new', 1)"),
        )
        at_v1 = slave.begin_read_only(VersionVector({"item": 1}))
        assert sql.execute(at_v1, "SELECT COUNT(*) FROM item WHERE i_title = 'new'").scalar() == 1
        at_v0 = slave.begin_read_only(VersionVector({"item": 0}))
        assert sql.execute(at_v0, "SELECT COUNT(*) FROM item WHERE i_title = 'new'").scalar() == 0

    def test_scan_sees_snapshot(self):
        master, slaves = build_pair()
        slave = slaves[0]
        sql = SqlExecutor(slave.engine)
        commit_update(
            master, slaves,
            lambda s, t: s.execute(t, "INSERT INTO item (i_id, i_title, i_stock) VALUES (100, 'new', 1)"),
        )
        at_v0 = slave.begin_read_only(VersionVector({"item": 0}))
        assert sql.execute(at_v0, "SELECT COUNT(*) FROM item").scalar() == 20

    def test_untagged_read_applies_everything(self):
        master, slaves = build_pair()
        slave = slaves[0]
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 99 WHERE i_id = 3"))
        txn = slave.engine.begin()
        # Untagged (current-state) read, as used during promotion.
        from repro.engine.txn import TxnMode
        txn = slave.engine.begin(TxnMode.READ_ONLY)
        sql = SqlExecutor(slave.engine)
        assert sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 3").scalar() == 99

    def test_two_updates_same_page_applied_in_order(self):
        master, slaves = build_pair()
        slave = slaves[0]
        sql = SqlExecutor(slave.engine)
        for stock in (50, 60):
            commit_update(
                master, slaves,
                lambda s, t, stock=stock: s.execute(
                    t, "UPDATE item SET i_stock = ? WHERE i_id = 3", (stock,)
                ),
            )
        txn = slave.begin_read_only(VersionVector({"item": 2}))
        assert sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 3").scalar() == 60

    def test_intermediate_version_readable(self):
        master, slaves = build_pair()
        slave = slaves[0]
        sql = SqlExecutor(slave.engine)
        for stock in (50, 60):
            commit_update(
                master, slaves,
                lambda s, t, stock=stock: s.execute(
                    t, "UPDATE item SET i_stock = ? WHERE i_id = 3", (stock,)
                ),
            )
        txn = slave.begin_read_only(VersionVector({"item": 1}))
        assert sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 3").scalar() == 50


class TestApplyAllAndDiscard:
    def test_apply_all_pending(self):
        master, slaves = build_pair()
        slave = slaves[0]
        for i in range(5):
            commit_update(
                master, slaves,
                lambda s, t, i=i: s.execute(t, "UPDATE item SET i_stock = ? WHERE i_id = ?", (i, i)),
            )
        assert slave.pending_op_count() == 5
        assert slave.apply_all_pending() == 5
        assert slave.pending_op_count() == 0

    def test_discard_above_removes_unconfirmed(self):
        master, slaves = build_pair()
        slave = slaves[0]
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 1 WHERE i_id = 0"))
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 2 WHERE i_id = 0"))
        # Scheduler last saw v1; v2 was partially propagated.
        discarded = slave.discard_above(VersionVector({"item": 1}))
        assert discarded == 1
        assert slave.received_versions.get("item") == 1
        sql = SqlExecutor(slave.engine)
        txn = slave.begin_read_only(VersionVector({"item": 1}))
        assert sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 0").scalar() == 1

    def test_discard_reverts_index_entries(self):
        master, slaves = build_pair()
        slave = slaves[0]
        commit_update(
            master, slaves,
            lambda s, t: s.execute(t, "INSERT INTO item (i_id, i_title, i_stock) VALUES (100, 'ghost', 1)"),
        )
        slave.discard_above(VersionVector({"item": 0}))
        sql = SqlExecutor(slave.engine)
        txn = slave.begin_read_only(VersionVector({"item": 0}))
        assert sql.execute(txn, "SELECT COUNT(*) FROM item WHERE i_title = 'ghost'").scalar() == 0
        assert slave.engine.table("item").row_count == 20

    def test_discard_reverts_delete_marks(self):
        master, slaves = build_pair()
        slave = slaves[0]
        commit_update(master, slaves, lambda s, t: s.execute(t, "DELETE FROM item WHERE i_id = 5"))
        slave.discard_above(VersionVector({"item": 0}))
        sql = SqlExecutor(slave.engine)
        txn = slave.begin_read_only(VersionVector({"item": 0}))
        assert sql.execute(txn, "SELECT COUNT(*) FROM item WHERE i_id = 5").scalar() == 1


class TestApplyIsAllOrNothing:
    """An op that cannot be applied raises with the slave as it was: the
    queue keeps every op, ``pending_ops`` still counts them, the page is
    unwritten.  The ops are hand-built (no master emits them) and buffered
    in catch-up mode, which skips the eager index maintenance."""

    PAGE = page_id_of("orders", 0)

    def buffered(self, *ops):
        slave = SlaveReplica("s0")
        slave.engine.create_table(ORDERS)
        slave.catching_up = True
        for version, op in enumerate(ops, 1):
            slave.receive(WriteSet("m0", version, (op,), {"orders": version}, seq=version))
        return slave

    def assert_untouched(self, slave, queued):
        assert slave.pending_ops == slave.pending_op_count() == len(queued)
        assert [op for _version, op in slave.pending[self.PAGE]] == list(queued)
        page = slave.engine.store.get(self.PAGE)
        assert page.version == 0 and page.live_rows == 0
        assert not any(page.slots)

    def test_delta_update_of_a_deleted_slot(self):
        ops = (
            PageOp(self.PAGE, OpKind.DELETE, 0, None, (1, 1.0)),
            delta_update_op(self.PAGE, 0, (1, 1.0), (1, 2.0)),
        )
        slave = self.buffered(*ops)
        with pytest.raises(SchemaError, match="deleted slot"):
            slave.materialize_fully(self.PAGE)
        self.assert_untouched(slave, ops)

    def test_delta_update_of_an_empty_slot_after_a_write(self):
        ops = (
            PageOp(self.PAGE, OpKind.INSERT, 0, (1, 1.0)),
            delta_update_op(self.PAGE, 1, (2, 1.0), (2, 2.0)),
        )
        slave = self.buffered(*ops)
        with pytest.raises(SchemaError, match="empty slot"):
            slave.materialize_fully(self.PAGE)
        self.assert_untouched(slave, ops)


class TestMigrationSupport:
    def test_page_versions_include_pending(self):
        master, slaves = build_pair()
        slave = slaves[0]
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 9 WHERE i_id = 0"))
        versions = slave.page_versions()
        assert max(versions.values()) == 1

    def test_snapshot_newer_pages_only(self):
        master, slaves = build_pair(n_slaves=2)
        support, joiner = slaves
        commit_update(master, [support], lambda s, t: s.execute(t, "UPDATE item SET i_stock = 9 WHERE i_id = 0"))
        # Joiner is stale: asks for pages newer than its own versions.
        images = support.snapshot_pages_newer_than(joiner.page_versions())
        assert len(images) == 1
        assert images[0].version == 1

    def test_receive_page_drops_covered_ops(self):
        master, slaves = build_pair(n_slaves=2)
        support, joiner = slaves
        # Joiner receives the write-set (subscribed) AND the page image.
        commit_update(master, slaves, lambda s, t: s.execute(t, "UPDATE item SET i_stock = 9 WHERE i_id = 0"))
        images = support.snapshot_pages_newer_than({})
        for image in images:
            joiner.receive_page(image)
        assert joiner.pending_op_count() == 0  # ops covered by the page image
        sql = SqlExecutor(joiner.engine)
        txn = joiner.begin_read_only(VersionVector({"item": 1}))
        assert sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 0").scalar() == 9

    def test_slave_rejects_direct_writes(self):
        _master, slaves = build_pair()
        slave = slaves[0]
        txn = slave.engine.begin()
        sql = SqlExecutor(slave.engine)
        with pytest.raises(VersionInconsistency):
            sql.execute(txn, "UPDATE item SET i_stock = 1 WHERE i_id = 0")
