"""Unit tests for the write-set replication fast path.

Covers delta-encoded UPDATE ops (wire shrinkage, application, eager index
maintenance and its rollback), wire-size memoization on the frozen
dataclasses, group-commit broadcast batching in the simulated cluster, and
the page free-slot hint.
"""

from repro.common.ids import PageId
from repro.common.versions import VersionVector
from repro.core import MasterReplica, SlaveReplica
from repro.engine import Column, IndexDef, TableSchema
from repro.sql import SqlExecutor
from repro.storage.ops import (
    ENCODE_STATS,
    OpKind,
    PageOp,
    apply_op,
    bytes_saved,
    delta_update_op,
    encoded_size,
)
from repro.storage.page import Page

ITEM = TableSchema(
    "item",
    [
        Column("i_id", "int", nullable=False),
        Column("i_title", "str"),
        Column("i_subject", "str"),
        Column("i_stock", "int"),
    ],
    primary_key=("i_id",),
    indexes=[IndexDef("ix_subject", ("i_subject", "i_id"))],
)


def build_pair(n_slaves=1):
    master = MasterReplica("m0")
    slaves = [SlaveReplica(f"s{i}") for i in range(n_slaves)]
    rows = [
        {"i_id": i, "i_title": f"title-{i:04d}-padding-padding", "i_subject": "ARTS",
         "i_stock": 10}
        for i in range(8)
    ]
    for node in [master.engine] + [s.engine for s in slaves]:
        node.create_table(ITEM)
        node.bulk_load("item", rows)
    return master, slaves


def one_update(master, slaves, sql_text, params=()):
    sql = SqlExecutor(master.engine)
    txn = master.begin_update()
    sql.execute(txn, sql_text, params)
    ws = master.pre_commit(txn)
    for slave in slaves:
        slave.receive(ws)
    master.finalize(txn)
    return ws


class TestDeltaEncoding:
    def test_update_ships_delta_not_full_images(self):
        master, slaves = build_pair()
        ws = one_update(master, slaves, "UPDATE item SET i_stock = 3 WHERE i_id = 1")
        (op,) = ws.ops
        assert op.is_delta and op.row is None and op.before is None
        stock_pos = ITEM.position("i_stock")
        assert op.delta_mask == 1 << stock_pos
        assert op.delta == (3,)
        assert op.index_before == ()  # no indexed column changed

    def test_delta_much_smaller_than_full_image(self):
        before = (1, "title-0001-padding-padding", "ARTS", 10)
        after = (1, "title-0001-padding-padding", "ARTS", 3)
        delta = delta_update_op(PageId("item", 0), 1, before, after, ((2, 0),))
        full = PageOp(PageId("item", 0), OpKind.UPDATE, 1, after, before)
        assert encoded_size(delta) < encoded_size(full) / 2
        assert bytes_saved(delta) == encoded_size(full) - encoded_size(delta)

    def test_delta_carries_index_before_columns_when_key_changes(self):
        master, slaves = build_pair()
        ws = one_update(
            master, slaves, "UPDATE item SET i_subject = 'HISTORY' WHERE i_id = 2"
        )
        (op,) = ws.ops
        positions = dict(op.index_before)
        assert positions[ITEM.position("i_subject")] == "ARTS"
        assert positions[ITEM.position("i_id")] == 2

    def test_apply_delta_reconstructs_after_image(self):
        page = Page(PageId("t", 0), 4)
        page.put(0, (7, "x", "old", 1))
        op = delta_update_op(PageId("t", 0), 0, (7, "x", "old", 1), (7, "x", "new", 5))
        apply_op(page, op)
        assert page.get(0) == (7, "x", "new", 5)

    def test_slave_index_follows_delta_update(self):
        master, slaves = build_pair()
        one_update(master, slaves, "UPDATE item SET i_subject = 'MAPS' WHERE i_id = 1")
        slave = slaves[0]
        tag = master.current_versions()
        sql = SqlExecutor(slave.engine)
        ro = slave.begin_read_only(tag)
        got = sql.execute(ro, "SELECT i_id FROM item WHERE i_subject = 'MAPS'")
        slave.engine.commit(ro)
        assert [r[0] for r in got.rows] == [1]

    def test_discard_above_reverts_delta_index_entries(self):
        master, slaves = build_pair()
        slave = slaves[0]
        before_tag = master.current_versions()
        one_update(master, slaves, "UPDATE item SET i_subject = 'MAPS' WHERE i_id = 1")
        dropped = slave.discard_above(before_tag)
        assert dropped == 1
        sql = SqlExecutor(slave.engine)
        ro = slave.begin_read_only(before_tag)
        got = sql.execute(ro, "SELECT i_id FROM item WHERE i_subject = 'ARTS' ORDER BY i_id")
        slave.engine.commit(ro)
        assert [r[0] for r in got.rows] == list(range(8))


class TestSizeMemoization:
    def test_writeset_size_computed_once_across_slaves(self):
        master, slaves = build_pair(n_slaves=3)
        sql = SqlExecutor(master.engine)
        txn = master.begin_update()
        sql.execute(txn, "UPDATE item SET i_stock = 1 WHERE i_id = 0")
        ws = master.pre_commit(txn)
        start = dict(ENCODE_STATS)
        for _ in range(3):  # one "hop" per slave, as the cluster layers do
            ws.byte_size()
        for slave in slaves:
            slave.receive(ws)
        master.finalize(txn)
        assert ENCODE_STATS["writeset_sizes"] - start["writeset_sizes"] == 1
        assert ENCODE_STATS["op_sizes"] - start["op_sizes"] == len(ws.ops)
        ws.bytes_saved()
        ws.bytes_saved()
        assert ENCODE_STATS["op_sizes"] - start["op_sizes"] == len(ws.ops)

    def test_op_size_cached(self):
        op = PageOp(PageId("t", 0), OpKind.INSERT, 0, (1, "abc", "d", 2))
        start = ENCODE_STATS["op_sizes"]
        first = encoded_size(op)
        assert encoded_size(op) == first
        assert ENCODE_STATS["op_sizes"] - start == 1


class TestGroupCommitBatching:
    def _cluster(self):
        from repro.cluster.simcluster import SimDmvCluster

        cluster = SimDmvCluster([ITEM], num_slaves=1, seed=1)
        rows = [
            {"i_id": i, "i_title": f"t{i}", "i_subject": "ARTS", "i_stock": 10}
            for i in range(8)
        ]
        for node in cluster.nodes.values():
            node.engine.bulk_load("item", rows)
        return cluster

    def _write_set(self, master, i):
        sql = SqlExecutor(master.engine)
        txn = master.begin_update()
        sql.execute(txn, "UPDATE item SET i_stock = ? WHERE i_id = ?", (i, i))
        ws = master.pre_commit(txn)
        master.finalize(txn)
        return ws

    def test_concurrent_sends_share_batches(self):
        cluster = self._cluster()
        master = cluster.nodes["m0"].master
        target = cluster.nodes["s0"]
        channel = cluster.pipeline.channel("m0", target)
        write_sets = [self._write_set(master, i) for i in range(4)]
        acks = []

        def driver():
            for ws in write_sets:
                acks.append(channel.send(ws))
            yield cluster.sim.timeout(0)

        cluster.sim.spawn(driver(), name="driver")
        cluster.run(until=1.0)
        # All four sends land in the same instant, before the channel's
        # drain process wakes: one batch carries all of them.
        assert target.counters.get("net.write_sets_sent") == 4
        assert target.counters.get("net.batches") == 1
        assert target.counters.get("net.bytes_shipped") > 0
        assert target.counters.get("net.bytes_saved_delta") > 0
        assert all(ack.value for ack in acks)
        assert target.slave.pending_op_count() == 4

    def test_sends_while_in_flight_form_second_batch(self):
        cluster = self._cluster()
        master = cluster.nodes["m0"].master
        target = cluster.nodes["s0"]
        channel = cluster.pipeline.channel("m0", target)
        write_sets = [self._write_set(master, i) for i in range(4)]
        acks = []

        def driver():
            acks.append(channel.send(write_sets[0]))
            # Let the first batch get onto the wire, then pile on while it
            # is still in flight: the stragglers share one follow-up batch.
            yield cluster.sim.timeout(1e-6)
            for ws in write_sets[1:]:
                acks.append(channel.send(ws))

        cluster.sim.spawn(driver(), name="driver")
        cluster.run(until=1.0)
        assert target.counters.get("net.write_sets_sent") == 4
        assert target.counters.get("net.batches") == 2
        assert all(ack.value for ack in acks)

    def test_ack_false_when_target_dead(self):
        cluster = self._cluster()
        master = cluster.nodes["m0"].master
        target = cluster.nodes["s0"]
        channel = cluster.pipeline.channel("m0", target)
        ws = self._write_set(master, 1)
        target.alive = False
        acks = []

        def driver():
            acks.append(channel.send(ws))
            yield cluster.sim.timeout(0)

        cluster.sim.spawn(driver(), name="driver")
        cluster.run(until=1.0)
        assert acks[0].value is False

    def test_commit_update_still_replicates_end_to_end(self):
        cluster = self._cluster()
        node = cluster.nodes["m0"]
        sql = SqlExecutor(node.engine)
        txn = node.master.begin_update(write_tables=["item"])
        sql.execute(txn, "UPDATE item SET i_stock = 99 WHERE i_id = 3")

        def driver():
            yield cluster.sim.spawn(
                cluster.pipeline.commit_update(node, txn), name="commit"
            )

        cluster.sim.spawn(driver(), name="driver")
        cluster.run(until=2.0)
        slave = cluster.nodes["s0"].slave
        assert slave.received_versions.get("item") == 1
        tag = VersionVector({"item": 1})
        ssql = SqlExecutor(cluster.nodes["s0"].engine)
        ro = slave.begin_read_only(tag)
        got = ssql.execute(ro, "SELECT i_stock FROM item WHERE i_id = 3")
        cluster.nodes["s0"].engine.commit(ro)
        assert got.rows == [(99,)]


class TestFreeSlotHint:
    def test_matches_linear_scan_reference(self):
        import random

        rng = random.Random(7)
        page = Page(PageId("t", 0), 16)
        for step in range(400):
            expected = next((i for i, r in enumerate(page.slots) if r is None), None)
            if not page.full:
                assert page.first_free_slot() == expected
            else:
                assert page.first_free_slot() is None
            slot = rng.randrange(16)
            if page.get(slot) is None and not page.full:
                free = page.first_free_slot()
                page.put(free, (step,))
            else:
                page.put(slot, None)

    def test_full_page_returns_none(self):
        page = Page(PageId("t", 0), 4)
        for i in range(4):
            page.put(page.first_free_slot(), (i,))
        assert page.first_free_slot() is None
        page.put(2, None)
        assert page.first_free_slot() == 2


class TestCoalescingCounters:
    def test_deep_queue_applies_once_per_slot(self):
        master, slaves = build_pair()
        slave = slaves[0]
        for i in range(50):
            one_update(master, slaves, "UPDATE item SET i_stock = ? WHERE i_id = 1", (i,))
        assert slave.pending_op_count() == 50
        slave.apply_all_pending()
        # 50 buffered single-slot updates collapse to one page write.
        assert slave.counters.get("slave.ops_applied") == 1
        assert slave.counters.get("slave.ops_coalesced") == 49
        page = next(iter(master.engine.store.all_pages()))
        mirror = slave.engine.store.get(page.page_id)
        assert mirror.slots == page.slots
        assert mirror.version == page.version
