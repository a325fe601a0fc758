"""Unit tests for the failover building blocks (pure, no simulation)."""

import pytest

from repro.common.errors import NodeUnavailable
from repro.common.versions import VersionVector
from repro.core import MasterReplica, SlaveReplica
from repro.engine import Column, HeapEngine, TableSchema, TxnMode
from repro.disk.wal import WriteAheadLog
from repro.engine.engine import OccReadValidation
from repro.failover import (
    cleanup_after_master_failure,
    elect_new_master,
    ghost_wal_records,
    integrate_stale_node,
    promote_slave_to_master,
    restore_from_checkpoint,
    ship_page_ids,
)
from repro.sql import SqlExecutor
from repro.storage import PageCache, StableStore
from repro.storage.checkpoint import FuzzyCheckpointer

ITEM = TableSchema(
    "item",
    [Column("i_id", "int", nullable=False), Column("i_stock", "int")],
    primary_key=("i_id",),
)


def build(n_slaves=2, rows=40):
    master = MasterReplica("m0")
    slaves = [SlaveReplica(f"s{i}") for i in range(n_slaves)]
    data = [{"i_id": i, "i_stock": 10} for i in range(rows)]
    for node in [master.engine] + [s.engine for s in slaves]:
        node.create_table(ITEM)
        node.bulk_load("item", data)
    return master, slaves


def do_update(master, slaves, i, stock):
    sql = SqlExecutor(master.engine)
    txn = master.begin_update(write_tables=["item"])
    sql.execute(txn, "UPDATE item SET i_stock = ? WHERE i_id = ?", (stock, i))
    ws = master.pre_commit(txn)
    for slave in slaves:
        slave.receive(ws)
    master.finalize(txn)
    return ws


class TestElection:
    def test_lowest_id_wins(self):
        _, slaves = build(3)
        assert elect_new_master(slaves).node_id == "s0"

    def test_no_candidates_raises(self):
        with pytest.raises(NodeUnavailable):
            elect_new_master([])

    def test_freshest_candidate_beats_lower_id(self):
        # Quorum acks: s0 (lowest id) missed the last two commits while s1
        # and s2 received them.  Electing s0 by id would silently discard
        # confirmed history; the election must prefer the freshest replica.
        master, slaves = build(3)
        do_update(master, slaves, 1, 11)  # all three receive v1
        do_update(master, [slaves[1], slaves[2]], 2, 12)
        do_update(master, [slaves[1], slaves[2]], 3, 13)
        assert slaves[0].received_versions.total() < slaves[1].received_versions.total()
        assert elect_new_master(slaves).node_id == "s1"  # freshest, id tiebreak

    def test_id_tiebreak_among_equally_fresh(self):
        master, slaves = build(3)
        do_update(master, slaves, 1, 11)
        assert elect_new_master(list(reversed(slaves))).node_id == "s0"


class TestMasterRecovery:
    def test_cleanup_discards_unconfirmed(self):
        master, slaves = build(2)
        do_update(master, slaves, 1, 50)  # confirmed (v1)
        do_update(master, slaves, 2, 60)  # partially propagated (v2)
        confirmed = VersionVector({"item": 1})
        dropped = cleanup_after_master_failure(slaves, confirmed)
        assert dropped == 2  # one op on each slave
        for slave in slaves:
            assert slave.received_versions.get("item") == 1

    def test_promotion_applies_pending_and_switches_role(self):
        master, slaves = build(2)
        do_update(master, slaves, 1, 50)
        confirmed = VersionVector({"item": 1})
        new_master = promote_slave_to_master(slaves[0], confirmed)
        assert new_master.engine is slaves[0].engine
        assert new_master.current_versions() == confirmed
        # The promoted node can now execute updates.
        sql = SqlExecutor(new_master.engine)
        txn = new_master.begin_update(write_tables=["item"])
        sql.execute(txn, "UPDATE item SET i_stock = 99 WHERE i_id = 1")
        ws = new_master.pre_commit(txn)
        assert ws.versions == {"item": 2}
        new_master.finalize(txn)

    def test_promotion_without_confirmed_uses_received(self):
        master, slaves = build(1)
        do_update(master, slaves, 1, 50)
        new_master = promote_slave_to_master(slaves[0])
        assert new_master.current_versions().get("item") == 1

    def test_promotion_reuses_versions_of_discarded_ghosts(self):
        # After cleanup the promoted master's next commit claims the same
        # version number the discarded write-set carried — the reuse that
        # forces restart-time WAL redo to filter on commit identity, not
        # version comparison alone.
        master, slaves = build(2)
        do_update(master, slaves, 1, 50)  # confirmed v1
        ghost = do_update(master, slaves, 2, 60)  # unacknowledged v2
        cleanup_after_master_failure(slaves, VersionVector({"item": 1}))
        new_master = promote_slave_to_master(slaves[0], VersionVector({"item": 1}))
        sql = SqlExecutor(new_master.engine)
        txn = new_master.begin_update(write_tables=["item"])
        sql.execute(txn, "UPDATE item SET i_stock = 77 WHERE i_id = 3")
        ws = new_master.pre_commit(txn)
        new_master.finalize(txn)
        assert ws.versions == ghost.versions == {"item": 2}
        assert ws.dedup_key() != ghost.dedup_key() or ws.txn_id != ghost.txn_id

    def test_promotion_installs_occ(self):
        master, slaves = build(2)
        do_update(master, slaves, 1, 50)
        new_master = promote_slave_to_master(slaves[0], VersionVector({"item": 1}))
        assert isinstance(new_master.engine.controller, OccReadValidation)


class TestGhostClassification:
    def _wal_with(self, master, slaves, count):
        wal = WriteAheadLog()
        for i in range(1, count + 1):
            ws = do_update(master, slaves, i, i * 10)
            wal.append_commit(
                ws.txn_id, ws.ops, versions=ws.versions,
                master_id=ws.master_id, seq=ws.seq,
            )
        return wal

    def test_records_above_confirmed_are_ghost_candidates(self):
        master, slaves = build(1)
        wal = self._wal_with(master, slaves, 3)
        ghosts = ghost_wal_records(
            wal.records_since(0), VersionVector({"item": 1})
        )
        assert [dict(g.versions)["item"] for g in ghosts] == [2, 3]

    def test_fully_covered_records_are_never_ghosts(self):
        master, slaves = build(1)
        wal = self._wal_with(master, slaves, 2)
        assert ghost_wal_records(
            wal.records_since(0), VersionVector({"item": 5})
        ) == []

    def test_versionless_records_are_skipped(self):
        # Size-only disk-tier records carry no redo content: nothing to
        # resurrect, so they are not ghost candidates.
        from repro.disk.wal import WalRecord

        assert ghost_wal_records(
            [WalRecord(txn_id=1, nbytes=48)], VersionVector()
        ) == []


class TestCheckpointRestore:
    def test_roundtrip_through_stable_store(self):
        master, slaves = build(1)
        slave = slaves[0]
        do_update(master, slaves, 1, 77)
        slave.apply_all_pending()
        stable = StableStore()
        ckpt = FuzzyCheckpointer(slave.engine.store, stable)
        ckpt.full_checkpoint(lambda page: False)
        # Simulate reboot + restore.
        restored = restore_from_checkpoint(slave, stable)
        assert restored == len(stable)
        assert slave.catching_up
        # After finish_catchup the node serves correct reads again.
        slave.finish_catchup()
        sql = SqlExecutor(slave.engine)
        txn = slave.begin_read_only(VersionVector({"item": 1}))
        assert sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 1").scalar() == 77

    def test_restore_clears_prior_pending(self):
        master, slaves = build(1)
        slave = slaves[0]
        stable = StableStore()
        FuzzyCheckpointer(slave.engine.store, stable).full_checkpoint(lambda p: False)
        do_update(master, slaves, 1, 50)
        assert slave.pending_op_count() == 1
        restore_from_checkpoint(slave, stable)
        assert slave.pending_op_count() == 0


class TestIntegration:
    def test_stale_node_catches_up(self):
        master, slaves = build(2)
        support, joiner = slaves
        # Joiner misses three updates entirely (it was down).
        for i, stock in ((1, 11), (2, 22), (3, 33)):
            do_update(master, [support], i, stock)
        joiner.catching_up = True
        stats = integrate_stale_node(joiner, support)
        assert stats.pages_sent >= 1  # every page holding a changed row
        assert stats.bytes_sent > 0
        assert len(stats.page_ids) == stats.pages_sent
        sql = SqlExecutor(joiner.engine)
        txn = joiner.begin_read_only(VersionVector({"item": 3}))
        assert sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 2").scalar() == 22

    def test_integration_with_concurrent_subscription(self):
        master, slaves = build(2)
        support, joiner = slaves
        do_update(master, [support], 1, 11)        # missed while down
        joiner.catching_up = True
        do_update(master, slaves, 2, 22)           # received after subscribing
        stats = integrate_stale_node(joiner, support)
        # The subscribed op was covered by the page transfer (support had
        # materialised it) — either dropped or index-applied, never both.
        sql = SqlExecutor(joiner.engine)
        txn = joiner.begin_read_only(VersionVector({"item": 2}))
        assert sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 1").scalar() == 11
        assert sql.execute(txn, "SELECT i_stock FROM item WHERE i_id = 2").scalar() == 22
        assert not joiner.catching_up


class TestWarmup:
    def test_ship_page_ids_copies_hottest(self):
        from repro.common.ids import PageId

        active = PageCache(100)
        backup = PageCache(100)
        for n in range(10):
            active.touch(PageId("item", n))
        shipped = ship_page_ids(active, backup)
        assert len(shipped) == 10
        assert backup.resident_count() == 10
        # LRU order mirrors the active cache: hottest last-touched first.
        assert backup.hottest(1) == active.hottest(1)

    def test_ship_with_limit(self):
        from repro.common.ids import PageId

        active = PageCache(100)
        backup = PageCache(100)
        for n in range(10):
            active.touch(PageId("item", n))
        shipped = ship_page_ids(active, backup, limit=3)
        assert len(shipped) == 3
        assert backup.resident_count() == 3
