"""Tests for version garbage collection of deleted index entries."""

import pytest

from repro.common.versions import VersionVector
from repro.core import MasterReplica, SlaveReplica
from repro.engine import Column, IndexDef, TableSchema
from repro.engine.indexes import entries
from repro.sql import SqlExecutor

ITEM = TableSchema(
    "item",
    [Column("i_id", "int", nullable=False), Column("i_stock", "int")],
    primary_key=("i_id",),
)


def build():
    master = MasterReplica("m0")
    slave = SlaveReplica("s0")
    for engine in (master.engine, slave.engine):
        engine.create_table(ITEM)
        engine.bulk_load("item", [{"i_id": i, "i_stock": 10} for i in range(30)])
    return master, slave


def delete_row(master, slave, i):
    sql = SqlExecutor(master.engine)
    txn = master.begin_update(write_tables=["item"])
    sql.execute(txn, "DELETE FROM item WHERE i_id = ?", (i,))
    ws = master.pre_commit(txn)
    slave.receive(ws)
    master.finalize(txn)


class TestFloorWith:
    def test_elementwise_min(self):
        a = VersionVector({"x": 5, "y": 2})
        b = VersionVector({"x": 3, "y": 7, "z": 1})
        a.floor_with(b)
        assert a.as_dict() == {"x": 3, "y": 2, "z": 0}

    def test_missing_entries_floor_to_zero(self):
        a = VersionVector({"x": 5})
        a.floor_with(VersionVector())
        assert a.get("x") == 0


class TestSlaveGc:
    def test_deleted_entries_collected(self):
        master, slave = build()
        for i in range(5):
            delete_row(master, slave, i)
        latest = master.current_versions()
        entries_before = slave.engine.table("item").pk_index.entry_count
        removed = slave.gc_versions(latest)
        assert removed == 5
        assert slave.engine.table("item").pk_index.entry_count == entries_before - 5
        assert slave.counters.get("slave.gc_entries") == 5

    def test_active_reader_pins_old_versions(self):
        master, slave = build()
        delete_row(master, slave, 1)          # deleted at v1
        old_reader = slave.begin_read_only(VersionVector({"item": 0}))
        delete_row(master, slave, 2)          # deleted at v2
        latest = master.current_versions()    # v2
        removed = slave.gc_versions(latest)
        # Nothing collectible: the active reader's tag (v0) floors the
        # watermark below both deletes.
        assert removed == 0
        sql = SqlExecutor(slave.engine)
        assert sql.execute(old_reader, "SELECT COUNT(*) FROM item").scalar() == 30
        slave.engine.commit(old_reader)
        assert slave.gc_versions(latest) == 2

    def test_gc_idempotent(self):
        master, slave = build()
        delete_row(master, slave, 3)
        latest = master.current_versions()
        assert slave.gc_versions(latest) == 1
        assert slave.gc_versions(latest) == 0

    def test_live_entries_survive(self):
        master, slave = build()
        delete_row(master, slave, 3)
        slave.gc_versions(master.current_versions())
        sql = SqlExecutor(slave.engine)
        txn = slave.begin_read_only(master.current_versions())
        assert sql.execute(txn, "SELECT COUNT(*) FROM item").scalar() == 29


STOCKED = TableSchema(
    "item",
    [Column("i_id", "int", nullable=False), Column("i_stock", "int")],
    primary_key=("i_id",),
    indexes=[IndexDef("ix_stock", ("i_stock",))],
)


def build_indexed():
    master = MasterReplica("m0")
    slave = SlaveReplica("s0")
    for engine in (master.engine, slave.engine):
        engine.create_table(STOCKED)
        engine.bulk_load("item", [{"i_id": i, "i_stock": i % 7} for i in range(30)])
    return master, slave


def run_update(master, slaves, *statements, finalize=True):
    txn = master.begin_update(write_tables=["item"])
    for statement in statements:
        SqlExecutor(master.engine).execute(txn, statement)
    write_set = master.pre_commit(txn)
    for slave in slaves:
        slave.receive(write_set)
    if finalize:
        master.finalize(txn)
    return write_set


def index_buckets(index):
    if hasattr(index, "_buckets"):
        return list(index._buckets.values())
    return [bucket for _key, bucket in index._tree.items()]


def check_delete_counts(engine):
    """``committed_deletes`` is what GC's early return trusts: it must equal
    a recount over every bucket, for every index, at every point."""
    total = 0
    for table in engine.tables.values():
        for index in [table.pk_index, *table.indexes.values()]:
            decoded = [entry for bucket in index_buckets(index) for entry in entries(bucket)]
            truth = sum(isinstance(delete_v, int) for _loc, _i, delete_v, _w in decoded)
            assert index.committed_deletes == truth, index.name
            assert index.entry_count == len(decoded), index.name
            total += truth
    return total


class TestCommittedDeleteCount:
    def test_gc_skips_indexes_without_committed_deletes(self, monkeypatch):
        master, slave = build_indexed()
        table = slave.engine.table("item")
        walked = []
        for index in (table.pk_index, table.indexes["ix_stock"]):
            monkeypatch.setattr(
                index, "_gc_bucket",
                lambda bucket, watermark, _name=index.name: walked.append(_name) or 0,
            )
        assert slave.gc_versions(master.current_versions()) == 0
        assert walked == []
        # An update of the indexed column deletes one tree entry and
        # touches no primary-key entry: only that index is walked.
        run_update(master, [slave], "UPDATE item SET i_stock = 50 WHERE i_id = 4")
        assert check_delete_counts(slave.engine) == 1
        slave.gc_versions(master.current_versions())
        assert walked and set(walked) == {"ix_stock"}

    def test_counts_follow_master_and_slave_paths(self):
        master, slave = build_indexed()
        run_update(master, [slave], "UPDATE item SET i_stock = 50 WHERE i_id = 4")
        run_update(master, [slave], "DELETE FROM item WHERE i_id = 5")
        for engine in (master.engine, slave.engine):
            assert check_delete_counts(engine) == 3  # ix: update + delete, pk: delete
        latest = master.current_versions()
        assert slave.gc_versions(latest) == 3
        assert master.engine.gc_index_entries(latest) == 3
        for engine in (master.engine, slave.engine):
            assert check_delete_counts(engine) == 0
            assert engine.table("item").pk_index.entry_count == 29
            assert engine.table("item").indexes["ix_stock"].entry_count == 29

    def test_discard_then_gc(self):
        master, slave = build_indexed()
        run_update(master, [slave], "DELETE FROM item WHERE i_id = 1")
        confirmed = master.current_versions()
        # The master dies between broadcast and commit: the slave rolls the
        # write-set back, and with it the delete marks GC would have found.
        run_update(
            master, [slave],
            "DELETE FROM item WHERE i_id = 2",
            "UPDATE item SET i_stock = 60 WHERE i_id = 3",
            finalize=False,
        )
        assert check_delete_counts(slave.engine) == 5
        assert slave.discard_above(confirmed) == 2
        assert check_delete_counts(slave.engine) == 2
        entries = slave.engine.table("item").pk_index.entry_count
        # Even at a watermark past the discarded versions only the
        # confirmed delete goes; the unmarked entries are live again.
        assert slave.gc_versions(master.current_versions()) == 2
        assert slave.engine.table("item").pk_index.entry_count == entries - 1
        assert check_delete_counts(slave.engine) == 0
        assert slave.gc_versions(master.current_versions()) == 0
        txn = slave.begin_read_only(confirmed)
        assert SqlExecutor(slave.engine).execute(txn, "SELECT COUNT(*) FROM item").scalar() == 29

    def test_copied_replica_collects_what_its_source_would(self):
        master, slave = build_indexed()
        run_update(master, [slave], "DELETE FROM item WHERE i_id = 1")
        run_update(master, [slave], "UPDATE item SET i_stock = 60 WHERE i_id = 3")
        slave.apply_all_pending()
        twin = SlaveReplica("s1")
        twin.engine.create_table(STOCKED)
        twin.engine.table("item").copy_from(slave.engine.table("item"))
        assert check_delete_counts(twin.engine) == check_delete_counts(slave.engine) == 3
        latest = master.current_versions()
        assert twin.gc_versions(latest) == slave.gc_versions(latest) == 3
        assert check_delete_counts(twin.engine) == 0
        assert twin.counters.get("slave.gc_entries") == 3

    def test_rebuilt_indexes_start_without_deletes(self):
        master, slave = build_indexed()
        run_update(master, [slave], "DELETE FROM item WHERE i_id = 1")
        slave.apply_all_pending()
        slave.engine.rebuild_all_indexes()
        assert check_delete_counts(slave.engine) == 0
        assert slave.gc_versions(master.current_versions()) == 0
        assert slave.engine.table("item").pk_index.entry_count == 29


class TestClusterGcDaemon:
    def test_daemon_bounds_entry_growth(self):
        from repro.cluster.simcluster import SimDmvCluster
        from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

        scale = TpcwScale(num_items=60, num_customers=173)
        cluster = SimDmvCluster(TPCW_SCHEMAS, num_slaves=2, gc_period=5.0)
        cluster.load(TpcwDataGenerator(scale, seed=2))
        cluster.warm_all_caches()
        cluster.start_browsers(8, MIXES["ordering"], scale, think_time_mean=0.3)
        cluster.run(until=60.0)
        collected = sum(
            n.counters.get("slave.gc_entries") for n in cluster.nodes.values()
        )
        # The ordering mix clears cart lines constantly: GC must collect.
        assert collected > 0
