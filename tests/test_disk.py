"""Unit tests for the on-disk (InnoDB stand-in) database tier."""

import pytest

from repro.cluster.costs import CostConfig, CostModel
from repro.disk import DiskDatabase, DiskModel, WriteAheadLog
from repro.engine import Column, LockWait, TableSchema
from repro.scheduler.querylog import LoggedUpdate

ITEM = TableSchema(
    "item",
    [Column("i_id", "int", nullable=False), Column("i_stock", "int")],
    primary_key=("i_id",),
)


def make_db(pool_pages=4, node_id="d0"):
    db = DiskDatabase(node_id, pool_pages=pool_pages)
    db.create_table(ITEM)
    db.bulk_load("item", [{"i_id": i, "i_stock": 10} for i in range(100)])
    return db


class TestDiskModel:
    def test_random_read_cost(self):
        disk = DiskModel(seek_time=0.005, transfer_rate=1e6, page_bytes=1000)
        assert disk.random_read_cost(2) == pytest.approx(2 * (0.005 + 0.001))

    def test_sequential_cost(self):
        disk = DiskModel(seek_time=0.005, transfer_rate=1e6)
        assert disk.sequential_cost(1_000_000) == pytest.approx(1.005)
        assert disk.sequential_cost(0) == 0.0

    def test_fsync_cost(self):
        assert DiskModel(fsync_time=0.004).fsync_cost(3) == pytest.approx(0.012)


class TestWal:
    def test_append_and_fsync(self):
        wal = WriteAheadLog()
        wal.append_commit(1, [], [("q", ())])
        assert len(wal) == 1
        assert wal.fsync() == 1
        assert wal.fsync() == 0

    def test_bytes_since(self):
        wal = WriteAheadLog()
        wal.append_commit(1, [])
        wal.append_commit(2, [])
        assert sum(r.nbytes for r in wal.records_since(1)) == 48
        assert wal.total_bytes == 96

    def test_truncate(self):
        wal = WriteAheadLog()
        for i in range(4):
            wal.append_commit(i, [])
        wal.fsync()
        wal.truncate(2)
        assert len(wal) == 2
        assert wal.total_bytes == 96
        assert wal.synced_through == 2


class TestDiskDatabase:
    def test_query_roundtrip(self):
        db = make_db()
        txn = db.begin(read_only=True)
        assert db.execute(txn, "SELECT i_stock FROM item WHERE i_id = 5").scalar() == 10

    def test_commit_appends_wal_and_fsyncs(self):
        db = make_db()
        txn = db.begin()
        db.execute(txn, "UPDATE item SET i_stock = 9 WHERE i_id = 5")
        db.commit(txn)
        assert len(db.wal) == 1
        assert db.counters.get("wal.fsyncs") == 1
        assert db.wal.records_since(0)[0].queries[0][0].startswith("UPDATE")

    def test_read_only_commit_skips_wal(self):
        db = make_db()
        txn = db.begin(read_only=True)
        db.execute(txn, "SELECT i_stock FROM item WHERE i_id = 1")
        db.engine.commit(txn)
        assert len(db.wal) == 0

    def test_buffer_pool_misses_accumulate(self):
        db = make_db(pool_pages=1)  # 100 rows over 2 pages, pool of 1
        for i in (0, 99, 0, 99):
            txn = db.begin(read_only=True)
            db.execute(txn, "SELECT i_stock FROM item WHERE i_id = ?", (i,))
            db.engine.commit(txn)
        assert db.counters.get("cache.misses") >= 3

    def test_io_cost_since(self):
        # The on-disk tier's one disk-cost formula prices the counter delta.
        db = make_db(pool_pages=1)
        snap = db.counters.snapshot()
        txn = db.begin()
        db.execute(txn, "UPDATE item SET i_stock = 1 WHERE i_id = 99")
        db.commit(txn)
        assert CostModel(CostConfig()).disk_time(db.counters.delta_since(snap)) > 0

    def test_reader_blocks_on_writer(self):
        db = make_db()
        writer = db.begin()
        db.execute(writer, "UPDATE item SET i_stock = 1 WHERE i_id = 0")
        reader = db.begin(read_only=True)
        with pytest.raises(LockWait):
            db.execute(reader, "SELECT i_stock FROM item WHERE i_id = 0")
        db.abort(reader)
        db.commit(writer)

    def test_apply_logged_update(self):
        db = make_db()
        entry = LoggedUpdate(7, (("UPDATE item SET i_stock = ? WHERE i_id = ?", (3, 1)),))
        db.apply_logged_update(entry)
        txn = db.begin(read_only=True)
        assert db.execute(txn, "SELECT i_stock FROM item WHERE i_id = 1").scalar() == 3
        assert db.counters.get("disk.log_replays") == 1

    def test_abort_discards_queries(self):
        db = make_db()
        txn = db.begin()
        db.execute(txn, "UPDATE item SET i_stock = 1 WHERE i_id = 0")
        db.abort(txn)
        assert len(db.wal) == 0
        ro = db.begin(read_only=True)
        assert db.execute(ro, "SELECT i_stock FROM item WHERE i_id = 0").scalar() == 10
