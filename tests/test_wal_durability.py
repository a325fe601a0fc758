"""Unit tests for the crash-consistent durability layer.

Covers the content-carrying WAL (checksums, LSNs, fsync boundaries, the
crash loss model with torn writes / fsync lies / bit flips, torn-tail
truncation, the truncate-vs-synced clamp, checkpoint-coordinated
truncation), the hardened :class:`StableStore` (image checksums,
previous-generation fallback, ``.prev`` file fallback), the slave-side
WAL-redo receive (:meth:`restore_write_set`), and the full
restart-from-own-disk path (:func:`recover_from_local_disk`) including
the ghost filter.
"""

import dataclasses

import pytest

from repro.common.counters import Counters
from repro.common.errors import CorruptCheckpoint, SchemaError
from repro.common.ids import PageId
from repro.common.versions import VersionVector
from repro.core import MasterReplica, SlaveReplica
from repro.disk.wal import WalRecord, WriteAheadLog
from repro.engine import Column, TableSchema
from repro.failover import recover_from_local_disk
from repro.sql import SqlExecutor
from repro.storage.checkpoint import StableStore
from repro.storage.page import Page, PageStore

ITEM = TableSchema(
    "item",
    [
        Column("i_id", "int", nullable=False),
        Column("i_title", "str"),
        Column("i_stock", "int"),
    ],
    primary_key=("i_id",),
)


def build_pair():
    master = MasterReplica("m0")
    slave = SlaveReplica("s0")
    for replica in (master, slave):
        replica.engine.create_table(ITEM)
        replica.engine.bulk_load(
            "item", [{"i_id": i, "i_title": f"b{i}", "i_stock": 10} for i in range(20)]
        )
    return master, slave


def commit_update(master, stock, item_id=1):
    txn = master.begin_update()
    SqlExecutor(master.engine).execute(
        txn, "UPDATE item SET i_stock = ? WHERE i_id = ?", (stock, item_id)
    )
    ws = master.pre_commit(txn)
    master.finalize(txn)
    return ws


def log_write_set(wal, ws):
    return wal.append_commit(
        ws.txn_id, ws.ops, versions=ws.versions, master_id=ws.master_id, seq=ws.seq
    )


class TestWalRecords:
    def test_append_seals_checksum_and_lsn(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        records = [log_write_set(wal, commit_update(master, i)) for i in range(1, 4)]
        assert [r.lsn for r in records] == [0, 1, 2]
        assert all(r.checksum != 0 and r.verify() for r in records)
        assert wal.base_lsn == 0
        assert wal.counters.get("wal.records") == 3

    def test_tampered_record_fails_verify(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        record = log_write_set(wal, commit_update(master, 5))
        tampered = dataclasses.replace(record, txn_id=record.txn_id + 1)
        assert not tampered.verify()

    def test_unsealed_record_fails_verification(self):
        # append_commit never seals with 0, so a zero checksum is no seal:
        # such a record ends the recoverable prefix like a torn one.
        master, _slave = build_pair()
        wal = WriteAheadLog()
        log_write_set(wal, commit_update(master, 5))
        unsealed = WalRecord(txn_id=9, nbytes=48, lsn=wal.next_lsn)
        assert not unsealed.verify()
        wal._records.append(unsealed)
        valid, truncated = wal.recover_records()
        assert (len(valid), truncated) == (1, 1)

    def test_dedup_key_matches_write_set(self):
        master, _slave = build_pair()
        ws = commit_update(master, 5)
        record = log_write_set(WriteAheadLog(), ws)
        assert record.dedup_key() == ws.dedup_key()


class TestFsyncBoundaries:
    def test_fsync_advances_both_boundaries(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        log_write_set(wal, commit_update(master, 1))
        assert wal.synced_through == 0 and wal.durable_through == 0
        assert wal.fsync() == 1
        assert wal.synced_through == 1 and wal.durable_through == 1

    def test_fsync_lie_advances_only_believed(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        log_write_set(wal, commit_update(master, 1))
        wal.set_fsync_lies(True)
        wal.fsync()
        assert wal.synced_through == 1
        assert wal.durable_through == 0
        wal.set_fsync_lies(False)
        log_write_set(wal, commit_update(master, 2))
        wal.fsync()
        assert wal.durable_through == 2


class TestCrashModel:
    def test_crash_loses_unsynced_tail(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        log_write_set(wal, commit_update(master, 1))
        wal.fsync()
        lost_record = log_write_set(wal, commit_update(master, 2))
        lost = wal.crash()
        assert lost == [lost_record]
        assert len(wal) == 1
        records, truncated = wal.recover_records()
        assert truncated == 0 and len(records) == 1

    def test_fsync_lie_widens_the_loss(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        log_write_set(wal, commit_update(master, 1))
        wal.fsync()
        wal.set_fsync_lies(True)
        log_write_set(wal, commit_update(master, 2))
        log_write_set(wal, commit_update(master, 3))
        wal.fsync()  # acked, not persisted
        assert wal.synced_through == 3
        lost = wal.crash()
        assert len(lost) == 2  # everything past the honest fsync
        assert len(wal) == 1

    def test_torn_write_leaves_checksum_failing_tail(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        log_write_set(wal, commit_update(master, 1))
        wal.fsync()
        log_write_set(wal, commit_update(master, 2))
        log_write_set(wal, commit_update(master, 3))
        wal.arm_torn_write()
        lost = wal.crash()
        assert len(lost) == 2
        assert len(wal) == 2  # durable record + torn survivor
        records, truncated = wal.recover_records()
        assert truncated == 1  # torn tail cut at the bad checksum
        assert len(records) == 1
        assert wal.counters.get("wal.torn_tail_records") == 1

    def test_torn_write_on_fully_synced_log_tears_last_record(self):
        # The crash interrupted the final sector write: even a log with no
        # un-fsynced tail loses (exactly) its last record to the tear.
        master, _slave = build_pair()
        wal = WriteAheadLog()
        log_write_set(wal, commit_update(master, 1))
        log_write_set(wal, commit_update(master, 2))
        wal.fsync()
        wal.arm_torn_write()
        assert wal.crash() == []  # nothing was un-durable
        records, truncated = wal.recover_records()
        assert truncated == 1
        assert [r.lsn for r in records] == [0]

    def test_bitflip_truncates_everything_after_it(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        for i in range(1, 5):
            log_write_set(wal, commit_update(master, i))
        wal.fsync()
        assert wal.corrupt_record(1) == 1
        records, truncated = wal.recover_records()
        assert [r.lsn for r in records] == [0]
        assert truncated == 3  # redo cannot skip holes
        # A second scan is clean: the bad suffix is gone.
        assert wal.recover_records() == ([records[0]], 0)


class TestTruncateClamp:
    """Satellite: truncation can never outrun the fsynced/durable prefix."""

    def test_truncate_clamps_to_synced_boundary(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        for i in range(1, 4):
            log_write_set(wal, commit_update(master, i))
        wal.fsync()
        log_write_set(wal, commit_update(master, 9))  # un-fsynced
        assert wal.truncate(10) == 3  # clamped to synced_through, not len
        assert len(wal) == 1
        assert wal.synced_through == 0 and wal.durable_through == 0
        assert wal.fsync() == 1  # accounting never went negative

    def test_truncate_clamps_to_durable_boundary_under_lies(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        log_write_set(wal, commit_update(master, 1))
        wal.set_fsync_lies(True)
        wal.fsync()
        assert wal.truncate(1) == 0  # believed synced, not durable: kept
        assert len(wal) == 1

    def test_truncate_negative_and_zero_are_noops(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        log_write_set(wal, commit_update(master, 1))
        wal.fsync()
        assert wal.truncate(-5) == 0
        assert wal.truncate(0) == 0
        assert len(wal) == 1

    def test_truncate_preserves_byte_accounting(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        records = [log_write_set(wal, commit_update(master, i)) for i in range(1, 4)]
        wal.fsync()
        wal.truncate(2)
        assert wal.total_bytes == records[2].nbytes
        assert wal.base_lsn == 2


class TestCheckpointCoordinatedTruncation:
    def test_covered_prefix_dropped_uncovered_suffix_kept(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        for i in range(1, 5):
            log_write_set(wal, commit_update(master, i))  # item v1..v4
        wal.fsync()
        assert wal.truncate_for_checkpoint({"item": 2}) == 2
        assert [dict(r.versions)["item"] for r in wal.records_since(0)] == [3, 4]

    def test_versionless_record_blocks_truncation(self):
        # The on-disk tier's record shape: ops and queries, no versions.
        master, _slave = build_pair()
        wal = WriteAheadLog()
        wal.append_commit(1, commit_update(master, 1).ops)
        wal.fsync()
        assert wal.truncate_for_checkpoint({"item": 99}) == 0

    def test_unsynced_records_never_truncated(self):
        master, _slave = build_pair()
        wal = WriteAheadLog()
        log_write_set(wal, commit_update(master, 1))
        assert wal.truncate_for_checkpoint({"item": 99}) == 0


def make_page(table="item", number=0, version=3, rows=((0, ("a", 1)),)):
    page = Page(PageId(table, number), capacity=8, version=version)
    for slot, row in rows:
        page.put(slot, row)
    return page


class TestStableStoreFallback:
    def test_flush_seals_checksum_and_retains_previous(self):
        stable = StableStore()
        stable.flush_page(make_page(version=1))
        stable.flush_page(make_page(version=2))
        image = stable.load(PageId("item", 0))
        assert image.version == 2 and image.verify()

    def test_corrupt_current_falls_back_to_previous_generation(self):
        stable = StableStore()
        stable.flush_page(make_page(version=1, rows=((0, ("old", 1)),)))
        stable.flush_page(make_page(version=2, rows=((0, ("new", 2)),)))
        assert stable.corrupt_page(PageId("item", 0))
        store = PageStore()
        restored, _nbytes, corrupt = stable.recover_into(store)
        assert (restored, corrupt) == (1, 1)
        assert store.get(PageId("item", 0)).version == 1  # previous generation
        assert stable.counters.get("checkpoint.corrupt_pages") == 1
        assert stable.counters.get("checkpoint.fallback_pages") == 1

    def test_both_generations_bad_skips_page(self):
        stable = StableStore()
        stable.flush_page(make_page(version=1))
        stable.corrupt_page(PageId("item", 0))
        store = PageStore()
        restored, _nbytes, corrupt = stable.recover_into(store)
        assert (restored, corrupt) == (0, 1)
        assert not store.contains(PageId("item", 0))  # migration re-fetches

    def test_restore_into_is_unvalidated_legacy_path(self):
        stable = StableStore()
        stable.flush_page(make_page(version=4))
        store = PageStore()
        assert stable.restore_into(store) == 1
        assert store.get(PageId("item", 0)).version == 4


class TestFilePersistenceFallback:
    def test_prev_generation_fallback_on_corrupt_file(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        stable = StableStore()
        stable.flush_page(make_page(version=1))
        stable.save_to(path)  # generation 1
        stable.flush_page(make_page(version=2))
        stable.save_to(path)  # generation 2, gen 1 now at .prev
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"table": "item"}\n')  # corrupt the current file
        loaded = StableStore.load_from(path)
        assert loaded.load(PageId("item", 0)).version == 1
        assert loaded.counters.get("checkpoint.fallback_loads") == 1

    def test_no_prev_generation_raises_typed_error(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"table": "item"}\n')
        with pytest.raises(CorruptCheckpoint):
            StableStore.load_from(path)

    def test_corrupt_checkpoint_is_a_schema_error(self):
        # Pre-existing callers catch SchemaError; the typed subclass must
        # keep flowing through those handlers.
        assert issubclass(CorruptCheckpoint, SchemaError)

    def test_line_crc_detects_value_tampering(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        stable = StableStore()
        stable.flush_page(make_page(version=7))
        stable.save_to(path)
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content.replace('"version": 7', '"version": 8'))
        with pytest.raises(CorruptCheckpoint):
            StableStore.load_from(path)


class TestRestoreWriteSet:
    def test_covered_op_skipped_per_op_not_per_write_set(self):
        master, slave = build_pair()
        ws1 = commit_update(master, 5, item_id=1)
        ws2 = commit_update(master, 6, item_id=1)
        # The checkpoint image already covers ws1's page at v1.
        page = slave.engine.store.get_or_allocate(ws1.ops[0].page_id)
        page.version = 1
        slave.catching_up = True
        assert slave.restore_write_set(ws1) == 0  # fully covered
        assert slave.restore_write_set(ws2) == 1  # v2 > v1: buffered
        assert slave.pending_ops == 1
        assert slave.received_versions.get("item") == 2

    def test_moves_no_replication_counters(self):
        master, slave = build_pair()
        ws = commit_update(master, 5)
        before = slave.counters.snapshot()
        slave.catching_up = True
        slave.restore_write_set(ws)
        assert slave.counters.snapshot() == before

    def test_records_dedup_identity(self):
        master, slave = build_pair()
        ws = commit_update(master, 5)
        slave.catching_up = True
        slave.restore_write_set(ws)
        assert ws.dedup_key() in slave._seen_write_sets
        # The wire retransmit of the same identity is now filtered.
        slave.receive(ws)
        assert slave.counters.get("net.dups_ignored") == 1


class TestRecoverFromLocalDisk:
    def _crashed_state(self, commits=4, checkpoint_after=2):
        """Master commits N times; node checkpointed after the first K."""
        master, slave = build_pair()
        wal = WriteAheadLog(Counters())
        stable = StableStore()
        write_sets = []
        for i in range(1, commits + 1):
            ws = commit_update(master, i * 10, item_id=1)
            write_sets.append(ws)
            slave.receive(ws)
            log_write_set(wal, ws)
            wal.fsync()
            if i == checkpoint_after:
                page = slave.materialize_fully(ws.ops[0].page_id)
                stable.flush_page(page)
        return master, slave, wal, stable, write_sets

    def test_checkpoint_plus_wal_suffix_rebuilds_state(self):
        _master, slave, wal, stable, write_sets = self._crashed_state()
        recovery = recover_from_local_disk(slave, stable, wal)
        assert recovery.pages_restored == 1
        assert recovery.records_scanned == 4
        assert recovery.records_replayed == 4
        # Ops of the two checkpoint-covered records skip; two redo.
        assert recovery.ops_buffered == 2
        assert slave.received_versions.get("item") == 4
        slave.finish_catchup()
        page = slave.materialize_fully(write_sets[-1].ops[0].page_id)
        assert page.version == 4
        assert slave.counters.get("wal.replayed") == 4

    def test_torn_tail_is_truncated_before_redo(self):
        _master, slave, wal, stable, _write_sets = self._crashed_state()
        wal._durable_through = 3  # crash before the last record persisted
        wal.arm_torn_write()
        wal.crash()
        recovery = recover_from_local_disk(slave, stable, wal)
        assert recovery.torn_tail_records == 1
        assert recovery.records_replayed == 3
        assert slave.received_versions.get("item") == 3

    def test_ghost_filter_skips_unconfirmed_records(self):
        _master, slave, wal, stable, write_sets = self._crashed_state()
        confirmed = {(ws.master_id, ws.txn_id) for ws in write_sets[:3]}
        recovery = recover_from_local_disk(
            slave,
            stable,
            wal,
            is_confirmed=lambda r: (r.master_id, r.txn_id) in confirmed,
        )
        assert recovery.ghost_records_skipped == 1
        assert recovery.records_replayed == 3
        assert slave.received_versions.get("item") == 3
        assert slave.counters.get("wal.ghost_records_skipped") == 1
        # The ghost's identity was not recorded: the *real* commit that
        # later reuses those versions must not be treated as a duplicate.
        assert write_sets[-1].dedup_key() not in slave._seen_write_sets

    def test_catching_up_discard_above_skips_index_reverts(self):
        _master, slave, wal, stable, _write_sets = self._crashed_state()
        recover_from_local_disk(slave, stable, wal)
        assert slave.catching_up
        # Structural ghost sweep during restart: must not touch indexes
        # (none were maintained during catch-up redo) yet still drop ops.
        dropped = slave.discard_above(VersionVector({"item": 3}))
        assert dropped == 1
        assert slave.received_versions.get("item") == 3
