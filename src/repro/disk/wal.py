"""Content-carrying write-ahead log (physical redo).

Each record holds the actual :class:`~repro.storage.ops.PageOp` list of one
committed (or pre-committed) transaction, stamped with a monotone LSN and a
CRC32 checksum over its canonical serialization.  The log distinguishes the
*believed*-fsynced prefix (``synced_through``, what ``fsync()`` reported)
from the *truly durable* prefix (``_durable_through``): the two only differ
under the fsync-lie storage-fault mode, where the device acknowledges a
flush without persisting it.

The crash/recovery model is explicit:

- :meth:`crash` applies the storage loss model — everything beyond the
  durable prefix is lost; if a torn write was armed, the first lost record
  survives as a partially-written (checksum-failing) tail.
- :meth:`recover_records` is the restart-time scan: records are validated
  in LSN order and the log is truncated at the first bad checksum (the
  torn-tail rule — a redo log cannot skip holes).
- :meth:`truncate` drops a checkpoint-covered prefix, clamped so that
  un-fsynced or un-durable records are never silently discarded and the
  fsync accounting can never go negative.

The cost model still uses the same size accounting (48-byte record header
plus the delta-encoded op payload) so log-write and replay-I/O charges are
unchanged.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.common.counters import Counters
from repro.obs import NULL_TRACER, Tracer
from repro.storage.ops import PageOp, ops_size

#: Service time of one WAL group force on the in-memory tier
#: (battery-backed/NVMe log device, not the cold-tier spindle model).
WAL_FSYNC_TIME = 0.0005

VersionsArg = Union[Mapping[str, int], Sequence[Tuple[str, int]]]


def _canonical_versions(versions: VersionsArg) -> Tuple[Tuple[str, int], ...]:
    if isinstance(versions, Mapping):
        return tuple(sorted(versions.items()))
    return tuple(sorted(versions))


def _record_checksum(
    lsn: int,
    txn_id: int,
    master_id: str,
    seq: int,
    versions: Tuple[Tuple[str, int], ...],
    ops: Tuple[PageOp, ...],
    queries: Tuple[Tuple[str, Tuple], ...],
) -> int:
    payload = repr((lsn, txn_id, master_id, seq, versions, ops, queries))
    return zlib.crc32(payload.encode("utf-8")) or 1


@dataclass(frozen=True)
class WalRecord:
    """One redo record: the ops of a single transaction, sealed by a CRC."""

    txn_id: int
    nbytes: int
    queries: Tuple[Tuple[str, Tuple], ...] = ()
    lsn: int = 0
    ops: Tuple[PageOp, ...] = ()
    versions: Tuple[Tuple[str, int], ...] = ()  # sorted (table, version)
    master_id: str = ""
    seq: int = 0
    checksum: int = 0

    def verify(self) -> bool:
        """True if the stored checksum matches the record content.

        :meth:`WriteAheadLog.append_commit` never seals a record with 0, so
        an unsealed record (checksum 0) fails and ends the recoverable
        prefix like any torn one.
        """
        return self.checksum == _record_checksum(
            self.lsn,
            self.txn_id,
            self.master_id,
            self.seq,
            self.versions,
            self.ops,
            self.queries,
        )

    def dedup_key(self) -> Tuple[str, int, Tuple[Tuple[str, int], ...]]:
        """The replication dedup identity of the logged write-set."""
        return (self.master_id, self.seq, self.versions)


class WriteAheadLog:
    """Append-only checksummed redo log with an explicit durable prefix."""

    def __init__(
        self, counters: Optional[Counters] = None, tracer: Tracer = NULL_TRACER
    ) -> None:
        self.counters = counters if counters is not None else Counters()
        self.tracer = tracer
        self._records: List[WalRecord] = []
        self.total_bytes = 0
        self.synced_through = 0  # index of the first record believed un-fsynced
        self._durable_through = 0  # index of the first record NOT on the platter
        self.next_lsn = 0
        self.fsync_lies = False  # storage acks fsync without persisting
        self._torn_armed = False  # next crash tears the first lost record
        self._corrupt_lsns: Set[int] = set()  # latent bit-flipped records

    @property
    def base_lsn(self) -> int:
        """LSN of the oldest retained record (== ``next_lsn`` when empty)."""
        return self._records[0].lsn if self._records else self.next_lsn

    @property
    def durable_through(self) -> int:
        """Index of the first record that is *not* truly on stable storage."""
        return self._durable_through

    def append_commit(
        self,
        txn_id: int,
        ops: Sequence[PageOp],
        queries: Sequence[Tuple[str, Tuple]] = (),
        versions: VersionsArg = (),
        master_id: str = "",
        seq: int = 0,
    ) -> WalRecord:
        ops = tuple(ops)
        queries = tuple(queries)
        canonical = _canonical_versions(versions)
        lsn = self.next_lsn
        self.next_lsn += 1
        checksum = _record_checksum(
            lsn, txn_id, master_id, seq, canonical, ops, queries
        )
        record = WalRecord(
            txn_id,
            48 + ops_size(ops),
            queries,
            lsn=lsn,
            ops=ops,
            versions=canonical,
            master_id=master_id,
            seq=seq,
            checksum=checksum,
        )
        self._records.append(record)
        self.total_bytes += record.nbytes
        self.counters.add("wal.records")
        self.counters.add("wal.bytes", record.nbytes)
        return record

    def fsync(self) -> int:
        """Force the log; returns how many records were flushed.

        Advances the believed-synced boundary always; the durable boundary
        only when the storage is honest (``fsync_lies`` is False).
        """
        flushed = len(self._records) - self.synced_through
        self.synced_through = len(self._records)
        if not self.fsync_lies:
            self._durable_through = len(self._records)
        self.counters.add("wal.fsyncs")
        if self.tracer.enabled:
            self.tracer.instant("flush_fsync", kind="wal", records=flushed)
        return flushed

    def records_since(self, index: int) -> List[WalRecord]:
        return self._records[index:]

    def truncate(self, keep_from: int) -> int:
        """Drop records before ``keep_from`` (checkpoint advanced).

        ``keep_from`` is clamped to the fsynced *and* durable boundaries:
        truncation is checkpoint-coordinated, and a checkpoint can only
        cover records that actually reached stable storage — dropping an
        unsynced record here would both lose redo and drive the
        ``records_since``/fsync accounting negative.  Returns the number of
        records actually dropped.
        """
        keep_from = max(
            0,
            min(keep_from, self.synced_through, self._durable_through, len(self._records)),
        )
        if keep_from == 0:
            return 0
        dropped = self._records[:keep_from]
        self._records = self._records[keep_from:]
        self.total_bytes -= sum(r.nbytes for r in dropped)
        self.synced_through -= keep_from
        self._durable_through -= keep_from
        for record in dropped:
            self._corrupt_lsns.discard(record.lsn)
        return keep_from

    def truncate_for_checkpoint(self, version_floor: Mapping[str, int]) -> int:
        """Checkpoint-coordinated truncation.

        Drops the longest durable prefix whose records are fully covered by
        ``version_floor`` — the per-table version that the checkpoint is
        guaranteed to contain for *every* page.  Stops at the first record
        with an uncovered (or unknown) table version; redo must stay
        contiguous.  Returns the number of records dropped.
        """
        boundary = min(self.synced_through, self._durable_through)
        keep_from = 0
        for record in self._records[:boundary]:
            if not record.versions:
                break  # the on-disk tier logs no versions: cannot prove coverage
            if all(v <= version_floor.get(t, -1) for t, v in record.versions):
                keep_from += 1
            else:
                break
        dropped = self.truncate(keep_from)
        if dropped:
            self.counters.add("wal.truncated_records", dropped)
        return dropped

    # -- storage-fault model -------------------------------------------------------
    def set_fsync_lies(self, lying: bool) -> None:
        """Enter/leave fsync-lie mode (acks without durability)."""
        self.fsync_lies = bool(lying)

    def arm_torn_write(self) -> None:
        """The next :meth:`crash` leaves a torn (checksum-failing) tail record."""
        self._torn_armed = True

    def corrupt_record(self, index: int) -> Optional[int]:
        """Flip a bit in the record at ``index`` (latent media corruption).

        The damage is only observed by :meth:`recover_records` — exactly
        like a real latent sector error.  Returns the corrupted LSN, or
        None when the log is empty.
        """
        if not self._records:
            return None
        index = max(0, min(index, len(self._records) - 1))
        lsn = self._records[index].lsn
        self._corrupt_lsns.add(lsn)
        self.counters.add("wal.bitflips")
        return lsn

    def crash(self) -> List[WalRecord]:
        """Apply the crash loss model; returns the records that were lost.

        Everything beyond the durable prefix vanishes — including records
        the caller believed fsynced, when the storage was lying.  If a torn
        write was armed, the crash interrupted the log's last sector write:
        the first lost record stays on disk as a partially-written tail —
        or, when the log was fully flushed, the final durable record itself
        is torn (its last sectors never truly landed).  Either way the torn
        record is present but fails checksum validation at recovery.
        Resets both boundaries to the surviving length.
        """
        boundary = min(self._durable_through, len(self._records))
        lost = self._records[boundary:]
        survivors = self._records[:boundary]
        if self._torn_armed:
            if lost:
                torn = lost[0]
                survivors = survivors + [torn]
            elif survivors:
                torn = survivors[-1]
            else:
                torn = None
            if torn is not None:
                self._corrupt_lsns.add(torn.lsn)
        self._records = survivors
        self.total_bytes = sum(r.nbytes for r in self._records)
        self.synced_through = len(self._records)
        self._durable_through = len(self._records)
        self._torn_armed = False
        return lost

    def recover_records(self) -> Tuple[List[WalRecord], int]:
        """Restart-time scan: validate checksums, truncate the torn tail.

        Walks the log in LSN order; the first record that fails validation
        (torn write or latent bit flip) ends the recoverable prefix — redo
        cannot skip holes, so everything from that point on is discarded.
        Returns ``(valid_records, truncated_count)``.
        """
        valid: List[WalRecord] = []
        for record in self._records:
            if record.lsn in self._corrupt_lsns or not record.verify():
                break
            valid.append(record)
        truncated = len(self._records) - len(valid)
        if truncated:
            for record in self._records[len(valid):]:
                self._corrupt_lsns.discard(record.lsn)
            self._records = list(valid)
            self.total_bytes = sum(r.nbytes for r in self._records)
            self.synced_through = len(valid)
            self._durable_through = len(valid)
            self.counters.add("wal.torn_tail_records", truncated)
        return list(self._records), truncated

    def __len__(self) -> int:
        return len(self._records)
