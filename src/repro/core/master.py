"""The master replica: update execution and pre-commit write-set generation.

Implements the paper's Figure 2::

    MasterPreCommit(PS):
        WS = CreateWriteSet(PS)
        Increment(DBVerVector, WS)        # atomic
        for each replica R: SendUpdate(R, WS, DBVerVector); WaitForAck(R)
        return DBVerVector

The commit unit is the *epoch*: one or more transactions that share one
version-vector advance, one write-set and one broadcast.  This class
provides the per-member validation + atomic increment + stamping
(:meth:`join_epoch`), the write-set construction (:meth:`seal_epoch`) and
the local commit that releases a member's locks (:meth:`finalize`);
:meth:`pre_commit` is the epoch of one the inline drivers use.  The
transport (waiting for acks) is the cluster layer's job.  The master's
engine validates reads optimistically and holds page-granular X locks on
writes to commit, so non-conflicting update transactions execute
concurrently and the lock-grant order is the serialization order the
version vector names.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.counters import Counters
from repro.common.errors import TransactionAborted
from repro.common.ids import NodeId
from repro.common.versions import VersionVector
from repro.engine.engine import HeapEngine, make_update_controller
from repro.engine.txn import Transaction, TxnMode
from repro.core.writeset import WriteSet


class MasterReplica:
    """One master database: owns update transactions for its conflict class."""

    def __init__(
        self,
        node_id: NodeId,
        engine: Optional[HeapEngine] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        self.node_id = node_id
        self.counters = counters if counters is not None else Counters()
        if engine is None:
            engine = HeapEngine(
                controller=make_update_controller(),
                counters=self.counters,
                name=f"master:{node_id}",
            )
        self.engine = engine
        #: Broadcast sequence number stamped on every write-set this master
        #: produces; slaves key their duplicate filter on it (plus the
        #: commit versions), making retransmissions idempotent.
        self.broadcast_seq = 0

    # -- transaction lifecycle ---------------------------------------------------
    def begin_update(self, write_tables=()) -> Transaction:
        return self.engine.begin(TxnMode.UPDATE, write_intent=write_tables)

    def begin_read_only(self) -> Transaction:
        """Reads on the master see current state (the read-routing
        fallback when every covering slave owes an ack, or none is active)."""
        return self.engine.begin(TxnMode.READ_ONLY)

    def join_epoch(self, txn: Transaction, epoch_versions: Dict[str, int]):
        """Figure 2 lines 2-3 for one member of a commit epoch.

        Validates the transaction (``prepare_commit`` — the OCC read-set
        check runs here and may raise :class:`TransactionAborted`, leaving
        the transaction ACTIVE and revertible), then stamps it with the
        epoch's versions.  Each written table's version is incremented
        once per epoch — on the first member that writes it, recorded in
        the caller-owned ``epoch_versions`` dict — and every member writing
        that table commits at the shared epoch version.  The increment and
        the stamping happen in one synchronous step, so write-sets from
        this master carry per-table versions in seal order — the
        slave-side per-page queues rely on it.

        Returns ``(ops, commit_versions)``; ``ops`` is ``None`` for an
        empty write-set (the txn committed locally, nothing to publish).
        Otherwise the member's page locks stay held until the caller's
        :meth:`finalize`.
        """
        ops = self.engine.prepare_commit(txn)
        if not ops:
            self.engine.stamp_commit(txn, {})
            self.engine.finish_commit(txn)
            return None, {}
        fresh = [t for t in txn.tables_written if t not in epoch_versions]
        if fresh:
            self.engine.versions.increment(fresh)
            for table in fresh:
                epoch_versions[table] = self.engine.versions.get(table)
        commit_versions: Dict[str, int] = {
            table: epoch_versions[table] for table in txn.tables_written
        }
        self.engine.stamp_commit(txn, commit_versions)
        self.counters.add("engine.epoch_batched_commits")
        span = getattr(txn, "obs_span", None)
        if span is not None and span.recording:
            # The commit's identity for the trace: which versions this
            # transaction produced and which pages it dirtied (capped so a
            # bulk update cannot bloat one span's tags).
            pages = sorted({op.page_id for op in ops})
            span.annotate(
                versions=dict(commit_versions),
                pages=pages[:32],
                page_count=len(pages),
            )
        return ops, commit_versions

    def seal_epoch(self, txn_id: int, ops, epoch_versions: Dict[str, int]) -> WriteSet:
        """Close one epoch into a single write-set: one seq, one broadcast.

        ``ops`` is the concatenation of every member's ops in commit
        (lock-grant) order, so slave-side last-writer-wins coalescing
        applies them exactly as the master serialized them.  ``txn_id``
        (the first member's) names the write-set.
        """
        self.counters.add("engine.epochs")
        self.counters.add("master.write_sets")
        self.counters.add("master.ops_replicated", len(ops))
        self.broadcast_seq += 1
        return WriteSet(
            self.node_id, txn_id, tuple(ops), epoch_versions, seq=self.broadcast_seq
        )

    def pre_commit(self, txn: Transaction) -> Optional[WriteSet]:
        """An epoch of one: join, then seal.

        Returns ``None`` for transactions with an empty write-set (nothing
        to replicate; the caller commits locally and skips the broadcast).
        """
        versions: Dict[str, int] = {}
        ops, _ = self.join_epoch(txn, versions)
        if ops is None:
            return None
        return self.seal_epoch(txn.txn_id, ops, versions)

    def finalize(self, txn: Transaction) -> None:
        """Commit a joined transaction locally (releases its page locks)."""
        self.engine.finish_commit(txn)

    def abort(self, txn: Transaction, reason: str = "abort") -> None:
        self.engine.abort(txn, reason=reason)

    # -- recovery support ------------------------------------------------------------
    def current_versions(self) -> VersionVector:
        return self.engine.versions.copy()

    def abort_all_active(self) -> int:
        """Scheduler-failure cleanup: abort every in-flight transaction."""
        return self.engine.abort_all_active(reason="scheduler-failure")
