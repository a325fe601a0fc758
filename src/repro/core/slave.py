"""The slave replica: eager buffering, lazy per-page version materialisation.

A slave receives every master write-set *before* the master's commit is
acknowledged (eager propagation), but applies page modifications only when
a read-only transaction tagged with a version vector actually touches the
page (lazy application).  This is the core of Dynamic Multiversioning:

* each page's pending-op queue holds committed-but-unapplied modifications
  in version order;
* a read at tag ``V`` applies pending ops with ``version <= V[table]`` and
  leaves the rest queued — materialising exactly the snapshot it must see;
* if the page has already been advanced *past* the reader's tag by a
  concurrent reader with a newer tag, the transaction aborts with
  :class:`~repro.common.errors.VersionInconsistency` (the paper's rare
  abort case, kept under 2.5 % by version-aware scheduling);
* index entries are maintained eagerly on receipt (see DESIGN.md
  substitution #3), so lookups at any tag are correct even while data pages
  lag.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.counters import Counters
from repro.common.errors import SchemaError, VersionInconsistency
from repro.common.ids import NodeId, PageId
from repro.common.versions import VersionVector
from repro.engine.engine import AccessController, HeapEngine
from repro.engine.txn import Transaction, TxnMode
from repro.storage.checkpoint import PageImage
from repro.storage.ops import OpKind, PageOp
from repro.storage.page import Page
from repro.core.writeset import WriteSet


class SlaveController(AccessController):
    """Access controller wiring engine page reads to lazy materialisation."""

    def __init__(self, slave: "SlaveReplica") -> None:
        self.slave = slave
        self.pending = slave.pending  # mutated in place, never replaced

    def before_read(self, txn: Transaction, page: Page) -> None:
        self.slave.materialize(page, txn)

    def read_gate(self, txn: Transaction, page: Page, tag_v: Optional[int]) -> None:
        """Enter :meth:`SlaveReplica.materialize` only when it has work:
        ops queued for the page, or a page already past the reader's tag
        (which it turns into the version abort).  The common read — page at
        or below the tag, nothing pending — costs this one test."""
        if page.page_id in self.pending or (tag_v is not None and page.version > tag_v):
            self.slave.materialize(page, txn)

    def before_write(self, txn: Transaction, page: Page) -> None:
        raise VersionInconsistency(
            f"slave {self.slave.node_id} cannot execute writes", required=-1, found=-1
        )


class SlaveReplica:
    """One slave database replica of the in-memory tier."""

    def __init__(
        self,
        node_id: NodeId,
        engine: Optional[HeapEngine] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        self.node_id = node_id
        self.counters = counters if counters is not None else Counters()
        if engine is None:
            engine = HeapEngine(counters=self.counters, name=f"slave:{node_id}")
        self.engine = engine
        #: page -> the write-sets' shared (version, PageOp) entries not yet
        #: applied, in version order: a write-set's shared one-entry tuple
        #: until a second op for the page arrives, then this slave's list.
        self.pending: Dict[PageId, Sequence[Tuple[int, PageOp]]] = {}
        self.engine.set_controller(SlaveController(self))
        #: Highest versions received from masters (per table).
        self.received_versions = VersionVector()
        #: Duplicate filter over write-set identities (idempotent receive).
        #: :meth:`discard_above` drops the keys of the write-sets it
        #: discards: their effects were reverted, so a re-delivery (rejoin
        #: gap replay, late retransmission) must be applied again.
        self._seen_write_sets: set = set()
        #: While True (node catching up after a restart), received write-sets
        #: are buffered WITHOUT index maintenance — the indexes will be
        #: rebuilt from page contents once migration completes.
        self.catching_up = False
        #: Running count of buffered-but-unapplied ops, maintained at every
        #: queue mutation so the buffer-bound invariant can audit it in O(1)
        #: (``pending_op_count()`` recomputes the truth for drift checks).
        self.pending_ops = 0

    # -- replication receive path ---------------------------------------------------
    def is_duplicate(self, write_set: WriteSet) -> bool:
        """True if this broadcast was already received (retransmit/dup)
        or its effects are already covered by this replica's page images.

        The coverage test matters after reintegration: a write-set dropped
        on the wire before the node failed may be retransmitted after data
        migration has already installed its effects — the dedup identity
        set is empty for it, but re-applying it would corrupt the eagerly
        maintained indexes.  Coverage is judged per PAGE, not per table:
        same-page transactions serialize on the master's page locks, so a
        page image at version ``v`` provably contains every op at or below
        ``v`` — while table-level version vectors may legitimately arrive
        out of order (non-conflicting commits broadcast concurrently).
        """
        if write_set.dedup_key() in self._seen_write_sets:
            return True
        if not write_set.ops:
            return False
        store = self.engine.store
        return all(
            store.contains(op.page_id)
            and write_set.versions[op.page_id.table] <= store.get(op.page_id).version
            for op in write_set.ops
        )

    def receive(self, write_set: WriteSet) -> None:
        """Buffer one write-set: queue page ops, maintain indexes eagerly.

        Receipt is idempotent: a write-set whose identity was seen before
        (ack lost → master retransmitted, or the link duplicated the
        message) is dropped without touching queues or indexes.
        """
        if not self.is_duplicate(write_set):
            return self.receive_new(write_set)
        self.counters.add("net.dups_ignored")
        self._seen_write_sets.add(write_set.dedup_key())

    def receive_new(self, write_set: WriteSet) -> None:
        """:meth:`receive` for a caller that ran :meth:`is_duplicate` itself and
        got False (the cluster node, reporting to the channel): one filter pass."""
        buffered = self._buffer(write_set, skip_covered=False)
        self.counters.add("slave.write_sets_received")
        self.counters.add("slave.ops_buffered", buffered)

    def restore_write_set(self, write_set: WriteSet) -> int:
        """WAL-redo receive (restart-from-own-disk path); returns ops buffered.

        Differs from :meth:`receive` in two deliberate ways.  First, no
        replication counters move: this write-set was already counted when
        it was delivered over the wire before the crash, so counting it
        again would break the send/receive conservation invariant.  Second,
        coverage is judged per *op*, not per write-set: the restored
        checkpoint may hold some of a record's pages at a version past the
        record (their later redo records were truncated as covered), so
        replaying a covered op would regress slots to stale values.  The
        dedup identity is always recorded and the watermark always merged —
        the durable state covers the record either way.
        """
        return self._buffer(write_set, skip_covered=True)

    def _buffer(self, write_set: WriteSet, skip_covered: bool) -> int:
        """The receive funnel; returns ops buffered.  What is fixed for a
        write-set (store, pending map, table lookup, catch-up flag) is
        resolved once; per op there is the page, its queue and a loop over
        the op's shared index delta — none while catching up
        (``finish_catchup`` rebuilds the indexes from pages).

        What the op gives is built once and shared by every slave: a page
        with nothing queued takes the write-set's one-entry queue head
        itself, and a second op thaws it into this slave's list; a new index
        key takes the op's one committed entry as its bucket."""
        self._seen_write_sets.add(write_set.dedup_key())
        get_or_allocate = self.engine.store.get_or_allocate
        pending = self.pending
        table_of = None if self.catching_up else self.engine.table
        buffered = 0
        for head in write_set.queue_heads:
            entry = head[0]
            version, op = entry
            page_id = op.page_id
            # Allocated on receipt so scans see the page before materialisation.
            page = get_or_allocate(page_id)
            if skip_covered and version <= page.version:
                continue  # checkpoint image already contains this op
            queue = pending.get(page_id)
            if queue is None:
                pending[page_id] = head
            elif type(queue) is tuple:
                pending[page_id] = [*queue, entry]
            else:
                queue.append(entry)
            if table_of is not None and op._index_delta != ():  # () moves no key
                table_of(page_id.table).index_apply_committed(op, version)
            buffered += 1
        self.received_versions.merge(VersionVector(write_set.versions))
        self.pending_ops += buffered
        return buffered

    # -- lazy materialisation ----------------------------------------------------------
    #
    # Index entries are maintained eagerly at receive time, so the *only*
    # job of materialisation is to bring the page image to the target
    # version.  Intermediate row images are dead work: the queue is
    # collapsed to the last writer per slot (folding delta ops into each
    # other or into a preceding full image), turning deep-queue
    # materialisation from O(ops) page writes into O(slots touched).

    def _coalesce(
        self, queue: Sequence[Tuple[int, PageOp]], target: Optional[int]
    ) -> Tuple[Dict[int, Tuple[str, object]], int, int]:
        """Plan the queue's prefix at-or-below ``target``, consuming nothing.

        The plan maps slot -> ("full", row_or_None) | ("delta", {pos: val}).
        Returns ``(plan, top_version, count)``: ``count`` ops make the plan.
        """
        plan: Dict[int, Tuple[str, object]] = {}
        top = -1
        count = 0
        for version, op in queue:
            if target is not None and version > target:
                break
            count += 1
            if version > top:
                top = version
            if op.kind is OpKind.DELETE:
                plan[op.slot] = ("full", None)
            elif not op.is_delta:
                plan[op.slot] = ("full", op.row)
            else:
                state = plan.get(op.slot)
                if state is None:
                    plan[op.slot] = ("delta", dict(op.delta_items()))
                elif state[0] == "delta":
                    state[1].update(op.delta_items())
                elif state[1] is None:
                    raise SchemaError(
                        f"delta update of deleted slot {op.slot} on {op.page_id}"
                    )
                else:
                    plan[op.slot] = ("full", op.apply_delta(state[1]))
        return plan, top, count

    def _apply_plan(
        self, page: Page, plan: Dict[int, Tuple[str, object]], top: int, count: int
    ) -> None:
        """Resolve every row before the first write: all or nothing."""
        rows = []
        for slot, (shape, payload) in plan.items():
            if shape == "delta":
                base = page.get(slot)
                if base is None:
                    raise SchemaError(
                        f"delta update of empty slot {slot} on {page.page_id}"
                    )
                row = list(base)
                for position, value in payload.items():
                    row[position] = value
                payload = tuple(row)
            rows.append((slot, payload))
        for slot, row in rows:
            page.put(slot, row)
        if top > page.version:
            page.version = top
        if plan:
            self.counters.add("slave.ops_applied", len(plan))
        if count > len(plan):
            self.counters.add("slave.ops_coalesced", count - len(plan))

    def _apply_queue(
        self, page: Page, queue: Sequence[Tuple[int, PageOp]], target: Optional[int]
    ) -> Tuple[int, int]:
        """The one apply step: coalesce ``page``'s ``queue`` up to ``target``
        (``None`` = everything), write the plan, then consume its ops and
        drop the queue once empty.  All or nothing: an op that cannot be
        applied raises with the queue, :attr:`pending_ops` and the page as
        they were.

        Returns ``(ops consumed, slot writes performed)``.
        """
        plan, top, count = self._coalesce(queue, target)
        if count:
            self._apply_plan(page, plan, top, count)
            self.pending_ops -= count
            if type(queue) is tuple:  # a write-set's shared head: replaced, never written
                queue = self.pending[page.page_id] = queue[count:]
            else:
                del queue[:count]
        if not queue:
            del self.pending[page.page_id]
        return count, len(plan)

    def materialize(self, page: Page, txn: Transaction) -> None:
        """Bring ``page`` to the version ``txn`` must read.

        Untagged transactions (``tag is None``) read the newest received
        state: everything pending is applied.
        """
        table = page.page_id.table
        target = txn.tag.get(table) if txn.tag is not None else None
        if target is not None and page.version > target:
            self.counters.add("slave.version_aborts")
            raise VersionInconsistency(
                f"page {page.page_id} at v{page.version}, txn needs v{target}",
                required=target,
                found=page.version,
            )
        queue = self.pending.get(page.page_id)
        if not queue:
            return
        parent = getattr(txn, "obs_span", None)
        span = None
        if parent is not None and parent.recording:
            # Nested under the execute span of the statement whose read
            # triggered this materialisation (see exec_statement's swap).
            span = parent.child(
                "apply",
                node=self.node_id,
                page=str(page.page_id),
                target=target if target is not None else -1,
                queued=len(queue),
            )
        popped, applied = self._apply_queue(page, queue, target)
        if span is not None:
            span.finish(
                popped=popped,
                applied=applied,
                coalesced=popped - applied,
                status="applied" if popped else "noop",
            )

    def apply_all_pending(self) -> int:
        """Apply every buffered op (promotion / catch-up / checkpoint prep).

        Returns the number of buffered ops consumed (coalesced-away ops
        included — callers size promotion work by queue depth).
        """
        store = self.engine.store
        return sum(
            self._apply_queue(store.get(page_id), self.pending[page_id], None)[0]
            for page_id in list(self.pending)
        )

    def drain_to(self, versions: VersionVector) -> int:
        """Eagerly apply the confirmed prefix of every pending queue.

        Buffer-cap backpressure: when the buffer crosses its high
        watermark and demotion is not available (last subscribed slave),
        the replica sheds load by materialising everything at-or-below
        the scheduler's confirmed ``versions`` instead of buffering
        deeper.  Ops above the frontier stay queued — applying an
        unconfirmed op could not be rolled back on master failure.

        Returns the number of buffered ops consumed.
        """
        consumed = 0
        for page_id in list(self.pending):
            target = versions.get(page_id.table)
            queue = self.pending[page_id]
            if not queue or queue[0][0] > target:
                continue
            page = self.engine.store.get(page_id)
            consumed += self._apply_queue(page, queue, target)[0]
        return consumed

    def materialize_fully(self, page_id: PageId) -> Page:
        """Apply all pending ops of one page (migration snapshot source)."""
        page = self.engine.store.get(page_id)
        queue = self.pending.get(page_id)
        if queue:
            self._apply_queue(page, queue, None)
        return page

    # -- transactions --------------------------------------------------------------------
    def begin_read_only(self, tag: VersionVector) -> Transaction:
        return self.engine.begin(TxnMode.READ_ONLY, tag=tag.copy())

    # -- failure reconfiguration -----------------------------------------------------------
    def discard_above(self, versions: VersionVector) -> int:
        """Drop buffered ops newer than ``versions`` (master-failure cleanup).

        Removes partially propagated pre-commit write-sets whose commit the
        failed master never acknowledged, and rolls back the eager index
        entries they created.
        """
        discarded = 0
        for page_id in list(self.pending):
            queue = self.pending[page_id]
            confirmed = versions.get(page_id.table)
            dropped = [entry for entry in queue if entry[0] > confirmed]
            if not dropped:
                continue
            keep = [entry for entry in queue if entry[0] <= confirmed]
            # Undo the eager index maintenance in reverse receive order:
            # an insert-then-delete of the same key (one transaction's
            # write-set) must unmark the delete while the entry still
            # exists, then remove the entry the insert created.  A
            # catching-up replica skipped the eager maintenance, so there
            # is nothing to revert (finish_catchup rebuilds from pages).
            if not self.catching_up:
                for version, op in reversed(dropped):
                    self.engine.table(page_id.table).index_revert_committed(op, version)
            discarded += len(dropped)
            if keep:
                self.pending[page_id] = keep
            else:
                del self.pending[page_id]
        # Truncate the received watermark back to the confirmed versions.
        truncated = VersionVector()
        for table, version in self.received_versions.items():
            truncated.set(table, min(version, max(versions.get(table), 0)))
        self.received_versions = truncated
        # A discarded write-set is no longer "received": its effects were
        # just reverted, so if it is ever re-delivered (rejoin gap replay,
        # late retransmission) it must be re-applied, not dedup-dropped.
        self._seen_write_sets = {
            key
            for key in self._seen_write_sets
            if all(version <= versions.get(table) for table, version in key[2])
        }
        self.pending_ops -= discarded
        if discarded:
            self.counters.add("slave.ops_discarded", discarded)
        return discarded

    # -- data migration support ------------------------------------------------------------
    def page_versions(self) -> Dict[PageId, int]:
        """Current page -> version map including pending-queue headroom."""
        versions = self.engine.store.version_map()
        for page_id, queue in self.pending.items():
            if queue:
                versions[page_id] = max(versions.get(page_id, 0), queue[-1][0])
        return versions

    def snapshot_pages_newer_than(
        self, wanted: Dict[PageId, int]
    ) -> List[PageImage]:
        """Support-slave side of data migration: pages newer than ``wanted``.

        Pages are fully materialised before snapshotting so the receiver
        can reach the current database version with only its own buffered
        ops from subscription time onward.
        """
        images: List[PageImage] = []
        for page in list(self.engine.store.all_pages()):
            have = wanted.get(page.page_id, -1)
            latest = page.version
            queue = self.pending.get(page.page_id)
            if queue:
                latest = max(latest, queue[-1][0])
            if latest > have:
                full = self.materialize_fully(page.page_id)
                snapshot = full.snapshot()
                images.append(PageImage(page.page_id, snapshot.version, snapshot))
                self.counters.add("migration.pages_sent")
        return images

    def receive_page(self, image: PageImage) -> None:
        """Joining-node side: install a migrated page, drop covered ops."""
        page = self.engine.store.get_or_allocate(image.page_id)
        page.load_from(image.page)
        queue = self.pending.get(image.page_id, ())
        kept = [entry for entry in queue if entry[0] > image.version]
        if len(kept) < len(queue):
            self.pending_ops -= len(queue) - len(kept)
            if kept:
                self.pending[image.page_id] = kept
            else:
                del self.pending[image.page_id]
        self.counters.add("migration.pages_received")

    def finish_catchup(self) -> None:
        """End catch-up mode: rebuild indexes, index-apply remaining ops."""
        if not self.catching_up:
            raise RuntimeError("finish_catchup called outside catch-up mode")
        self.engine.rebuild_all_indexes()
        for page_id, queue in self.pending.items():
            for version, op in queue:
                self.engine.table(page_id.table).index_apply_committed(op, version)
        self.catching_up = False

    def pending_op_count(self) -> int:
        return sum(len(q) for q in self.pending.values())

    # -- version garbage collection -----------------------------------------------------
    def gc_watermark(self, scheduler_latest: VersionVector) -> VersionVector:
        """Oldest versions any current or future reader can require.

        New readers are tagged with the scheduler's latest vector; active
        readers pin their own tags.  The watermark is the elementwise
        minimum over all of them.
        """
        watermark = scheduler_latest.copy()
        for txn in self.engine.active_transactions():
            if txn.tag is not None:
                watermark.floor_with(txn.tag)
        return watermark

    def gc_versions(self, scheduler_latest: VersionVector) -> int:
        """Collect index entries deleted at or below the watermark.

        Bounds the memory growth of the version-aware indexes — the
        equivalent of the copy garbage collection that stand-alone
        multiversion databases must run (paper §2.1), but needed only for
        *deleted* entries because DMV never keeps multiple row copies.
        """
        removed = self.engine.gc_index_entries(self.gc_watermark(scheduler_latest))
        if removed:
            self.counters.add("slave.gc_entries", removed)
        return removed
