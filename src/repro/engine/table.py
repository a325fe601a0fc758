"""Heap tables: row operations over slotted pages plus index maintenance.

A table executes the *master-side* write path (in-place page mutation,
undo journal, redo page-ops, pending index entries) and the shared read
path (fetch / scan / index lookups).  The slave-side lazy page application
lives in :mod:`repro.core.slave`; it calls back into
:meth:`Table.index_apply_committed` for eager index maintenance.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.common.errors import SchemaError, TransactionAborted
from repro.engine.indexes import (
    Key, Loc, VersionedHashIndex, VersionedTreeIndex, committed_entry, encode_key,
)
from repro.engine.indexes import _BucketOps as _Index
from repro.engine.schema import TableSchema, key_at
from repro.engine.txn import Transaction, UndoRecord
from repro.storage.ops import ENCODE_STATS, OpKind, PageOp, delta_update_op
from repro.storage.page import Page, Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import HeapEngine


class Table:
    """One table: schema + pages + a primary hash index + tree indexes."""

    __slots__ = (
        "schema",
        "name",
        "engine",
        "store",
        "counters",
        "pk_index",
        "indexes",
        "_by_slot",
        "_index_positions",
        "row_count",
        "_nonfull",
    )

    def __init__(self, schema: TableSchema, engine: "HeapEngine") -> None:
        self.schema = schema
        self.name = schema.name
        self.engine = engine
        self.store = engine.store
        self.counters = engine.counters
        #: Key column positions per secondary index, resolved once.
        self._index_positions: Dict[str, Tuple[int, ...]] = {
            idx.name: schema.positions_of(idx.columns) for idx in schema.indexes
        }
        self._reset_indexes()

    def _reset_indexes(self) -> None:
        """Empty index structures, row count and insert pages."""
        self.pk_index = VersionedHashIndex(f"{self.name}.pk", self.name, self.counters)
        self.indexes: Dict[str, VersionedTreeIndex] = {
            name: VersionedTreeIndex(name, self.name, self.counters)
            for name in self._index_positions
        }
        #: Every index by its slot in :meth:`index_delta`.
        self._by_slot = (self.pk_index, *self.indexes.values())
        self.row_count = 0
        self._nonfull: List[Page] = []

    # -- version tag / key helpers ----------------------------------------------
    def tag_v(self, txn: Transaction) -> Optional[int]:
        """The version of this table ``txn`` reads at; None = current state.

        Fixed for a statement: the read path resolves it once and hands it
        to every index probe and row read of the statement.
        """
        return txn.tag.get(self.name) if txn.tag is not None else None

    def index_keys(self, row: Row) -> List[Key]:
        """``row``'s encoded key in every index, by slot (primary first)."""
        keys = [encode_key(self.schema.pk_of(row))]
        for positions in self._index_positions.values():
            keys.append(encode_key(key_at(row, positions)))
        return keys

    def index_delta(self, op: PageOp) -> Tuple[Tuple[int, Optional[Key], Optional[Key]], ...]:
        """The index maintenance ``op`` implies: ``(slot, old key | None, new
        key | None)`` per index it touches — slot 0 the primary index, then
        schema order; keys encoded; immutable, so replicas share it.

        The one place that knows the INSERT / DELETE / UPDATE three-way and
        both UPDATE encodings.  Cached in the op's ``_index_delta`` slot like
        its wire size (not shipped: the size is unchanged): derived by the
        master when it builds the redo op, or here on first use (WAL restore,
        hand-built op); the master's pending entries, stamp and revert and
        every slave's apply and discard loop over the same tuple.
        """
        delta = op._index_delta
        if delta is not None:
            return delta
        ENCODE_STATS["index_deltas"] += 1
        if op.kind is OpKind.INSERT:
            delta = tuple((slot, None, key) for slot, key in enumerate(self.index_keys(op.row)))
        elif op.kind is OpKind.DELETE:
            delta = tuple((slot, key, None) for slot, key in enumerate(self.index_keys(op.before)))
        else:
            if op.is_delta:
                before = dict(op.index_before or ())
                after = {**before, **dict(op.delta_items())}
            else:
                before, after = op.before, op.row
            moved = []
            for slot, positions in enumerate(self._index_positions.values(), 1):
                if op.is_delta and not any((op.delta_mask >> p) & 1 for p in positions):
                    continue  # no key column changed: keys are equal
                old_key, new_key = key_at(before, positions), key_at(after, positions)
                if old_key != new_key:
                    moved.append((slot, encode_key(old_key), encode_key(new_key)))
            delta = tuple(moved)
        object.__setattr__(op, "_index_delta", delta)
        return delta

    # -- write path (masters and stand-alone engines) ---------------------------
    def insert_row(self, txn: Transaction, values: Dict[str, object]) -> Loc:
        """Insert one row; returns its (page, slot) location."""
        txn.require_active()
        row = self.schema.row_from_dict(values)
        pk = self.schema.pk_of(row)
        if self.pk_index.has_live(pk, txn.txn_id, None):
            raise TransactionAborted(
                f"duplicate primary key {pk} in {self.name}", reason="duplicate-key"
            )
        page, slot = self._allocate_slot(txn)
        loc: Loc = (page.page_id, slot)
        page.put(slot, row)
        self._log_change(txn, PageOp(page.page_id, OpKind.INSERT, slot, row), None, row)
        self.row_count += 1
        self.counters.add("engine.rows_inserted")
        return loc

    def update_row(self, txn: Transaction, loc: Loc, changes: Dict[str, object]) -> None:
        """Apply column changes to the row at ``loc`` (PK must not change)."""
        txn.require_active()
        page = self.store.get(loc[0])
        self.engine.touch_write(txn, page)
        before = page.get(loc[1])
        if before is None:
            raise SchemaError(f"update of empty slot {loc} in {self.name}")
        after = self.schema.updated_row(before, changes)
        if self.schema.pk_of(before) != self.schema.pk_of(after):
            raise SchemaError(f"primary key update unsupported on {self.name}")
        page.put(loc[1], after)
        op = delta_update_op(loc[0], loc[1], before, after, self._index_positions.values())
        self._log_change(txn, op, before, after)
        self.counters.add("engine.rows_updated")

    def delete_row(self, txn: Transaction, loc: Loc) -> None:
        txn.require_active()
        page = self.store.get(loc[0])
        self.engine.touch_write(txn, page)
        before = page.get(loc[1])
        if before is None:
            raise SchemaError(f"delete of empty slot {loc} in {self.name}")
        page.put(loc[1], None)
        self._log_change(txn, PageOp(loc[0], OpKind.DELETE, loc[1], None, before), before, None)
        self.row_count -= 1
        self._remember_nonfull(page)
        self.counters.add("engine.rows_deleted")

    def _log_change(
        self, txn: Transaction, op: PageOp, before: Optional[Row], after: Optional[Row]
    ) -> None:
        """Journal one row change, queue its redo op, add its pending index entries."""
        delta = self.index_delta(op)
        txn.journal.append(UndoRecord(self.name, op.page_id, op.slot, before, after, delta))
        txn.redo.append(op)
        txn.tables_written.add(self.name)
        self._each_key(delta, _Index.mark_delete_pending, _Index.add_pending, op.loc, txn.txn_id)

    def _each_key(self, delta, on_old, on_new, loc: Loc, *arg) -> None:
        """Walk an :meth:`index_delta`: ``on_old(index, key, loc, *arg)`` for
        each key a change drops, ``on_new(...)`` for each key it adds."""
        for slot, old_key, new_key in delta:
            index = self._by_slot[slot]
            if old_key is not None:
                on_old(index, old_key, loc, *arg)
            if new_key is not None:
                on_new(index, new_key, loc, *arg)

    #: Inserts are striped over several non-full pages.  A single append
    #: page would serialise every concurrent inserting transaction on one
    #: X page lock (the classic last-page hotspot); real storage managers
    #: keep multiple insert free lists for exactly this reason.
    INSERT_STRIPES = 8

    def _allocate_slot(self, txn: Transaction) -> Tuple[Page, int]:
        self._nonfull = [p for p in self._nonfull if not p.full]
        candidates = self._nonfull
        count = len(candidates)
        if count:
            # Prefer a page no other transaction holds, from the txn's own
            # stripe on (touching a page locks only that page: probe lazily).
            start = txn.txn_id % count
            for position in range(start, start + count):
                page = candidates[position % count]
                if self.engine.controller.write_locked_by_other(txn, page):
                    continue
                self.engine.touch_write(txn, page)
                slot = page.first_free_slot()
                if slot is not None:
                    return page, slot
        if len(self._nonfull) < self.INSERT_STRIPES:
            # Open a new stripe rather than blocking on a locked page.
            page = self.store.allocate(self.name)
            self._nonfull.append(page)
            self.engine.touch_write(txn, page)
            slot = page.first_free_slot()
            assert slot is not None
            return page, slot
        # Stripe budget exhausted and every stripe is locked: block on the
        # transaction's own stripe choice (FIFO fairness via the lock queue).
        page = candidates[txn.txn_id % len(candidates)]
        self.engine.touch_write(txn, page)
        slot = page.first_free_slot()
        if slot is None:  # raced to full while waiting for the lock
            page = self.store.allocate(self.name)
            self._nonfull.append(page)
            self.engine.touch_write(txn, page)
            slot = page.first_free_slot()
        return page, slot

    def _remember_nonfull(self, page: Page) -> None:
        if not page.full and (not self._nonfull or self._nonfull[-1] is not page):
            if page not in self._nonfull:
                self._nonfull.append(page)

    # -- read path -----------------------------------------------------------------
    def fetch(self, txn: Transaction, loc: Loc) -> Optional[Row]:
        """Row at ``loc``, or None for a dead slot (stale index entry)."""
        engine = self.engine
        try:
            return engine.read_row(txn, self.tag_v(txn), loc)
        finally:
            engine.flush_reads()

    def fetch_for_update(self, txn: Transaction, loc: Loc) -> Optional[Row]:
        """Fetch taking the write lock immediately (UPDATE/DELETE scans).

        Acquiring X up front avoids the classic S->X upgrade deadlock when
        two DML statements target rows on the same page.
        """
        page = self.store.get(loc[0])
        self.engine.touch_write(txn, page)
        self.counters.add("engine.rows_read")
        return page.get(loc[1])

    def scan(self, txn: Transaction) -> Iterator[Tuple[Loc, Row]]:
        """Full table scan in page order."""
        self.counters.add("engine.table_scans")
        engine = self.engine
        try:
            yield from engine.scan_rows(
                txn, self.tag_v(txn), list(self.store.pages_of(self.name))
            )
        finally:
            engine.flush_reads()

    def pk_lookup(self, txn: Transaction, key: Key) -> List[Loc]:
        return self.pk_index.lookup(key, txn.txn_id, self.tag_v(txn))

    def index_range(
        self,
        txn: Transaction,
        index_name: str,
        lo: Optional[Key],
        hi: Optional[Key],
        reverse: bool = False,
    ) -> Iterator[Loc]:
        index = self.index(index_name)
        return index.range_lookup(lo, hi, txn.txn_id, self.tag_v(txn), reverse=reverse)

    def index(self, name: str) -> VersionedTreeIndex:
        try:
            return self.indexes[name]
        except KeyError:
            raise SchemaError(f"no index {name!r} on {self.name}") from None

    # -- commit / abort bookkeeping ---------------------------------------------------
    def stamp_commit(self, record: UndoRecord, version: int) -> None:
        """Stamp one change's pending index entries with the commit version."""
        loc: Loc = (record.page_id, record.slot)
        self._each_key(record.index_delta, _Index.stamp_delete, _Index.stamp_insert, loc, version)

    def revert(self, record: UndoRecord) -> None:
        """Undo one journal record (page slot + index entries)."""
        page = self.store.get(record.page_id)
        page.put(record.slot, record.before)
        loc: Loc = (record.page_id, record.slot)
        self._each_key(record.index_delta, _Index.revert_delete, _Index.revert_insert, loc)
        if record.before is None:
            self.row_count -= 1
            self._remember_nonfull(page)
        elif record.after is None:
            self.row_count += 1

    # -- slave apply path -----------------------------------------------------------
    def index_apply_committed(self, op: PageOp, version: int) -> None:
        """Eager index maintenance for one committed replicated op.

        Every key the op adds gets the op's one :func:`committed_entry`,
        cached in its ``_committed_entry`` slot like its index delta: every
        replica applying the op, and each of its indexes, links that tuple
        as the bucket of a key it had none for."""
        loc = op.loc
        entry = op._committed_entry
        for slot, old_key, new_key in self.index_delta(op):
            index = self._by_slot[slot]
            if old_key is not None:
                index.mark_delete_committed(old_key, loc, version)
            if new_key is not None:
                if entry is None or entry[1] != version:
                    entry = committed_entry(loc, version)
                    object.__setattr__(op, "_committed_entry", entry)
                index.add_committed(new_key, entry)
        if op.kind is OpKind.INSERT:
            self.row_count += 1
        elif op.kind is OpKind.DELETE:
            self.row_count -= 1

    def index_revert_committed(self, op: PageOp, version: int) -> None:
        """Inverse of :meth:`index_apply_committed` (master-failure discard)."""
        delta = self.index_delta(op)
        self._each_key(
            delta, _Index.unmark_delete_committed, _Index.remove_committed, op.loc, version
        )
        if op.kind is OpKind.INSERT:
            self.row_count -= 1
        elif op.kind is OpKind.DELETE:
            self.row_count += 1

    def bulk_load(self, rows, version: int = 0) -> int:
        """Load committed rows directly, bypassing transaction machinery.

        Used for initial database population (the paper's "mmap an on-disk
        database" step) and for index rebuilds after data migration.  Index
        entries are stamped ``version`` (0 = visible at any tag).
        """
        count = 0
        for values in rows:
            row = self.schema.row_from_dict(values) if isinstance(values, dict) else tuple(values)
            page, slot = self._bulk_slot()
            page.put(slot, row)
            page.version = max(page.version, version)
            entry = committed_entry((page.page_id, slot), version)
            for index, key in zip(self._by_slot, self.index_keys(row)):
                index.add_committed(key, entry)
            count += 1
        self.row_count += count
        return count

    def extent(self) -> Tuple[int, int, int]:
        """``(rows, pages, rows per page)``: what two replicas of a table must
        agree on for one to take the other's next bulk load as a copy."""
        return self.row_count, len(self.store.pages_of(self.name)), self.store.rows_per_page

    def copy_from(self, source: "Table") -> None:
        """Become what ``source`` is: pages, indexes, counts, insert pages.

        Each replica gets its own pages, dicts and tree nodes, in
        ``source``'s order and shape.  What those hold — slot lists and
        index buckets — is frozen into tuples in ``source`` and shared with
        it; a replica thaws its own list of one only when it first writes
        it (``Page.put``, the indexes' ``_writable``).  Rows, encoded keys
        and locations are immutable anyway.
        """
        self.store.copy_table_from(source.store, self.name)
        self.pk_index.copy_from(source.pk_index)
        for name, index in self.indexes.items():
            index.copy_from(source.indexes[name])
        self.row_count = source.row_count
        self._nonfull = [self.store.get(page.page_id) for page in source._nonfull]

    def _bulk_slot(self) -> Tuple[Page, int]:
        while self._nonfull:
            page = self._nonfull[-1]
            slot = page.first_free_slot()
            if slot is not None:
                return page, slot
            self._nonfull.pop()
        page = self.store.allocate(self.name)
        self._nonfull.append(page)
        return page, page.first_free_slot()

    def rebuild_indexes(self) -> None:
        """Rebuild all index structures from current page contents.

        Entries get ``insert_v = 0``: correct for a node that will only
        serve tags at or above its catch-up version (reintegration path).
        """
        self._reset_indexes()
        for page in self.store.pages_of(self.name):
            for slot, row in page.iter_live():
                entry = committed_entry((page.page_id, slot), 0)
                for index, key in zip(self._by_slot, self.index_keys(row)):
                    index.add_committed(key, entry)
                self.row_count += 1
            if not page.full:
                self._nonfull.append(page)

    def gc_index_entries(self, watermark: int) -> int:
        """Drop index entries deleted at or before ``watermark``."""
        removed = self.pk_index.gc(watermark)
        for index in self.indexes.values():
            removed += index.gc(watermark)
        return removed
