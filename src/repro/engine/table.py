"""Heap tables: row operations over slotted pages plus index maintenance.

A table executes the *master-side* write path (in-place page mutation,
undo journal, redo page-ops, pending index entries) and the shared read
path (fetch / scan / index lookups).  The slave-side lazy page application
lives in :mod:`repro.core.slave`; it calls back into
:meth:`Table.index_apply_committed` for eager index maintenance.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.common.errors import SchemaError, TransactionAborted
from repro.common.ids import PageId
from repro.engine.indexes import Key, Loc, VersionedHashIndex, VersionedTreeIndex
from repro.engine.schema import TableSchema, key_at
from repro.engine.txn import Transaction, UndoRecord
from repro.storage.ops import OpKind, PageOp, delta_update_op
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
        self.pk_index = VersionedHashIndex(f"{self.name}.pk", self.name, self.counters)
        self.indexes: Dict[str, VersionedTreeIndex] = {
            idx.name: VersionedTreeIndex(idx.name, self.name, self.counters)
            for idx in schema.indexes
        }
        #: Key column positions per secondary index, resolved once.
        self._index_positions: Dict[str, Tuple[int, ...]] = {
            idx.name: schema.positions_of(idx.columns) for idx in schema.indexes
        }
        self.row_count = 0
        self._nonfull: List[Page] = []

    # -- version tag / key helpers ----------------------------------------------
    def tag_v(self, txn: Transaction) -> Optional[int]:
        """The version of this table ``txn`` reads at; None = current state.

        Fixed for a statement: the read path resolves it once and hands it
        to every index probe and row read of the statement.
        """
        return txn.tag.get(self.name) if txn.tag is not None else None

    def index_keys(self, row: Row) -> list:
        """Every index of the table with ``row``'s key in it, primary first."""
        keyed = [(self.pk_index, self.schema.pk_of(row))]
        for name, positions in self._index_positions.items():
            keyed.append((self.indexes[name], key_at(row, positions)))
        return keyed

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
        txn.journal.append(UndoRecord(self.name, page.page_id, slot, None, row))
        txn.redo.append(PageOp(page.page_id, OpKind.INSERT, slot, row))
        txn.tables_written.add(self.name)
        for index, key in self.index_keys(row):
            index.add_pending(key, loc, txn.txn_id)
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
        txn.journal.append(UndoRecord(self.name, loc[0], loc[1], before, after))
        txn.redo.append(
            delta_update_op(loc[0], loc[1], before, after, self._index_positions.values())
        )
        txn.tables_written.add(self.name)
        for name, positions in self._index_positions.items():
            old_key = key_at(before, positions)
            new_key = key_at(after, positions)
            if old_key != new_key:
                self.indexes[name].mark_delete_pending(old_key, loc, txn.txn_id)
                self.indexes[name].add_pending(new_key, loc, txn.txn_id)
        self.counters.add("engine.rows_updated")

    def delete_row(self, txn: Transaction, loc: Loc) -> None:
        txn.require_active()
        page = self.store.get(loc[0])
        self.engine.touch_write(txn, page)
        before = page.get(loc[1])
        if before is None:
            raise SchemaError(f"delete of empty slot {loc} in {self.name}")
        page.put(loc[1], None)
        txn.journal.append(UndoRecord(self.name, loc[0], loc[1], before, None))
        txn.redo.append(PageOp(loc[0], OpKind.DELETE, loc[1], None, before))
        txn.tables_written.add(self.name)
        for index, key in self.index_keys(before):
            index.mark_delete_pending(key, loc, txn.txn_id)
        self.row_count -= 1
        self._remember_nonfull(page)
        self.counters.add("engine.rows_deleted")

    #: Inserts are striped over several non-full pages.  A single append
    #: page would serialise every concurrent inserting transaction on one
    #: X page lock (the classic last-page hotspot); real storage managers
    #: keep multiple insert free lists for exactly this reason.
    INSERT_STRIPES = 8

    def _allocate_slot(self, txn: Transaction) -> Tuple[Page, int]:
        self._nonfull = [p for p in self._nonfull if not p.full]
        candidates = self._nonfull
        if candidates:
            start = txn.txn_id % len(candidates)
            rotated = candidates[start:] + candidates[:start]
            unlocked = [
                p for p in rotated
                if not self.engine.controller.write_locked_by_other(txn, p)
            ]
            # Prefer a page no other transaction holds exclusively.
            for page in unlocked:
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
    def stamp_commit(self, records: Sequence[UndoRecord], version: int) -> None:
        """Stamp this table's pending index entries with the commit version."""
        for record in records:
            loc: Loc = (record.page_id, record.slot)
            if record.before is None and record.after is not None:
                for index, key in self.index_keys(record.after):
                    index.stamp_insert(key, loc, version)
            elif record.after is None and record.before is not None:
                for index, key in self.index_keys(record.before):
                    index.stamp_delete(key, loc, version)
            else:
                for name, positions in self._index_positions.items():
                    old_key = key_at(record.before, positions)
                    new_key = key_at(record.after, positions)
                    if old_key != new_key:
                        self.indexes[name].stamp_delete(old_key, loc, version)
                        self.indexes[name].stamp_insert(new_key, loc, version)

    def revert(self, record: UndoRecord) -> None:
        """Undo one journal record (page slot + index entries)."""
        page = self.store.get(record.page_id)
        page.put(record.slot, record.before)
        loc: Loc = (record.page_id, record.slot)
        if record.before is None and record.after is not None:
            for index, key in self.index_keys(record.after):
                index.revert_insert(key, loc)
            self.row_count -= 1
            self._remember_nonfull(page)
        elif record.after is None and record.before is not None:
            for index, key in self.index_keys(record.before):
                index.revert_delete(key, loc)
            self.row_count += 1
        else:
            for name, positions in self._index_positions.items():
                old_key = key_at(record.before, positions)
                new_key = key_at(record.after, positions)
                if old_key != new_key:
                    self.indexes[name].revert_insert(new_key, loc)
                    self.indexes[name].revert_delete(old_key, loc)

    # -- slave apply path -----------------------------------------------------------
    def update_index_keys(self, op: PageOp) -> List[Tuple[str, Tuple, Tuple]]:
        """``(index, old_key, new_key)`` for indexes an UPDATE op changes.

        Works for both full-image ops (before/after rows present) and
        delta-encoded ops (changed-column bitmap plus index-relevant
        before-columns) — the single reconstruction point shared by eager
        index maintenance and master-failure index rollback.
        """
        changed: List[Tuple[str, Tuple, Tuple]] = []
        if op.is_delta:
            before_values = dict(op.index_before or ())
            delta_values = dict(op.delta_items())
            for name, positions in self._index_positions.items():
                if not any((op.delta_mask >> p) & 1 for p in positions):
                    continue  # no key column changed: keys are equal
                old_key = tuple(before_values[p] for p in positions)
                new_key = tuple(delta_values.get(p, before_values[p]) for p in positions)
                if old_key != new_key:
                    changed.append((name, old_key, new_key))
        else:
            for name, positions in self._index_positions.items():
                old_key = key_at(op.before, positions)
                new_key = key_at(op.row, positions)
                if old_key != new_key:
                    changed.append((name, old_key, new_key))
        return changed

    def index_apply_committed(self, op: PageOp, version: int) -> None:
        """Eager index maintenance for one committed replicated op."""
        loc: Loc = (op.page_id, op.slot)
        if op.kind is OpKind.INSERT:
            for index, key in self.index_keys(op.row):
                index.add_committed(key, loc, version)
            self.row_count += 1
        elif op.kind is OpKind.DELETE:
            for index, key in self.index_keys(op.before):
                index.mark_delete_committed(key, loc, version)
            self.row_count -= 1
        else:
            for name, old_key, new_key in self.update_index_keys(op):
                self.indexes[name].mark_delete_committed(old_key, loc, version)
                self.indexes[name].add_committed(new_key, loc, version)

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
            loc: Loc = (page.page_id, slot)
            for index, key in self.index_keys(row):
                index.add_committed(key, loc, version)
            count += 1
        self.row_count += count
        return count

    def extent(self) -> Tuple[int, int, int]:
        """``(rows, pages, rows per page)``: what two replicas of a table must
        agree on for one to take the other's next bulk load as a copy."""
        return self.row_count, len(self.store.pages_of(self.name)), self.store.rows_per_page

    def copy_from(self, source: "Table") -> None:
        """Become what ``source`` is: pages, indexes, counts, insert pages.

        Rows, encoded keys and locations are immutable and stay shared;
        everything a replica mutates later (slot lists, index entries,
        buckets, tree nodes) is copied, in ``source``'s order and shape.
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
        self.pk_index = VersionedHashIndex(f"{self.name}.pk", self.name, self.counters)
        self.indexes = {
            name: VersionedTreeIndex(name, self.name, self.counters)
            for name in self._index_positions
        }
        self.row_count = 0
        self._nonfull = []
        for page in self.store.pages_of(self.name):
            for slot, row in page.iter_live():
                loc: Loc = (page.page_id, slot)
                for index, key in self.index_keys(row):
                    index.add_committed(key, loc, 0)
                self.row_count += 1
            if not page.full:
                self._nonfull.append(page)

    def gc_index_entries(self, watermark: int) -> int:
        """Drop index entries deleted at or before ``watermark``."""
        removed = self.pk_index.gc(watermark)
        for index in self.indexes.values():
            removed += index.gc(watermark)
        return removed
