"""Version-aware hash and tree indexes.

The paper replicates index structure physically (index pages are memory
pages too).  We substitute *logical* multiversion index maintenance (see
DESIGN.md §2): every index entry carries

* ``insert_v`` — the version vector entry at which the row became visible
  (``None`` while the writing master transaction is uncommitted), and
* ``delete_v`` — ``None`` while live, the :data:`PENDING` sentinel while an
  uncommitted master transaction is deleting it, or the commit version of
  the delete.

Masters create *pending* entries in place and stamp them with the commit
version at pre-commit; slaves create already-stamped entries eagerly when a
write-set arrives, while the data pages themselves are still applied
lazily.  Reads filter entries by their transaction's version tag (or read
"current state" when untagged, as masters do).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.counters import Counters
from repro.common.errors import SchemaError
from repro.common.ids import PageId, TxnId
from repro.engine.rbtree import RedBlackTree

#: Sentinel for "delete written but not yet committed".
PENDING = object()

Loc = Tuple[PageId, int]
Key = Tuple


@dataclass
class IndexEntry:
    """One (key -> row location) fact with its version validity window."""

    loc: Loc
    insert_v: Optional[int]  # None = pending insert
    delete_v: object = None  # None | PENDING | int
    writer: Optional[TxnId] = None  # txn that created / is deleting it

    def visible(self, reader: Optional[TxnId], tag_v: Optional[int]) -> bool:
        """Is this entry part of the state the reader should observe?

        ``tag_v is None`` means a current-state read (master side):
        committed deletes are invisible, pending inserts are visible (the
        reader will block on the page lock and re-check the slot), and a
        pending delete is invisible only to the deleting transaction.
        """
        if tag_v is None:
            if isinstance(self.delete_v, int):
                return False
            if self.delete_v is PENDING and self.writer == reader:
                return False
            return True
        if self.insert_v is None or self.insert_v > tag_v:
            return False
        if isinstance(self.delete_v, int) and self.delete_v <= tag_v:
            return False
        return True


def _copy_bucket(bucket: List[IndexEntry]) -> List[IndexEntry]:
    """Entries are mutated in place (delete stamps), so a copy owns its own."""
    return [IndexEntry(e.loc, e.insert_v, e.delete_v, e.writer) for e in bucket]


#: The encoded NULL key component; sorts before every typed one.
_NULL = (0, "")


def encode_key(key: Key) -> Key:
    """Make keys totally ordered even when components are NULL.

    Each component becomes ``(0, '')`` for NULL or ``(1, value)`` otherwise,
    so NULLs sort first and never get compared against typed values.
    :data:`COMPONENT_MAX` sorts after every encoded component, which lets
    range planners build exclusive/inclusive prefix bounds.
    """
    return tuple([_NULL if v is None else (1, v) for v in key])


#: Sorts after every encoded key component; used to build prefix bounds.
COMPONENT_MAX = (2,)


def prefix_bounds(
    eq_prefix: Key,
    low: Optional[Tuple[object, bool]] = None,
    high: Optional[Tuple[object, bool]] = None,
) -> Tuple[Optional[Key], Optional[Key]]:
    """Encoded (lo, hi) bounds for "prefix equal, next component in range".

    ``low``/``high`` are ``(value, inclusive)`` pairs applying to the key
    component right after the equality prefix.  The returned bounds follow
    the tree's half-open ``lo <= key < hi`` convention.
    """
    prefix_enc = encode_key(eq_prefix)
    if low is None:
        if high is not None:
            # Bounded above only: start past the NULLs of the range
            # component, which sort first and satisfy no comparison.
            lo = prefix_enc + (_NULL, COMPONENT_MAX)
        else:
            lo = prefix_enc if eq_prefix else None
    else:
        value, inclusive = low
        lo = prefix_enc + (encode_key((value,))[0],)
        if not inclusive:
            lo = lo + (COMPONENT_MAX,)
    if high is None:
        hi = prefix_enc + (COMPONENT_MAX,) if eq_prefix or low is not None else None
    else:
        value, inclusive = high
        hi = prefix_enc + (encode_key((value,))[0],)
        if inclusive:
            hi = hi + (COMPONENT_MAX,)
    return lo, hi


class _BucketOps:
    """Shared bucket manipulation for both index flavours.

    Write-side methods take the key already encoded (``Table.index_delta`` does
    it once, for every replica); :meth:`lookup` and ``range_lookup`` a plain key.
    """

    def __init__(self, name: str, table: str, counters: Counters) -> None:
        self.name = name
        self.table = table
        self.counters = counters
        self.entry_count = 0
        #: Entries whose ``delete_v`` is a commit version — the only ones
        #: :meth:`gc` can ever remove, so it walks nothing while this is 0.
        self.committed_deletes = 0

    # Subclasses provide _bucket(key, create) and _drop_bucket(key) (encoded keys).

    def _find(self, bucket, loc: Loc, state: str, undo: bool = False) -> Optional[IndexEntry]:
        """Find the entry at ``loc`` in the given lifecycle state.

        Slot reuse means several entries (dead, live, pending) can share a
        location, so lookups must also match on state:

        * ``"pending-insert"`` — insert_v is None,
        * ``"pending-delete"`` — delete_v is PENDING,
        * ``"live"`` — committed insert, no delete in progress.

        One transaction can leave two entries in the *same* state (delete,
        reuse the slot under the same key, delete again): forward steps run
        in journal order and consume the oldest match, ``undo`` steps run
        in reverse and take the newest.
        """
        for entry in reversed(bucket or ()) if undo else bucket or ():
            if entry.loc != loc:
                continue
            if state == "pending-insert" and entry.insert_v is None:
                return entry
            if state == "pending-delete" and entry.delete_v is PENDING:
                return entry
            if state == "live" and entry.delete_v is None:
                # "live" = no delete in progress; a pending insert counts
                # (a txn may delete a row it inserted itself).
                return entry
        return None

    # -- master write path (pending entries) ---------------------------------
    def add_pending(self, key: Key, loc: Loc, writer: TxnId) -> None:
        bucket = self._bucket(key, create=True)
        bucket.append(IndexEntry(loc, None, None, writer))
        self.entry_count += 1

    def mark_delete_pending(self, key: Key, loc: Loc, writer: TxnId) -> None:
        entry = self._live_entry(key, loc)
        entry.delete_v = PENDING
        entry.writer = writer

    # -- commit stamping / abort revert ---------------------------------------
    def stamp_insert(self, key: Key, loc: Loc, version: int) -> None:
        entry = self._find(self._bucket(key, create=False), loc, "pending-insert")
        if entry is None:
            raise SchemaError(f"{self.name}: no pending insert for {key}/{loc}")
        entry.insert_v = version
        entry.writer = None

    def stamp_delete(self, key: Key, loc: Loc, version: int) -> None:
        entry = self._find(self._bucket(key, create=False), loc, "pending-delete")
        if entry is None:
            raise SchemaError(f"{self.name}: no pending delete for {key}/{loc}")
        entry.delete_v = version
        entry.writer = None
        self.committed_deletes += 1

    def revert_insert(self, key: Key, loc: Loc) -> None:
        bucket = self._bucket(key, create=False)
        entry = self._find(bucket, loc, "pending-insert", undo=True)
        if entry is None:
            raise SchemaError(f"{self.name}: no entry to revert for {key}/{loc}")
        bucket.remove(entry)
        self.entry_count -= 1
        if not bucket:
            self._drop_bucket(key)

    def revert_delete(self, key: Key, loc: Loc) -> None:
        entry = self._find(self._bucket(key, create=False), loc, "pending-delete", undo=True)
        if entry is None:
            raise SchemaError(f"{self.name}: no pending delete to revert for {key}/{loc}")
        entry.delete_v = None
        entry.writer = None

    # -- slave apply path (already committed) ----------------------------------
    def add_committed(self, key: Key, loc: Loc, version: int) -> None:
        bucket = self._bucket(key, create=True)
        bucket.append(IndexEntry(loc, version, None, None))
        self.entry_count += 1

    def mark_delete_committed(self, key: Key, loc: Loc, version: int) -> None:
        entry = self._live_entry(key, loc)
        entry.delete_v = version
        self.committed_deletes += 1

    def remove_committed(self, key: Key, loc: Loc, version: int) -> None:
        """Undo an :meth:`add_committed` (master-failure write-set discard)."""
        bucket = self._bucket(key, create=False)
        for entry in reversed(bucket or ()):  # an undo step: newest first (see _find)
            if entry.loc == loc and entry.insert_v == version:
                bucket.remove(entry)
                self.entry_count -= 1
                if not bucket:
                    self._drop_bucket(key)
                return
        raise SchemaError(f"{self.name}: no committed entry v{version} for {key}/{loc}")

    def unmark_delete_committed(self, key: Key, loc: Loc, version: int) -> None:
        """Undo a :meth:`mark_delete_committed` (write-set discard)."""
        bucket = self._bucket(key, create=False)
        for entry in reversed(bucket or ()):
            if entry.loc == loc and entry.delete_v == version:
                entry.delete_v = None
                self.committed_deletes -= 1
                return
        raise SchemaError(f"{self.name}: no committed delete v{version} for {key}/{loc}")

    def _live_entry(self, key: Key, loc: Loc) -> IndexEntry:
        entry = self._find(self._bucket(key, create=False), loc, "live")
        if entry is None:
            raise SchemaError(f"{self.name}: no live entry for {key} at {loc}")
        return entry

    # -- reads -------------------------------------------------------------------
    def lookup(self, key: Key, reader: Optional[TxnId], tag_v: Optional[int]) -> List[Loc]:
        self.counters.add("index.lookups")
        bucket = self._bucket(encode_key(key), create=False)
        if not bucket:
            return []
        return [e.loc for e in bucket if e.visible(reader, tag_v)]

    def has_live(self, key: Key, reader: Optional[TxnId], tag_v: Optional[int]) -> bool:
        return bool(self.lookup(key, reader, tag_v))

    # -- garbage collection --------------------------------------------------------
    def _gc_bucket(self, bucket: List[IndexEntry], watermark: int) -> int:
        before = len(bucket)
        bucket[:] = [
            e
            for e in bucket
            if not (isinstance(e.delete_v, int) and e.delete_v <= watermark)
        ]
        removed = before - len(bucket)
        self.entry_count -= removed
        self.committed_deletes -= removed
        return removed


class VersionedHashIndex(_BucketOps):
    """Equality-only index (primary keys and unique lookups)."""

    def __init__(self, name: str, table: str, counters: Optional[Counters] = None) -> None:
        super().__init__(name, table, counters if counters is not None else Counters())
        self._buckets: Dict[Key, List[IndexEntry]] = {}

    def _bucket(self, key: Key, create: bool) -> Optional[List[IndexEntry]]:
        if create:
            return self._buckets.setdefault(key, [])
        return self._buckets.get(key)

    def _drop_bucket(self, key: Key) -> None:
        self._buckets.pop(key, None)

    def copy_from(self, source: "VersionedHashIndex") -> None:
        """Become a copy of ``source``: same buckets in the same order."""
        self._buckets = {key: _copy_bucket(b) for key, b in source._buckets.items()}
        self.entry_count = source.entry_count
        self.committed_deletes = source.committed_deletes

    def gc(self, watermark: int) -> int:
        if not self.committed_deletes:
            return 0
        removed = 0
        for key in list(self._buckets):
            bucket = self._buckets[key]
            removed += self._gc_bucket(bucket, watermark)
            if not bucket:
                del self._buckets[key]
        return removed


class VersionedTreeIndex(_BucketOps):
    """Range-capable index backed by the red–black tree.

    Tree rotations are surfaced into the counters ("index.rotations") so
    the simulation can charge the master's RB-tree rebalancing cost that
    the paper blames for ordering-mix saturation.
    """

    def __init__(self, name: str, table: str, counters: Optional[Counters] = None) -> None:
        super().__init__(name, table, counters if counters is not None else Counters())
        self._tree = RedBlackTree()

    def _bucket(self, key: Key, create: bool) -> Optional[List[IndexEntry]]:
        before = self._tree.rotations
        if create:
            bucket = self._tree.setdefault(key, list)
        else:
            bucket = self._tree.get(key)
        rotations = self._tree.rotations - before
        if rotations:
            self.counters.add("index.rotations", rotations)
        return bucket

    def _drop_bucket(self, key: Key) -> None:
        before = self._tree.rotations
        self._tree.delete(key)
        rotations = self._tree.rotations - before
        if rotations:
            self.counters.add("index.rotations", rotations)

    def copy_from(self, source: "VersionedTreeIndex") -> None:
        """Become a copy of ``source``, tree shape included.

        The rotations that built the tree are charged here as building it
        here would have charged them.
        """
        rotations = source._tree.rotations - self._tree.rotations
        self._tree = source._tree.copy(_copy_bucket)
        self.entry_count = source.entry_count
        self.committed_deletes = source.committed_deletes
        if rotations:
            self.counters.add("index.rotations", rotations)

    def range_lookup(
        self,
        lo: Optional[Key],
        hi: Optional[Key],
        reader: Optional[TxnId],
        tag_v: Optional[int],
        reverse: bool = False,
    ) -> Iterator[Loc]:
        """Locations with ``lo <= key < hi`` in (reverse) key order.

        Prefix bounds are supported by passing partial keys: a bound tuple
        shorter than the index key compares prefix-wise, which is exactly
        Python tuple comparison.
        """
        lo_enc = encode_key(lo) if lo is not None else None
        hi_enc = encode_key(hi) if hi is not None else None
        return self.range_lookup_encoded(lo_enc, hi_enc, reader, tag_v, reverse)

    def range_lookup_encoded(
        self,
        lo_enc: Optional[Key],
        hi_enc: Optional[Key],
        reader: Optional[TxnId],
        tag_v: Optional[int],
        reverse: bool = False,
    ) -> Iterator[Loc]:
        """Range scan with pre-encoded bounds (see :func:`prefix_bounds`).

        The per-entry test is :meth:`IndexEntry.visible` inlined — this is
        the one loop that runs per row of every listing.  Which of its two
        cases applies is fixed for the scan, and ``delete_v`` is None,
        PENDING or an int, so "is an int" needs no ``isinstance``.
        """
        self.counters.add("index.range_scans")
        buckets = self._tree.range_items(lo_enc, hi_enc, reverse=reverse)
        if tag_v is None:
            for _key, bucket in buckets:
                for e in bucket:
                    if e.delete_v is None or (e.delete_v is PENDING and e.writer != reader):
                        yield e.loc
        else:
            for _key, bucket in buckets:
                for e in bucket:
                    if (
                        e.insert_v is not None
                        and e.insert_v <= tag_v
                        and (e.delete_v is None or e.delete_v is PENDING or e.delete_v > tag_v)
                    ):
                        yield e.loc

    def scan_all(
        self, reader: Optional[TxnId], tag_v: Optional[int], reverse: bool = False
    ) -> Iterator[Loc]:
        return self.range_lookup(None, None, reader, tag_v, reverse=reverse)

    def gc(self, watermark: int) -> int:
        if not self.committed_deletes:
            return 0
        removed = 0
        empty_keys = []
        for key, bucket in self._tree.items():
            removed += self._gc_bucket(bucket, watermark)
            if not bucket:
                empty_keys.append(key)
        for key in empty_keys:
            self._tree.delete(key)
        return removed
