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

An entry is not an object: a key's bucket is one flat list of immutable
elements, ``loc, insert_v, delete_v, writer`` per entry (DESIGN.md §2).
A bucket copied into another replica is frozen into a tuple that both
share, and a key's first committed entry is its bucket as it stands: the
one tuple of :func:`committed_entry`, which every replica applying the
same op holds.  The write side thaws a tuple back into the writer's own
list (:meth:`_BucketOps._writable`), the read side iterates either.
A key is one flat tuple (:func:`encode_key`); a primary-key probe encodes
it and tests a one-entry bucket inline (:meth:`VersionedHashIndex.lookup`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.counters import Counters
from repro.common.errors import SchemaError
from repro.common.ids import PageId, TxnId
from repro.engine.rbtree import RedBlackTree

#: Sentinel for "delete written but not yet committed".
PENDING = object()

Loc = Tuple[PageId, int]
Key = Tuple


#: Elements per entry of a flat bucket: ``[loc, insert_v, delete_v, writer, loc, ...]``.
STRIDE = 4
_INSERT_V, _DELETE_V, _WRITER = 1, 2, 3


def committed_entry(loc: Loc, version: int) -> Tuple:
    """The live entry a committed write adds at ``loc``: immutable, so every
    index and replica that adds it holds this one tuple — as the whole
    bucket of a key that had none (:meth:`_BucketOps.add_committed`)."""
    return (loc, version, None, None)


def entries(bucket: List) -> Iterator[Tuple[Loc, Optional[int], object, Optional[TxnId]]]:
    """A flat bucket's entries as ``(loc, insert_v, delete_v, writer)``."""
    it = iter(bucket)
    return zip(it, it, it, it)


def visible(entry: Tuple, reader: Optional[TxnId], tag_v: Optional[int]) -> bool:
    """Is this entry part of the state the reader should observe?  (The
    definition the read loops inline.)  ``tag_v is None`` is a current-state
    read (master side): committed deletes are invisible, pending inserts
    visible (the reader blocks on the page lock and re-checks the slot), and
    a pending delete invisible only to the deleting transaction.
    """
    _loc, insert_v, delete_v, writer = entry
    if tag_v is None:
        return delete_v is None or (delete_v is PENDING and writer != reader)
    live_at_tag = not (isinstance(delete_v, int) and delete_v <= tag_v)
    return insert_v is not None and insert_v <= tag_v and live_at_tag


def _visible_locs(bucket, reader: Optional[TxnId], tag_v: Optional[int]) -> List[Loc]:
    """The locations of ``bucket``'s :func:`visible` entries, inlined per case."""
    if not bucket:
        return []
    it = iter(bucket)
    if tag_v is None:
        return [loc for loc, _i, d, w in zip(it, it, it, it)
                if d is None or (d is PENDING and w != reader)]
    return [loc for loc, i, d, _w in zip(it, it, it, it)
            if i is not None and i <= tag_v and (d is None or d is PENDING or d > tag_v)]


#: The encoded NULL key component; sorts before every typed one.
_NULL = (0, "")


def encode_key(key: Key) -> Key:
    """Make keys totally ordered even when components are NULL.

    One flat tuple ``(tag, value, tag, value, ...)``: each component becomes
    ``0, ''`` for NULL or ``1, value`` otherwise, so NULLs sort first and
    never get compared against typed values — the order of a tuple of such
    pairs, at one tuple per key.  :data:`COMPONENT_MAX` in a tag position
    sorts after every component, which lets range planners build
    exclusive/inclusive prefix bounds.
    """
    if len(key) == 1:
        value = key[0]
        return _NULL if value is None else (1, value)
    flat: List = []
    for value in key:
        flat += _NULL if value is None else (1, value)
    return tuple(flat)


#: A tag that sorts after every encoded component; used to build prefix bounds.
COMPONENT_MAX = 2


def prefix_bounds(
    eq_prefix: Key,
    low: Optional[Tuple[object, bool]] = None,
    high: Optional[Tuple[object, bool]] = None,
) -> Tuple[Optional[Key], Optional[Key]]:
    """Encoded (lo, hi) bounds for "prefix equal, next component in range".

    ``low``/``high`` are ``(value, inclusive)`` pairs applying to the key
    component right after the equality prefix.  The returned bounds follow
    the tree's half-open ``lo <= key < hi`` convention; each concatenates
    encoded components, then :data:`COMPONENT_MAX` to pass every longer key.
    """
    prefix_enc = encode_key(eq_prefix)
    if low is None:
        if high is not None:
            # Bounded above only: start past the NULLs of the range
            # component, which sort first and satisfy no comparison.
            lo = prefix_enc + _NULL + (COMPONENT_MAX,)
        else:
            lo = prefix_enc if eq_prefix else None
    else:
        value, inclusive = low
        lo = prefix_enc + encode_key((value,))
        if not inclusive:
            lo += (COMPONENT_MAX,)
    if high is None:
        hi = prefix_enc + (COMPONENT_MAX,) if eq_prefix or low is not None else None
    else:
        value, inclusive = high
        hi = prefix_enc + encode_key((value,))
        if inclusive:
            hi += (COMPONENT_MAX,)
    return lo, hi


class _BucketOps:
    """Shared bucket manipulation for both index flavours.

    Write-side methods take the key already encoded (``Table.index_delta`` does
    it once, for every replica); the hash index's ``lookup`` and the tree's
    ``range_lookup`` take a plain key.
    """

    def __init__(self, name: str, table: str, counters: Counters) -> None:
        self.name = name
        self.table = table
        self.counters = counters
        self._tally = counters._values  # cleared in place by reset: probes count inline
        self.entry_count = 0
        #: Entries whose ``delete_v`` is a commit version — the only ones
        #: :meth:`gc` can ever remove, so it walks nothing while this is 0.
        self.committed_deletes = 0

    # Subclasses provide, for encoded keys, _writable(key, fresh=None) to get
    # its own bucket list (thawing a frozen one; an absent key gets ``fresh``
    # linked as its bucket and returned as is, or None without one) and
    # _drop_bucket(key).

    def _find(self, key: Key, loc: Loc, field: int, value, what: str, undo: bool = False):
        """``(bucket, position)`` of the entry at ``loc`` whose ``field`` is
        ``value``; raises naming ``what`` when there is none.

        Slot reuse means several entries (dead, live, pending) can share a
        location, so lookups also match on state: a pending insert has
        ``insert_v`` None, a pending delete ``delete_v`` PENDING, a live
        entry ``delete_v`` None (a pending insert counts: a txn may delete a
        row it inserted), a discarded one its version.  One transaction can
        leave two entries in the *same* state (delete, reuse the slot under
        the same key, delete again): forward steps run in journal order and
        consume the oldest match, ``undo`` steps the newest.
        """
        bucket = self._writable(key)
        positions = range(0, len(bucket or ()), STRIDE)
        for i in reversed(positions) if undo else positions:
            if bucket[i + field] == value and bucket[i] == loc:
                return bucket, i
        raise SchemaError(f"{self.name}: no {what} for {key}/{loc}")

    def _remove(self, key: Key, bucket: List, i: int) -> None:
        del bucket[i:i + STRIDE]
        self.entry_count -= 1
        if not bucket:
            self._drop_bucket(key)

    def _add(self, key: Key, entry) -> None:
        """Append one entry under ``key``; a key with no bucket takes
        ``entry`` itself as its bucket."""
        bucket = self._writable(key, entry)
        if bucket is not entry:
            bucket += entry
        self.entry_count += 1

    # -- master write path (pending entries) ---------------------------------
    def add_pending(self, key: Key, loc: Loc, writer: TxnId) -> None:
        self._add(key, [loc, None, None, writer])  # a list: stamping writes it

    def mark_delete_pending(self, key: Key, loc: Loc, writer: TxnId) -> None:
        bucket, i = self._find(key, loc, _DELETE_V, None, "live entry")
        bucket[i + _DELETE_V] = PENDING
        bucket[i + _WRITER] = writer

    # -- commit stamping / abort revert ---------------------------------------
    def stamp_insert(self, key: Key, loc: Loc, version: int) -> None:
        bucket, i = self._find(key, loc, _INSERT_V, None, "pending insert")
        bucket[i + _INSERT_V] = version
        bucket[i + _WRITER] = None

    def stamp_delete(self, key: Key, loc: Loc, version: int) -> None:
        bucket, i = self._find(key, loc, _DELETE_V, PENDING, "pending delete")
        bucket[i + _DELETE_V] = version
        bucket[i + _WRITER] = None
        self.committed_deletes += 1

    def revert_insert(self, key: Key, loc: Loc) -> None:
        bucket, i = self._find(key, loc, _INSERT_V, None, "pending insert to revert", undo=True)
        self._remove(key, bucket, i)

    def revert_delete(self, key: Key, loc: Loc) -> None:
        bucket, i = self._find(key, loc, _DELETE_V, PENDING, "pending delete to revert", undo=True)
        bucket[i + _DELETE_V] = None
        bucket[i + _WRITER] = None

    # -- slave apply path (already committed) ----------------------------------
    def add_committed(self, key: Key, entry: Tuple) -> None:
        """Add a :func:`committed_entry`.  A key with no bucket links the
        tuple itself, frozen: the replicas applying one op, and the indexes
        of one row, share it until one of them writes that key."""
        self._add(key, entry)

    def mark_delete_committed(self, key: Key, loc: Loc, version: int) -> None:
        bucket, i = self._find(key, loc, _DELETE_V, None, "live entry")
        bucket[i + _DELETE_V] = version
        self.committed_deletes += 1

    def remove_committed(self, key: Key, loc: Loc, version: int) -> None:
        """Undo an :meth:`add_committed` (master-failure write-set discard)."""
        bucket, i = self._find(key, loc, _INSERT_V, version, "committed entry", undo=True)
        self._remove(key, bucket, i)

    def unmark_delete_committed(self, key: Key, loc: Loc, version: int) -> None:
        """Undo a :meth:`mark_delete_committed` (write-set discard)."""
        bucket, i = self._find(key, loc, _DELETE_V, version, "committed delete", undo=True)
        bucket[i + _DELETE_V] = None
        self.committed_deletes -= 1

    # -- garbage collection --------------------------------------------------------
    def _gc_bucket(self, bucket: List, watermark: int) -> int:
        """Drop the entries of the list ``bucket`` deleted at or before
        ``watermark``, in place; returns how many."""
        kept: List = []
        for entry in entries(bucket):
            delete_v = entry[_DELETE_V]
            if delete_v is None or delete_v is PENDING or delete_v > watermark:
                kept += entry
        removed = (len(bucket) - len(kept)) // STRIDE
        bucket[:] = kept
        self.entry_count -= removed
        self.committed_deletes -= removed
        return removed

    def _collect(self, bucket, watermark: int) -> Tuple[List, int]:
        """GC one bucket: ``(what replaces it, entries dropped)``.  A frozen
        bucket is collected in a thawed copy, which replaces it only if it
        lost entries."""
        if type(bucket) is not tuple:
            return bucket, self._gc_bucket(bucket, watermark)
        thawed = list(bucket)
        removed = self._gc_bucket(thawed, watermark)
        return (thawed if removed else bucket), removed


class VersionedHashIndex(_BucketOps):
    """Equality-only index (primary keys and unique lookups)."""

    def __init__(self, name: str, table: str, counters: Optional[Counters] = None) -> None:
        super().__init__(name, table, counters if counters is not None else Counters())
        self._buckets: Dict[Key, List] = {}

    def lookup(self, key: Key, reader: Optional[TxnId], tag_v: Optional[int]) -> List[Loc]:
        """The primary-key probe, with no helper call on its common path: a
        one-column key is encoded here and a one-entry bucket is tested
        without a loop (:func:`visible`, inlined per case)."""
        self._tally["index.lookups"] += 1
        if len(key) == 1:
            value = key[0]
            bucket = self._buckets.get(_NULL if value is None else (1, value))
        else:
            bucket = self._buckets.get(encode_key(key))
        if bucket is None or len(bucket) != STRIDE:
            return _visible_locs(bucket, reader, tag_v)
        loc, i, d, w = bucket
        if tag_v is None:
            return [loc] if d is None or (d is PENDING and w != reader) else []
        seen = i is not None and i <= tag_v and (d is None or d is PENDING or d > tag_v)
        return [loc] if seen else []

    def has_live(self, key: Key, reader: Optional[TxnId], tag_v: Optional[int]) -> bool:
        return bool(self.lookup(key, reader, tag_v))

    def _writable(self, key: Key, fresh=None):
        bucket = self._buckets.get(key)
        if bucket is None:
            if fresh is not None:
                self._buckets[key] = fresh
            return fresh
        if type(bucket) is tuple:
            bucket = self._buckets[key] = list(bucket)
        return bucket

    def _drop_bucket(self, key: Key) -> None:
        self._buckets.pop(key, None)

    def copy_from(self, source: "VersionedHashIndex") -> None:
        """Become a copy of ``source``: same buckets in the same order.

        ``source``'s buckets are frozen in place and shared; whichever
        replica writes one next thaws its own (:meth:`_writable`).
        """
        buckets = source._buckets
        for key, bucket in buckets.items():
            buckets[key] = tuple(bucket)
        self._buckets = dict(buckets)
        self.entry_count = source.entry_count
        self.committed_deletes = source.committed_deletes

    def gc(self, watermark: int) -> int:
        if not self.committed_deletes:
            return 0
        removed = 0
        buckets = self._buckets
        for key, bucket in list(buckets.items()):
            bucket, dropped = self._collect(bucket, watermark)
            if not bucket:
                del buckets[key]
            elif dropped:
                buckets[key] = bucket
            removed += dropped
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

    def _writable(self, key: Key, fresh=None):
        """Links ``fresh`` or thaws through the node the one search found,
        so neither costs a second search."""
        before = self._tree.rotations
        node = self._tree.node(key, fresh)
        rotations = self._tree.rotations - before
        if rotations:
            self.counters.add("index.rotations", rotations)
        if node is None:
            return None
        if type(node.value) is tuple and node.value is not fresh:
            node.value = list(node.value)
        return node.value

    def _drop_bucket(self, key: Key) -> None:
        before = self._tree.rotations
        self._tree.delete(key)
        rotations = self._tree.rotations - before
        if rotations:
            self.counters.add("index.rotations", rotations)

    def copy_from(self, source: "VersionedTreeIndex") -> None:
        """Become a copy of ``source``, tree shape included.

        Node for node; ``source``'s buckets are frozen in place and shared,
        as in :meth:`VersionedHashIndex.copy_from`.  The rotations that
        built the tree are charged here as building it here would have
        charged them.
        """
        rotations = source._tree.rotations - self._tree.rotations
        self._tree = source._tree.copy(tuple)
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

        The per-entry test is :func:`visible` inlined — this is the one
        loop that runs per row of every listing.  Which of its two cases
        applies is fixed for the scan, and ``delete_v`` is None, PENDING or
        an int, so "is an int" needs no ``isinstance``.
        """
        self.counters.add("index.range_scans")
        buckets = self._tree.range_items(lo_enc, hi_enc, reverse=reverse)
        if tag_v is None:
            for _key, bucket in buckets:
                it = iter(bucket)
                for loc, _i, d, w in zip(it, it, it, it):
                    if d is None or (d is PENDING and w != reader):
                        yield loc
        else:
            for _key, bucket in buckets:
                it = iter(bucket)
                for loc, i, d, _w in zip(it, it, it, it):
                    if i is not None and i <= tag_v and (d is None or d is PENDING or d > tag_v):
                        yield loc

    def gc(self, watermark: int) -> int:
        if not self.committed_deletes:
            return 0
        removed = 0
        empty_keys = []
        for node in self._tree.nodes():
            bucket, dropped = self._collect(node.value, watermark)
            if not bucket:
                empty_keys.append(node.key)
            elif dropped:
                node.value = bucket
            removed += dropped
        for key in empty_keys:
            self._tree.delete(key)
        return removed
