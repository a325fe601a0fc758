"""Per-page physical modification encodings.

A :class:`PageOp` describes one slot-level change to one page — the unit
the master's redo log, the replicated write-sets and the slave's pending
modification queues are all made of.  Applying the same ordered sequence of
ops to the same starting page image is deterministic, which is what makes
lazy per-page application on slaves equivalent to eager application.

UPDATE ops are *delta-encoded* on the replication fast path: instead of the
full before/after row images they carry a changed-column bitmap, the new
values of exactly those columns, and the before-images of just the
index-relevant columns slaves need for eager index maintenance.  Applying a
delta op reconstructs the after-image from the slot's current contents,
which is correct because ops are applied in version order from the same
base image on every replica.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.common.errors import SchemaError
from repro.common.ids import PageId
from repro.storage.page import Page, Row, _field_size

#: Encode-work instrumentation: how many times op / write-set wire sizes and
#: ops' index deltas (``Table.index_delta``) were actually *computed* (cache
#: misses).  Tests assert memoization by snapshotting these around a broadcast.
ENCODE_STATS: Dict[str, int] = {"op_sizes": 0, "writeset_sizes": 0, "index_deltas": 0}


class OpKind(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True, slots=True)
class PageOp:
    """One slot-level modification of one page.

    ``before`` carries the prior row image for full-image UPDATE/DELETE
    ops.  Slaves need it to maintain their version-aware indexes eagerly
    while the page itself is applied lazily (they cannot read the pre-image
    from a page that may still have earlier pending ops queued).

    A *delta* UPDATE (``row is None``, ``delta is not None``) replaces both
    images: ``delta_mask`` is a bitmap of changed column positions,
    ``delta`` holds the new values of those columns in ascending position
    order, and ``index_before`` holds ``(position, before_value)`` pairs
    covering every column of every index touched by the change.
    """

    page_id: PageId
    kind: OpKind
    slot: int
    row: Optional[Row] = None  # new row image; None for DELETE and deltas
    before: Optional[Row] = None  # prior row image; None for INSERT and deltas
    delta_mask: int = 0
    delta: Optional[Tuple] = None
    index_before: Optional[Tuple] = None
    #: ``(page_id, slot)``, built once: the index entries the op makes on
    #: the master and on every slave share this one tuple.
    loc: Tuple[PageId, int] = field(init=False, repr=False, compare=False)
    #: Caches, derived on first use and shared by every replica the op
    #: reaches: declared slots, outside the op's identity and wire size.
    _delta_items: Optional[Tuple] = field(default=None, init=False, repr=False, compare=False)
    _index_delta: Optional[Tuple] = field(default=None, init=False, repr=False, compare=False)
    _committed_entry: Optional[Tuple] = field(default=None, init=False, repr=False, compare=False)
    _full_size: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _encoded_size: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "loc", (self.page_id, self.slot))

    @property
    def is_delta(self) -> bool:
        return self.delta is not None

    def delta_items(self) -> Tuple[Tuple[int, object], ...]:
        """``(position, new_value)`` pairs of a delta op, ascending."""
        cached = self._delta_items
        if cached is None:
            cached = tuple(zip(_mask_positions(self.delta_mask), self.delta or ()))
            object.__setattr__(self, "_delta_items", cached)
        return cached

    def apply_delta(self, base: Row) -> Row:
        """After-image of ``base`` under this delta op."""
        out = list(base)
        for position, value in self.delta_items():
            out[position] = value
        return tuple(out)

    def inverse(self, before: Optional[Row]) -> "PageOp":
        """The undo record for this op given the slot's prior contents."""
        if self.kind is OpKind.INSERT:
            return PageOp(self.page_id, OpKind.DELETE, self.slot, None)
        if self.kind is OpKind.DELETE:
            return PageOp(self.page_id, OpKind.INSERT, self.slot, before)
        return PageOp(self.page_id, OpKind.UPDATE, self.slot, before)


def _mask_positions(mask: int) -> Tuple[int, ...]:
    positions = []
    position = 0
    while mask:
        if mask & 1:
            positions.append(position)
        mask >>= 1
        position += 1
    return tuple(positions)


def delta_update_op(
    page_id: PageId,
    slot: int,
    before: Row,
    after: Row,
    index_positions: Iterable[Sequence[int]] = (),
) -> PageOp:
    """Build a delta-encoded UPDATE op from full before/after images.

    ``index_positions`` lists, per secondary index, the column positions
    that index covers; the op ships before-values for every column of every
    index that has at least one changed column (the slave reconstructs old
    and new index keys from them without the full pre-image).
    """
    mask = 0
    for position, (old, new) in enumerate(zip(before, after)):
        if old != new:
            mask |= 1 << position
    delta = tuple(after[p] for p in _mask_positions(mask))
    needed = set()
    for positions in index_positions:
        if any((mask >> p) & 1 for p in positions):
            needed.update(positions)
    idx_before = tuple(sorted((p, before[p]) for p in needed))
    op = PageOp(
        page_id, OpKind.UPDATE, slot,
        delta_mask=mask, delta=delta, index_before=idx_before,
    )
    # Stash what the op would have cost as a full before+after image, so
    # the cluster layers can report bytes saved by delta encoding.
    full = 24 + sum(_field_size(f) for f in after) + sum(_field_size(f) for f in before)
    object.__setattr__(op, "_full_size", full)
    return op


def apply_op(page: Page, op: PageOp) -> None:
    """Apply one modification to a page image (does not touch versions)."""
    if op.page_id != page.page_id:
        raise SchemaError(f"op for {op.page_id} applied to {page.page_id}")
    if op.kind is OpKind.DELETE:
        page.put(op.slot, None)
    elif op.is_delta:
        base = page.get(op.slot)
        if base is None:
            raise SchemaError(f"delta update of empty slot {op.slot} on {page.page_id}")
        page.put(op.slot, op.apply_delta(base))
    else:
        if op.row is None:
            raise SchemaError(f"{op.kind.value} op without a row image")
        page.put(op.slot, op.row)


def apply_ops(page: Page, ops: Iterable[PageOp]) -> int:
    """Apply an ordered batch of ops; returns how many were applied."""
    count = 0
    for op in ops:
        apply_op(page, op)
        count += 1
    return count


def encoded_size(op: PageOp) -> int:
    """Wire size of one op in bytes (computed once, cached on the op)."""
    cached = op._encoded_size
    if cached is None:
        cached = _compute_encoded_size(op)
        object.__setattr__(op, "_encoded_size", cached)
    return cached


def _compute_encoded_size(op: PageOp) -> int:
    ENCODE_STATS["op_sizes"] += 1
    base = 24  # page id, kind, slot, framing
    if op.row is not None:
        base += sum(_field_size(field) for field in op.row)
    if op.before is not None:
        base += sum(_field_size(field) for field in op.before)
    if op.is_delta:
        base += 8  # changed-column bitmap
        base += sum(_field_size(value) for value in op.delta)
        base += sum(2 + _field_size(value) for _p, value in op.index_before or ())
    return base


def bytes_saved(op: PageOp) -> int:
    """Bytes delta encoding shaved off this op vs full before/after images."""
    full = op._full_size
    return full - encoded_size(op) if full is not None else 0


def ops_size(ops: Iterable[PageOp]) -> int:
    return sum(encoded_size(op) for op in ops)


def touched_pages(ops: Iterable[PageOp]) -> Tuple[PageId, ...]:
    """Distinct pages touched, in first-touch order."""
    seen = {}
    for op in ops:
        seen.setdefault(op.page_id, None)
    return tuple(seen)
