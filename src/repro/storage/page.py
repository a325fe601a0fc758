"""Slotted row pages and the per-node page container.

Rows are immutable tuples; a page owns a fixed number of row slots.  Every
page carries ``version`` — the value of its table's entry in the database
version vector (``DBVersion``) at the time of the last modification applied
to the page.  Dynamic Multiversioning's lazy snapshot materialisation and
its version-aware page migration both key off this single integer.
"""

from __future__ import annotations

from functools import cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import SchemaError
from repro.common.ids import PageId, page_id_of

#: Default number of row slots per page.  The paper's pages are fixed-size
#: memory pages; 64 rows/page keeps page counts realistic at our scale.
ROWS_PER_PAGE = 64

Row = Tuple


@cache
def empty_slots(capacity: int) -> Tuple[None, ...]:
    """The one frozen all-empty slot image of ``capacity`` slots."""
    return (None,) * capacity


class Page:
    """A fixed-capacity slotted page holding rows of one table."""

    __slots__ = ("page_id", "capacity", "slots", "version", "stamp", "live_rows", "_free_hint")

    def __init__(
        self,
        page_id: PageId,
        capacity: int = ROWS_PER_PAGE,
        version: int = 0,
        slots: Optional[Sequence[Optional[Row]]] = None,
    ) -> None:
        self.page_id = page_id
        self.capacity = capacity
        #: A private list, or a tuple frozen by :meth:`snapshot` /
        #: :meth:`load_from` or given (:func:`empty_slots`) and possibly
        #: shared; only :meth:`put` writes it.
        self.slots: Sequence[Optional[Row]] = [None] * capacity if slots is None else slots
        self.version = version
        #: Monotonic mutation stamp, bumped on *every* content change —
        #: including uncommitted writes and undo reverts, unlike ``version``
        #: which only moves at commit stamping.  The OCC read path validates
        #: its read-set against this, so rolled-back writes still invalidate
        #: readers that saw them.
        self.stamp = 0
        self.live_rows = 0
        #: Lowest slot that could be free; every slot below it is occupied.
        #: Keeps hot insert pages from rescanning all slots per allocation.
        self._free_hint = 0

    # -- slot accessors ------------------------------------------------------
    def get(self, slot: int) -> Optional[Row]:
        return self.slots[slot]

    def put(self, slot: int, row: Optional[Row]) -> None:
        """Set a slot's contents, maintaining the live-row count.

        The only writer of ``slots``: a frozen slot tuple, shared with a
        snapshot or with other replicas, is thawed into this page's own
        list on its first write.
        """
        self.stamp += 1
        slots = self.slots
        before = slots[slot]
        if before is None and row is not None:
            self.live_rows += 1
        elif before is not None and row is None:
            self.live_rows -= 1
            if slot < self._free_hint:
                self._free_hint = slot
        try:
            slots[slot] = row
        except TypeError:  # frozen
            self.slots = slots = list(slots)
            slots[slot] = row

    def first_free_slot(self) -> Optional[int]:
        if self.live_rows >= self.capacity:
            return None
        slots = self.slots
        index = self._free_hint
        while index < self.capacity and slots[index] is not None:
            index += 1
        if index >= self.capacity:  # hint invariant broken externally: rescan
            index = 0
            while index < self.capacity and slots[index] is not None:
                index += 1
            if index >= self.capacity:
                return None
        self._free_hint = index
        return index

    def iter_live(self) -> Iterator[Tuple[int, Row]]:
        """Yield ``(slot, row)`` for every occupied slot."""
        for index, row in enumerate(self.slots):
            if row is not None:
                yield index, row

    @property
    def full(self) -> bool:
        return self.live_rows >= self.capacity

    # -- whole-page operations (migration / checkpoint) -----------------------
    def snapshot(self) -> "Page":
        """Exact copy that shares this page's slots, frozen.

        Rows are immutable tuples, so once the slot list is a tuple both
        pages can hold it; whichever is written next thaws its own list
        (:meth:`put`).  A page that is not written again costs its copies
        a ``Page`` each and no slot storage.
        """
        slots = self.slots = tuple(self.slots)
        copy = Page.__new__(Page)
        copy.page_id = self.page_id
        copy.capacity = self.capacity
        copy.slots = slots
        copy.version = self.version
        copy.stamp = self.stamp
        copy.live_rows = self.live_rows
        copy._free_hint = self._free_hint
        return copy

    def load_from(self, other: "Page") -> None:
        """Overwrite this page's contents with another image of it.

        Adopts the image's frozen slots (freezing a copy of a page whose
        slots are still a private list): the next :meth:`put` thaws.
        """
        if other.page_id != self.page_id:
            raise SchemaError(f"page image mismatch: {other.page_id} into {self.page_id}")
        self.capacity = other.capacity
        self.slots = tuple(other.slots)
        self.version = other.version
        self.stamp += 1  # contents changed: invalidate optimistic readers
        self.live_rows = other.live_rows
        self._free_hint = 0

    def byte_size(self) -> int:
        """Approximate wire size of the page (for network cost accounting)."""
        total = 16  # header
        for row in self.slots:
            if row is not None:
                total += 8 + sum(_field_size(field) for field in row)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Page({self.page_id}, v{self.version}, {self.live_rows}/{self.capacity})"


def _field_size(value: object) -> int:
    if isinstance(value, str):
        return len(value) + 1
    if isinstance(value, float):
        return 8
    if value is None:
        return 1
    return 8  # ints and everything else


class PageStore:
    """All pages of one node, indexed by :class:`PageId`.

    One store per database replica.  Tables allocate pages through the
    store, so page numbering is dense per table, which the migration
    protocol relies on when comparing per-page versions.
    """

    def __init__(self, rows_per_page: int = ROWS_PER_PAGE) -> None:
        self.rows_per_page = rows_per_page
        self._pages: Dict[PageId, Page] = {}
        self._per_table: Dict[str, List[Page]] = {}

    def allocate(self, table: str, slots: Optional[Tuple[None, ...]] = None) -> Page:
        """Create and register the next page of ``table``: with a private
        slot list for a caller about to write it, or the given frozen
        ``slots``."""
        pages = self._per_table.setdefault(table, [])
        page = Page(page_id_of(table, len(pages)), self.rows_per_page, slots=slots)
        pages.append(page)
        self._pages[page.page_id] = page
        return page

    def get(self, page_id: PageId) -> Page:
        try:
            return self._pages[page_id]
        except KeyError:
            raise SchemaError(f"no such page: {page_id}") from None

    def page_map(self) -> Dict[PageId, Page]:
        """The live ``page id -> page`` dict itself, not a copy.

        For the engine's read funnel, which looks a page up per row read
        and cannot afford a call for it.  The dict is only ever mutated in
        place, never replaced, so a reference stays valid for the store's
        lifetime; holders must not write to it.
        """
        return self._pages

    def get_or_allocate(self, page_id: PageId) -> Page:
        """Fetch a page, allocating (densely) up to it if missing.

        Replicas applying write-sets may see operations for pages their
        local table has not grown yet; allocation is deterministic so the
        same page numbers exist on every replica — and, allocated through
        :func:`~repro.common.ids.page_id_of`, the same id objects.  Nothing
        here writes the page, so it starts from the shared
        :func:`empty_slots` image, which its first :meth:`Page.put` thaws.
        """
        while page_id not in self._pages:
            self.allocate(page_id.table, empty_slots(self.rows_per_page))
        return self._pages[page_id]

    def copy_table_from(self, source: "PageStore", table: str) -> None:
        """Make this store's pages of ``table`` exact copies of ``source``'s.

        One :meth:`Page.snapshot` per page: the copies share the source's
        slots, frozen, until either side writes a page.  The caller
        guarantees both stores held the same pages of ``table`` before
        ``source`` grew, so new pages land in ``_pages`` in the order an
        independent load here would have allocated them.
        """
        pages = [page.snapshot() for page in source.pages_of(table)]
        if pages:
            self._per_table[table] = pages
            self._pages.update((page.page_id, page) for page in pages)

    def contains(self, page_id: PageId) -> bool:
        return page_id in self._pages

    def pages_of(self, table: str) -> List[Page]:
        return self._per_table.get(table, [])

    def tables(self) -> List[str]:
        return sorted(self._per_table)

    def all_pages(self) -> Iterator[Page]:
        for table in sorted(self._per_table):
            yield from self._per_table[table]

    def page_count(self) -> int:
        return len(self._pages)

    def version_map(self) -> Dict[PageId, int]:
        """Current ``page -> version`` map (the migration handshake payload)."""
        return {page_id: page.version for page_id, page in self._pages.items()}

    def total_bytes(self) -> int:
        return sum(page.byte_size() for page in self._pages.values())

    def clear(self) -> None:
        """Drop all pages (models a node whose memory contents were lost)."""
        self._pages.clear()
        self._per_table.clear()
