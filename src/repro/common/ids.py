"""Typed identifiers used throughout the cluster.

``NodeId`` and ``TxnId`` are plain ``str``/``int`` aliases — the type names
exist to make signatures self-documenting.  ``PageId`` is a real value type
because pages are addressed by (table, page number) pairs everywhere in the
replication protocol.
"""

from __future__ import annotations

import itertools
from typing import Dict, NamedTuple, Tuple

NodeId = str
TxnId = int


class PageId(NamedTuple):
    """Address of one storage page: a table name plus a page number.

    A named tuple, so hashing, equality and ordering run at C speed — page
    ids are hashed several times on every page touch — and the hash is
    ``hash((table, number))``: dict and set iteration orders over page ids
    (and with them replay determinism) do not depend on how the type is
    spelled.
    """

    table: str
    number: int

    def __str__(self) -> str:
        return f"{self.table}#{self.number}"


_PAGE_IDS: Dict[Tuple[str, int], PageId] = {}


def page_id_of(table: str, number: int) -> PageId:
    """The one :class:`PageId` object for ``(table, number)``: page stores
    allocate through it, so every replica keys a page by the same object
    whatever order it allocates pages in.  Ids are values, so sharing them
    process-wide changes identity only (``setdefault``: thread-safe)."""
    return _PAGE_IDS.setdefault((table, number), PageId(table, number))


class IdAllocator:
    """Monotonic integer id source, one instance per id space.

    Deliberately not thread-safe: in simulation mode everything runs on one
    thread, and in live mode each node owns its own allocator.
    """

    def __init__(self, start: int = 1) -> None:
        self._counter = itertools.count(start)

    def next(self) -> int:
        """Return the next unused id."""
        return next(self._counter)
