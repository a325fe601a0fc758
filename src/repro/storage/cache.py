"""LRU model of a node's memory-resident page set.

The in-memory databases in the paper ``mmap`` an on-disk image: a page that
has not been touched recently may not be resident, and touching it costs a
page fault.  Failover Figures 4 and 7–9 are driven entirely by this effect
(cold vs warm backup buffer caches), so we model residency explicitly.

The cache tracks *which* pages are resident, not their contents — contents
always live in the :class:`~repro.storage.page.PageStore`; the simulation's
cost model charges a fault latency for every miss reported here.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Iterable, List, Optional

from repro.common.counters import Counters
from repro.common.ids import PageId


class PageCache:
    """LRU resident-set model with hit/miss accounting."""

    def __init__(self, capacity_pages: int, counters: Optional[Counters] = None) -> None:
        if capacity_pages < 1:
            raise ValueError("cache capacity must be >= 1 page")
        self.capacity_pages = capacity_pages
        self.counters = counters if counters is not None else Counters()
        self._lru: OrderedDict[PageId, None] = OrderedDict()

    def touch(self, page_id: PageId) -> bool:
        """Access a page; returns True on hit, False on (now-repaired) miss."""
        if page_id in self._lru:
            self._lru.move_to_end(page_id)
            self.counters.add("cache.hits")
            return True
        self.counters.add("cache.misses")
        self._admit(page_id)
        return False

    def lru_order(self) -> "OrderedDict[PageId, None]":
        """The live LRU order itself (coldest first), not a copy.

        The engine's read funnel inlines :meth:`touch`'s hit branch on it
        (``in`` + ``move_to_end``) and counts the hits of a statement in
        one ``cache.hits`` add; a miss still goes through :meth:`touch`.
        Only ever mutated in place, never replaced.
        """
        return self._lru

    def _admit(self, page_id: PageId) -> None:
        self._lru[page_id] = None
        while len(self._lru) > self.capacity_pages:
            self._lru.popitem(last=False)
            self.counters.add("cache.evictions")

    def resident(self, page_id: PageId) -> bool:
        return page_id in self._lru

    def warm(self, page_ids: Iterable[PageId]) -> int:
        """Pre-load pages without counting misses (backup warm-up path)."""
        count = 0
        for page_id in page_ids:
            if page_id not in self._lru:
                count += 1
            self._admit(page_id)
            self._lru.move_to_end(page_id)
        return count

    def invalidate_all(self) -> None:
        """Drop the whole resident set (node restart: cold cache)."""
        self._lru.clear()

    def hottest(self, limit: int) -> List[PageId]:
        """Most-recently-used page ids, hottest first (page-id shipping)."""
        return list(islice(reversed(self._lru), limit))

    def resident_count(self) -> int:
        return len(self._lru)

    def hit_ratio(self) -> float:
        hits = self.counters.get("cache.hits")
        misses = self.counters.get("cache.misses")
        total = hits + misses
        return hits / total if total else 0.0
