"""The scheduler's log of committed update transactions.

Upon each commit confirmed by an in-memory master, the scheduler logs the
transaction's update queries (as query strings — a "lightweight database
insert" in the paper) and forwards them asynchronously to the on-disk
persistence tier.  The same log refreshes stale backups and replays missing
updates during on-disk failover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class LoggedUpdate:
    """One committed update transaction: its queries and commit versions."""

    txn_id: int
    queries: Tuple[Tuple[str, Tuple], ...]  # (sql, params) in execution order
    versions: Dict[str, int] = field(default_factory=dict)

    def byte_size(self) -> int:
        total = 32
        for sql, params in self.queries:
            total += len(sql) + sum(len(str(p)) + 2 for p in params)
        return total


class QueryLog:
    """Committed updates with per-consumer replay cursors.

    Indices, cursors and ``len()`` count every entry ever appended, but only
    entries some registered consumer (see :meth:`set_cursor`) has not passed
    are kept: with no consumer, none.  Nothing registers behind them.
    """

    def __init__(self) -> None:
        self._entries: List[LoggedUpdate] = []
        #: Absolute index of ``_entries[0]``: how many entries were dropped.
        self._base = 0
        #: consumer name -> index of the next entry it has not seen.
        self._cursors: Dict[str, int] = {}

    def append(self, entry: LoggedUpdate) -> int:
        """Append one committed transaction; returns its log index."""
        index = len(self)
        if self._cursors:
            self._entries.append(entry)
        else:
            self._base += 1  # no consumer will ever read it
        return index

    def __len__(self) -> int:
        return self._base + len(self._entries)

    # -- consumer cursors (on-disk replicas, stale backups) -------------------------
    def cursor(self, consumer: str) -> int:
        return self._cursors[consumer]  # KeyError: not a registered consumer

    def pending_for(self, consumer: str) -> List[LoggedUpdate]:
        return self._entries[self.cursor(consumer) - self._base:]

    def advance(self, consumer: str, count: int) -> None:
        self.set_cursor(consumer, self.cursor(consumer) + count)

    def set_cursor(self, consumer: str, index: int) -> None:
        """Register ``consumer`` (or move it) at ``index``, clamped to the log."""
        index = max(0, min(index, len(self)))
        if index < self._base:
            raise ValueError(f"{consumer} at {index}: entries below {self._base} were dropped")
        self._cursors[consumer] = index
        self._trim()

    def unregister(self, consumer: str) -> None:
        self._cursors.pop(consumer, None)
        self._trim()

    def lag_of(self, consumer: str) -> int:
        """How many committed transactions the consumer has not applied."""
        return len(self) - self.cursor(consumer)

    def _trim(self) -> None:
        """Drop the entries every registered consumer has passed."""
        floor = min(self._cursors.values(), default=len(self))
        if floor > self._base:
            del self._entries[: floor - self._base]
            self._base = floor
