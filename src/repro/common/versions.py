"""The database version vector (``DBVersion``).

One integer entry per application table.  Each committing update
transaction atomically increments the entries of the tables it wrote; the
resulting vector names the new database state.  Schedulers merge vectors
from (possibly multiple) masters and tag read-only transactions with the
latest merged vector.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple


class VersionVector:
    """Mapping table-name -> version, with merge/compare helpers.

    Absent entries read as 0.  Instances are mutable; use :meth:`copy` when
    handing a vector across a protocol boundary (messages must not alias
    live scheduler or master state).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Mapping[str, int]] = None) -> None:
        self._entries: Dict[str, int] = dict(entries) if entries else {}

    def get(self, table: str) -> int:
        return self._entries.get(table, 0)

    def set(self, table: str, version: int) -> None:
        self._entries[table] = version

    def increment(self, tables: Iterable[str]) -> "VersionVector":
        """Bump the entry of each table; returns self for chaining."""
        for table in tables:
            self._entries[table] = self._entries.get(table, 0) + 1
        return self

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Elementwise maximum (in place); returns self."""
        for table, version in other._entries.items():
            if version > self._entries.get(table, 0):
                self._entries[table] = version
        return self

    def floor_with(self, other: "VersionVector") -> "VersionVector":
        """Elementwise minimum (in place); returns self.

        Used to compute garbage-collection watermarks: the oldest version
        any active reader may still need.
        """
        for table in list(self._entries):
            self._entries[table] = min(self._entries[table], other.get(table))
        for table, version in other._entries.items():
            if table not in self._entries:
                self._entries[table] = 0
        return self

    def dominates(self, other: "VersionVector") -> bool:
        """True if self >= other on every entry."""
        return all(self.get(t) >= v for t, v in other._entries.items())

    def copy(self) -> "VersionVector":
        return VersionVector(self._entries)

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._entries.items()))

    def as_dict(self) -> Dict[str, int]:
        return dict(self._entries)

    def total(self) -> int:
        """Sum of all entries — a scalar progress measure for logs/tests."""
        return sum(self._entries.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        if self._entries == other._entries:
            return True
        # Compare semantically: missing entries equal zero entries.
        keys = set(self._entries) | set(other._entries)
        return all(self.get(k) == other.get(k) for k in keys)

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, v) for k, v in self._entries.items() if v)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{t}:{v}" for t, v in self.items())
        return f"V({inner})"
