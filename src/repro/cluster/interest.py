"""Interest sets: the unit of partial replication (ROADMAP item 2).

Full replication caps cluster capacity at one node's memory: every slave
holds every page.  Partial replication lets a slave *subscribe* to a
subset of the tables — its interest set — so the aggregate dataset can
exceed any single node's budget while each table still lives on at least
``min_replication_factor`` nodes.  Sutra & Shapiro-style interest sets
compose cleanly with the DMV machinery already here:

* the broadcast path restricts each write-set to the target's interest
  before it enters the replication channel (a frame with no surviving
  versions is never sent at all, credited to ``net.bytes_saved_partial``);
* the version-aware scheduler routes reads coverage-then-version: a slave
  is a candidate only if its interest covers the query's tables *and* its
  acked version vector is fresh enough, else the read falls back to a
  covering master;
* rejoin gap replay and page migration are scoped to the joiner's
  interest, so a partial replica never ships — or holds — confirmed state
  for pages outside its subscription.

Everything here is pure bookkeeping; under full interest (every node's
default) each filter above is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional

from repro.common.ids import NodeId
from repro.core.writeset import WriteSet


@dataclass(frozen=True)
class InterestSet:
    """The tables one replica subscribes to (``None`` = everything)."""

    tables: Optional[FrozenSet[str]] = None

    @classmethod
    def full(cls) -> "InterestSet":
        return cls(None)

    @classmethod
    def of(cls, *tables: str) -> "InterestSet":
        return cls(frozenset(tables))

    @property
    def is_full(self) -> bool:
        return self.tables is None

    def covers_table(self, table: str) -> bool:
        return self.tables is None or table in self.tables

    def covers(self, tables: Iterable[str]) -> bool:
        if self.tables is None:
            return True
        return all(table in self.tables for table in tables)

    def superset_of(self, other: "InterestSet") -> bool:
        """True if every table ``other`` subscribes to is covered here.

        A full set is a superset of anything; only a full set is a
        superset of a full set.  Used to pick a migration support slave
        that can serve the whole of a joiner's interest.
        """
        if self.tables is None:
            return True
        if other.tables is None:
            return False
        return other.tables <= self.tables

    def restrict(self, write_set: WriteSet) -> Optional[WriteSet]:
        """The portion of ``write_set`` inside this interest set.

        Returns the *same* object when nothing is filtered (the common
        full-replication case allocates nothing), ``None`` when no table
        survives (the frame need not be sent at all), and a new write-set
        with the covered ops/versions otherwise.  A restricted frame keeps
        the original ``(master, seq)``, so restricting the same broadcast
        twice for the same target yields equal dedup keys — retransmission
        and gap replay stay idempotent.
        """
        if self.tables is None:
            return write_set
        versions = {
            table: version
            for table, version in write_set.versions.items()
            if table in self.tables
        }
        if not versions:
            return None
        if len(versions) == len(write_set.versions):
            return write_set
        ops = tuple(op for op in write_set.ops if op.page_id.table in self.tables)
        return WriteSet(
            write_set.master_id, write_set.txn_id, ops, versions, seq=write_set.seq
        )


class InterestRegistry:
    """node_id -> :class:`InterestSet`, defaulting to full replication."""

    def __init__(self) -> None:
        self._sets: Dict[NodeId, InterestSet] = {}

    def declare(self, node_id: NodeId, interest: InterestSet) -> None:
        """Register (or widen/replace) one node's interest set."""
        if interest.is_full:
            # A full entry is the default; dropping it keeps
            # ``partial_active`` an O(#partial-nodes) check.
            self._sets.pop(node_id, None)
        else:
            self._sets[node_id] = interest

    def get(self, node_id: NodeId) -> InterestSet:
        return self._sets.get(node_id, _FULL)

    @property
    def partial_active(self) -> bool:
        """True when at least one node subscribes to less than everything."""
        return bool(self._sets)

    def covers_table(self, node_id: NodeId, table: str) -> bool:
        return self.get(node_id).covers_table(table)

    def covers(self, node_id: NodeId, tables: Iterable[str]) -> bool:
        return self.get(node_id).covers(tables)

    def restrict(self, node_id: NodeId, write_set: WriteSet) -> Optional[WriteSet]:
        return self.get(node_id).restrict(write_set)

    def as_dict(self) -> Dict[NodeId, Optional[FrozenSet[str]]]:
        """Snapshot for introspection/tests: only the partial entries."""
        return {node_id: iset.tables for node_id, iset in self._sets.items()}


_FULL = InterestSet.full()

