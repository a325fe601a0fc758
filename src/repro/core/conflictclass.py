"""Conflict classes: partitioning update transactions across masters.

The scheduler is pre-configured with the application's transaction
templates and the tables each accesses.  Tables co-written by any template
must share a conflict class (the paper requires classes to be *disjoint*,
so no inter-master synchronisation is ever needed); the classes are the
connected components of the "co-written" relation, computed by union-find.

Each class is assigned one master.  If templates are unknown, everything
collapses into a single class on a single master — the paper's fallback.

A class's tables are fixed at construction.  Only its master changes:
``reassign_master`` repoints a dead master's classes at its successor
(failover) and ``rehome_class`` repoints one class (a forced re-home).
Neither lets an update straddle two owners: a failed master's in-flight
updates die with it, and the cluster's re-home drains the class and
parks its new updates until the flip (the drain barrier of
:mod:`repro.cluster.rehome`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from repro.common.errors import ConfigError


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def add(self, item: str) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


class ConflictClassMap:
    """table -> conflict class id, plus class -> master assignment."""

    def __init__(self, tables: Iterable[str], write_templates: Sequence[Set[str]] = ()) -> None:
        """``write_templates``: the table write-sets of known txn templates."""
        self.tables = sorted(tables)
        uf = _UnionFind()
        for table in self.tables:
            uf.add(table)
        for template in write_templates:
            unknown = set(template) - set(self.tables)
            if unknown:
                raise ConfigError(f"templates reference unknown tables: {sorted(unknown)}")
            template_list = sorted(template)
            for other in template_list[1:]:
                uf.union(template_list[0], other)
        roots = sorted({uf.find(t) for t in self.tables})
        class_of_root = {root: i for i, root in enumerate(roots)}
        self._class_of_table = {t: class_of_root[uf.find(t)] for t in self.tables}
        self.num_classes = len(roots)
        self._master_of_class: Dict[int, str] = {}

    @classmethod
    def single_class(cls, tables: Iterable[str]) -> "ConflictClassMap":
        """The fallback: all tables in one class on one master."""
        tables = list(tables)
        return cls(tables, [set(tables)] if tables else ())

    # -- class queries -------------------------------------------------------------
    def class_of(self, table: str) -> int:
        try:
            return self._class_of_table[table]
        except KeyError:
            raise ConfigError(f"table {table!r} not covered by conflict classes") from None

    def class_of_tables(self, tables: Iterable[str]) -> int:
        """The single class containing all ``tables`` (update routing)."""
        classes = {self.class_of(t) for t in tables}
        if len(classes) != 1:
            raise ConfigError(
                f"tables {sorted(tables)} span conflict classes {sorted(classes)}"
            )
        return classes.pop()

    def tables_of_class(self, class_id: int) -> List[str]:
        return sorted(t for t, c in self._class_of_table.items() if c == class_id)

    def class_ids(self) -> List[int]:
        return list(range(self.num_classes))

    # -- master assignment ------------------------------------------------------------
    def assign_masters(self, master_ids: Sequence[str]) -> None:
        """Distribute conflict classes over the given master nodes.

        Classes are assigned round-robin in decreasing size order, so the
        substantial (write-heavy) classes land on different masters instead
        of accidentally sharing one while singleton read-only classes soak
        up the other.
        """
        if not master_ids:
            raise ConfigError("need at least one master")
        by_size = sorted(
            self.class_ids(),
            key=lambda c: (-len(self.tables_of_class(c)), c),
        )
        self._master_of_class = {
            class_id: master_ids[position % len(master_ids)]
            for position, class_id in enumerate(by_size)
        }

    def master_of_class(self, class_id: int) -> str:
        try:
            return self._master_of_class[class_id]
        except KeyError:
            raise ConfigError("masters not assigned") from None

    def master_for_tables(self, tables: Iterable[str]) -> str:
        return self.master_of_class(self.class_of_tables(tables))

    def masters_in_use(self) -> List[str]:
        return sorted(set(self._master_of_class.values()))

    def reassign_master(self, old: str, new: str) -> int:
        """Point every class owned by ``old`` at ``new`` (failover)."""
        moved = 0
        for class_id, master in list(self._master_of_class.items()):
            if master == old:
                self._master_of_class[class_id] = new
                moved += 1
        return moved

    def rehome_class(self, class_id: int, new_master: str) -> None:
        """Atomically repoint one class at a new master (drained handoff)."""
        if class_id not in range(self.num_classes):
            raise ConfigError(f"unknown conflict class {class_id}")
        self._master_of_class[class_id] = new_master

    def validate_disjoint(self) -> None:
        """Raise unless every table is in a class and every class has a master.

        The paper depends on classes being disjoint; a table in exactly one
        class holds by construction, so what a run can break is coverage:
        a table dropped from the map, or a class left without a master.
        """
        for table in self.tables:
            if table not in self._class_of_table:
                raise ConfigError(f"table {table!r} lost its conflict class")
        assigned = set(self._master_of_class)
        live = set(self.class_ids())
        if assigned and not live <= assigned:
            raise ConfigError(f"classes without a master: {sorted(live - assigned)}")
