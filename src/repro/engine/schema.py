"""Table schemas: columns, types, keys and index definitions.

Rows are stored as plain tuples ordered by the schema's column list; the
schema converts between dict and tuple forms and validates types on the
write path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import SchemaError

#: Supported column types.  ``datetime`` values are stored as float epochs.
COLUMN_TYPES = ("int", "float", "str")

_PYTHON_TYPES = {"int": int, "float": (int, float), "str": str}
#: A value of exactly this type is already in its column's stored form, so
#: :meth:`TableSchema.row_from_dict` keeps it without calling ``check``.
_STORED_TYPES = {"int": int, "float": float, "str": str}


def key_at(row: Sequence, positions: Sequence[int]) -> Tuple:
    """The key tuple of ``row`` at pre-resolved column positions."""
    return tuple([row[p] for p in positions])


@dataclass(frozen=True)
class Column:
    """One column: a name plus a declared type."""

    name: str
    type: str = "str"
    nullable: bool = True

    def __post_init__(self) -> None:
        if self.type not in COLUMN_TYPES:
            raise SchemaError(f"unknown column type {self.type!r} for {self.name!r}")

    def check(self, value: object) -> object:
        """Validate (and normalise) one value for this column."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name} is NOT NULL")
            return None
        expected = _PYTHON_TYPES[self.type]
        if isinstance(value, bool) or not isinstance(value, expected):
            raise SchemaError(
                f"column {self.name} expects {self.type}, got {type(value).__name__}"
            )
        if self.type == "float":
            return float(value)
        return value


@dataclass(frozen=True)
class IndexDef:
    """A secondary index over one or more columns."""

    name: str
    columns: Tuple[str, ...]
    unique: bool = False

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"index {self.name} has no columns")


@dataclass
class TableSchema:
    """Schema of one table: ordered columns, primary key, secondary indexes."""

    name: str
    columns: List[Column]
    primary_key: Tuple[str, ...]
    indexes: List[IndexDef] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"table {self.name} has no columns")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name} has duplicate columns")
        self._positions: Dict[str, int] = {c.name: i for i, c in enumerate(self.columns)}
        for col in self.primary_key:
            if col not in self._positions:
                raise SchemaError(f"primary key column {col} not in table {self.name}")
        if not self.primary_key:
            raise SchemaError(f"table {self.name} needs a primary key")
        seen_idx = set()
        for index in self.indexes:
            if index.name in seen_idx:
                raise SchemaError(f"duplicate index {index.name} on {self.name}")
            seen_idx.add(index.name)
            for col in index.columns:
                if col not in self._positions:
                    raise SchemaError(f"index {index.name} references unknown column {col}")
        self._pk_positions = self.positions_of(self.primary_key)
        self._row_plan = [(c.name, _STORED_TYPES[c.type], c.check) for c in self.columns]

    # -- column helpers ------------------------------------------------------
    def position(self, column: str) -> int:
        try:
            return self._positions[column]
        except KeyError:
            raise SchemaError(f"no column {column!r} in table {self.name}") from None

    def positions_of(self, columns: Sequence[str]) -> Tuple[int, ...]:
        """Resolve key columns to row positions once, for :func:`key_at`."""
        return tuple(self.position(c) for c in columns)

    def has_column(self, column: str) -> bool:
        return column in self._positions

    # -- row conversions -----------------------------------------------------
    def row_from_dict(self, values: Dict[str, object]) -> Tuple:
        """Build a validated row tuple; missing columns become NULL."""
        if not values.keys() <= self._positions.keys():
            unknown = sorted(values.keys() - self._positions.keys())
            raise SchemaError(f"unknown columns for {self.name}: {unknown}")
        get = values.get
        return tuple([
            value if type(value := get(name)) is stored else check(value)
            for name, stored, check in self._row_plan
        ])

    def updated_row(self, row: Sequence, changes: Dict[str, object]) -> Tuple:
        """Copy of ``row`` with ``changes`` applied (validated)."""
        out = list(row)
        for name, value in changes.items():
            position = self.position(name)
            out[position] = self.columns[position].check(value)
        return tuple(out)

    # -- keys ------------------------------------------------------------------
    def pk_of(self, row: Sequence) -> Tuple:
        return key_at(row, self._pk_positions)
