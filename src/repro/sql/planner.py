"""Query planning: join ordering, access-path selection, predicate pushdown.

The planner compiles a parsed statement against a concrete engine's schemas
into a :class:`SelectPlan` (or DML plan).  Strategy:

* split WHERE into conjuncts,
* greedily order join tables — at each step pick the table with the
  cheapest access path given the bindings produced so far (PK equality ≫
  index prefix ≫ index range ≫ full scan),
* per table, consume equality/range/LIKE-prefix conjuncts into the access
  path and attach the remaining conjuncts as filters at the earliest step
  where all their column references are bound.

The executor renders the ordered steps, their access paths and filters
as one generated Python function per statement; see
:mod:`repro.sql.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SchemaError, SqlError
from repro.engine.schema import TableSchema
from repro.sql.ast_nodes import (
    Between,
    BinOp,
    ColumnRef,
    Expr,
    Like,
    Select,
    TableRef,
    column_refs,
)


# -- conjunct analysis ----------------------------------------------------------
def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a WHERE tree into AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


@dataclass
class Binding:
    """One table occurrence in the FROM list, resolved against the engine."""

    ref: TableRef
    schema: TableSchema

    @property
    def name(self) -> str:
        return self.ref.binding


class Resolver:
    """Resolves column references to (binding, position) pairs."""

    def __init__(self, bindings: Sequence[Binding]) -> None:
        self.bindings = list(bindings)
        self._by_name = {b.name: b for b in self.bindings}
        if len(self._by_name) != len(self.bindings):
            raise SqlError("duplicate table binding in FROM list")

    def resolve(self, ref: ColumnRef) -> Tuple[str, int]:
        if ref.table is not None:
            binding = self._by_name.get(ref.table)
            if binding is None:
                raise SqlError(f"unknown table or alias {ref.table!r}")
            return binding.name, binding.schema.position(ref.column)
        matches = [b for b in self.bindings if b.schema.has_column(ref.column)]
        if not matches:
            raise SqlError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            raise SqlError(f"ambiguous column {ref.column!r}")
        return matches[0].name, matches[0].schema.position(ref.column)

    def binding_of(self, ref: ColumnRef) -> str:
        return self.resolve(ref)[0]


def refs_bound(expr: Expr, resolver: Resolver, bound: set) -> bool:
    """Are all column references of ``expr`` available in ``bound`` bindings?"""
    try:
        return all(resolver.binding_of(r) in bound for r in column_refs(expr))
    except SqlError:
        return False


# -- access paths ----------------------------------------------------------------
@dataclass
class PkEqAccess:
    """Primary-key point lookup; key component expressions in PK order."""

    key_exprs: List[Expr]
    consumed: List[Expr] = field(default_factory=list)
    cost: float = 1.0


@dataclass
class IndexAccess:
    """Tree-index access: equality prefix + optional range/LIKE/IN component.

    ``low``/``high`` are ``(expr, inclusive)`` on the first non-equality
    component; ``like_pattern`` enables a runtime-computed prefix range;
    ``in_exprs`` turns an IN-list on that component into a union of point
    lookups.
    """

    index_name: str
    eq_exprs: List[Expr]
    low: Optional[Tuple[Expr, bool]] = None
    high: Optional[Tuple[Expr, bool]] = None
    like_pattern: Optional[Expr] = None
    in_exprs: Optional[List[Expr]] = None
    consumed: List[Expr] = field(default_factory=list)
    cost: float = 10.0


@dataclass
class FullScanAccess:
    cost: float = 10_000.0
    consumed: List[Expr] = field(default_factory=list)


Access = object  # PkEqAccess | IndexAccess | FullScanAccess


def _eq_candidates(
    binding: Binding, conjuncts: Sequence[Expr], resolver: Resolver, bound: set
) -> Dict[str, Tuple[Expr, Expr]]:
    """column-name -> (value expr, conjunct) usable as equality for this table."""
    out: Dict[str, Tuple[Expr, Expr]] = {}
    for conj in conjuncts:
        if not isinstance(conj, BinOp) or conj.op != "=":
            continue
        for col_side, val_side in ((conj.left, conj.right), (conj.right, conj.left)):
            if not isinstance(col_side, ColumnRef):
                continue
            try:
                owner = resolver.binding_of(col_side)
            except SqlError:
                continue
            if owner != binding.name:
                continue
            if refs_bound(val_side, resolver, bound):
                out.setdefault(col_side.column, (val_side, conj))
                break
    return out


_RANGE_OPS = {">": ("low", False), ">=": ("low", True), "<": ("high", False), "<=": ("high", True)}


def _range_candidates(
    binding: Binding, conjuncts: Sequence[Expr], resolver: Resolver, bound: set
) -> Dict[str, List[Tuple[str, bool, Expr, Expr]]]:
    """column-name -> [(side, inclusive, value expr, conjunct)]"""
    out: Dict[str, List[Tuple[str, bool, Expr, Expr]]] = {}
    for conj in conjuncts:
        if isinstance(conj, Between) and not conj.negated:
            if isinstance(conj.expr, ColumnRef):
                try:
                    owner = resolver.binding_of(conj.expr)
                except SqlError:
                    continue
                if owner == binding.name and refs_bound(conj.low, resolver, bound) and refs_bound(
                    conj.high, resolver, bound
                ):
                    out.setdefault(conj.expr.column, []).append(("low", True, conj.low, conj))
                    out.setdefault(conj.expr.column, []).append(("high", True, conj.high, conj))
            continue
        if not isinstance(conj, BinOp) or conj.op not in _RANGE_OPS:
            continue
        side, inclusive = _RANGE_OPS[conj.op]
        col_side, val_side = conj.left, conj.right
        if not isinstance(col_side, ColumnRef):
            # value <op> column: flip the side.
            col_side, val_side = conj.right, conj.left
            if not isinstance(col_side, ColumnRef):
                continue
            side = {"low": "high", "high": "low"}[side]
        try:
            owner = resolver.binding_of(col_side)
        except SqlError:
            continue
        if owner != binding.name or not refs_bound(val_side, resolver, bound):
            continue
        out.setdefault(col_side.column, []).append((side, inclusive, val_side, conj))
    return out


def _in_candidates(
    binding: Binding, conjuncts: Sequence[Expr], resolver: Resolver, bound: set
) -> Dict[str, Tuple[List[Expr], Expr]]:
    """column-name -> (value exprs, conjunct) for usable IN lists."""
    from repro.sql.ast_nodes import InList

    out: Dict[str, Tuple[List[Expr], Expr]] = {}
    for conj in conjuncts:
        if not isinstance(conj, InList) or conj.negated:
            continue
        if not isinstance(conj.expr, ColumnRef):
            continue
        try:
            owner = resolver.binding_of(conj.expr)
        except SqlError:
            continue
        if owner != binding.name:
            continue
        if all(refs_bound(item, resolver, bound) for item in conj.items):
            out.setdefault(conj.expr.column, (list(conj.items), conj))
    return out


def _like_candidates(
    binding: Binding, conjuncts: Sequence[Expr], resolver: Resolver, bound: set
) -> Dict[str, Tuple[Expr, Expr]]:
    out: Dict[str, Tuple[Expr, Expr]] = {}
    for conj in conjuncts:
        if not isinstance(conj, Like) or conj.negated:
            continue
        if not isinstance(conj.expr, ColumnRef):
            continue
        try:
            owner = resolver.binding_of(conj.expr)
        except SqlError:
            continue
        if owner == binding.name and refs_bound(conj.pattern, resolver, bound):
            out.setdefault(conj.expr.column, (conj.pattern, conj))
    return out


def choose_access(
    binding: Binding,
    conjuncts: Sequence[Expr],
    resolver: Resolver,
    bound: set,
    row_count: int,
) -> Access:
    """Pick the cheapest access path for one table given bound bindings."""
    schema = binding.schema
    eqs = _eq_candidates(binding, conjuncts, resolver, bound)
    ranges = _range_candidates(binding, conjuncts, resolver, bound)
    likes = _like_candidates(binding, conjuncts, resolver, bound)
    ins = _in_candidates(binding, conjuncts, resolver, bound)

    best: Access = FullScanAccess(cost=1000.0 + row_count)

    # Primary key point lookup.
    if all(col in eqs for col in schema.primary_key):
        consumed = [eqs[col][1] for col in schema.primary_key]
        return PkEqAccess([eqs[col][0] for col in schema.primary_key], consumed)

    # Secondary tree indexes: longest equality prefix, then range/LIKE.
    for index in schema.indexes:
        eq_exprs: List[Expr] = []
        consumed: List[Expr] = []
        prefix_len = 0
        for col in index.columns:
            if col in eqs:
                eq_exprs.append(eqs[col][0])
                consumed.append(eqs[col][1])
                prefix_len += 1
            else:
                break
        low = high = like_pattern = in_exprs = None
        next_col = index.columns[prefix_len] if prefix_len < len(index.columns) else None
        if next_col is not None:
            if next_col in ins:
                in_exprs, in_conj = ins[next_col]
                consumed.append(in_conj)
            elif next_col in ranges:
                for side, inclusive, val, conj in ranges[next_col]:
                    if side == "low" and low is None:
                        low = (val, inclusive)
                        consumed.append(conj)
                    elif side == "high" and high is None:
                        high = (val, inclusive)
                        consumed.append(conj)
            elif next_col in likes:
                like_pattern = likes[next_col][0]
                # LIKE stays a residual filter too (range is a superset),
                # so it is not added to ``consumed``.
        if prefix_len == 0 and low is None and high is None and like_pattern is None \
                and in_exprs is None:
            continue
        cost = 8.0 - prefix_len if prefix_len else 60.0
        if low is not None or high is not None or like_pattern is not None or in_exprs:
            cost -= 1.0
        if cost < best.cost:
            best = IndexAccess(
                index.name, eq_exprs, low, high, like_pattern, in_exprs, consumed, cost
            )

    return best


def order_tables(
    bindings: Sequence[Binding],
    conjuncts: Sequence[Expr],
    resolver: Resolver,
    row_counts: Dict[str, int],
) -> List[Tuple[Binding, Access]]:
    """Greedy join ordering by cheapest-next-access."""
    remaining = list(bindings)
    bound: set = set()
    ordered: List[Tuple[Binding, Access]] = []
    while remaining:
        scored = []
        for position, binding in enumerate(remaining):
            access = choose_access(
                binding, conjuncts, resolver, bound, row_counts.get(binding.ref.table, 0)
            )
            scored.append((access.cost, position, binding, access))
        scored.sort(key=lambda s: (s[0], s[1]))
        _cost, _pos, chosen, access = scored[0]
        ordered.append((chosen, access))
        bound.add(chosen.name)
        remaining.remove(chosen)
    return ordered


def assign_filters(
    steps: List[Tuple[Binding, Access]],
    conjuncts: Sequence[Expr],
    resolver: Resolver,
) -> List[List[Expr]]:
    """Attach each unconsumed conjunct to its earliest evaluable step."""
    consumed_ids = {id(c) for _b, access in steps for c in access.consumed}
    per_step: List[List[Expr]] = [[] for _ in steps]
    bound: set = set()
    leftovers = [c for c in conjuncts if id(c) not in consumed_ids]
    for i, (binding, _access) in enumerate(steps):
        bound.add(binding.name)
        still = []
        for conj in leftovers:
            if refs_bound(conj, resolver, bound):
                per_step[i].append(conj)
            else:
                still.append(conj)
        leftovers = still
    if leftovers:
        raise SqlError("WHERE clause references columns not bound by any table")
    return per_step
