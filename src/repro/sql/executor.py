"""Statement compilation and execution over the heap engine.

:class:`SqlExecutor` parses + plans each distinct SQL string once (cached),
then executes the compiled plan against a transaction.  Expressions compile
to closures ``fn(env, ctx)``; ``env`` maps table bindings to row tuples,
``ctx`` carries parameters and the clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from operator import itemgetter
from types import CodeType, FunctionType
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import SqlError
from repro.engine.engine import HeapEngine
from repro.engine.indexes import Loc, prefix_bounds
from repro.engine.table import Table
from repro.engine.txn import Transaction
from repro.sql.ast_nodes import (
    AGGREGATE_FUNCS,
    Between,
    BinOp,
    ColumnRef,
    Delete,
    Expr,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Like,
    Literal,
    Param,
    Select,
    SelectItem,
    Statement,
    UnaryOp,
    Update,
    is_aggregate,
)
from repro.sql.functions import like_match, like_range, sql_arith, sql_compare
from repro.sql.parser import parse_statement
from repro.sql.planner import (
    Binding,
    IndexAccess,
    PkEqAccess,
    Resolver,
    assign_filters,
    order_tables,
    split_conjuncts,
)

Env = Dict[str, tuple]
EvalFn = Callable[[Env, "ExecContext"], object]


@dataclass
class ExecContext:
    """Per-execution state available to compiled expressions."""

    params: Sequence[object]
    now: Callable[[], float]


@dataclass
class ResultSet:
    """Columns + row tuples returned by a statement.

    DML statements return an empty column list and ``rowcount`` reflecting
    the number of rows inserted/updated/deleted.
    """

    columns: List[str]
    rows: List[tuple]
    rowcount: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> object:
        """First column of the first row (or None if empty)."""
        return self.rows[0][0] if self.rows else None

    def dicts(self) -> List[Dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


# -- expression compilation --------------------------------------------------------
def _truthy(value: object) -> bool:
    """SQL three-valued logic collapsed for filtering: NULL is not true."""
    return value is True


def compile_expr(expr: Expr, resolver: Resolver) -> EvalFn:
    """Compile a non-aggregate expression to a closure."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda env, ctx: value
    if isinstance(expr, Param):
        index = expr.index
        def param_fn(env, ctx):
            try:
                return ctx.params[index]
            except IndexError:
                raise SqlError(f"missing parameter {index}") from None
        return param_fn
    if isinstance(expr, ColumnRef):
        binding, position = resolver.resolve(expr)
        return lambda env, ctx: env[binding][position]
    if isinstance(expr, BinOp):
        left = compile_expr(expr.left, resolver)
        right = compile_expr(expr.right, resolver)
        op = expr.op
        if op == "and":
            def and_fn(env, ctx):
                l = left(env, ctx)
                if l is False:
                    return False
                r = right(env, ctx)
                if r is False:
                    return False
                if l is None or r is None:
                    return None
                return True
            return and_fn
        if op == "or":
            def or_fn(env, ctx):
                l = left(env, ctx)
                if l is True:
                    return True
                r = right(env, ctx)
                if r is True:
                    return True
                if l is None or r is None:
                    return None
                return False
            return or_fn
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return lambda env, ctx: sql_compare(op, left(env, ctx), right(env, ctx))
        return lambda env, ctx: sql_arith(op, left(env, ctx), right(env, ctx))
    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, resolver)
        if expr.op == "-":
            def neg_fn(env, ctx):
                value = operand(env, ctx)
                return None if value is None else -value
            return neg_fn
        if expr.op == "not":
            def not_fn(env, ctx):
                value = operand(env, ctx)
                return None if value is None else (not value)
            return not_fn
        raise SqlError(f"unknown unary operator {expr.op}")
    if isinstance(expr, Like):
        value_fn = compile_expr(expr.expr, resolver)
        pattern_fn = compile_expr(expr.pattern, resolver)
        negated = expr.negated
        def like_fn(env, ctx):
            result = like_match(value_fn(env, ctx), pattern_fn(env, ctx))
            if result is None:
                return None
            return (not result) if negated else result
        return like_fn
    if isinstance(expr, InList):
        value_fn = compile_expr(expr.expr, resolver)
        item_fns = [compile_expr(item, resolver) for item in expr.items]
        negated = expr.negated
        def in_fn(env, ctx):
            value = value_fn(env, ctx)
            if value is None:
                return None
            found = any(value == fn(env, ctx) for fn in item_fns)
            return (not found) if negated else found
        return in_fn
    if isinstance(expr, Between):
        value_fn = compile_expr(expr.expr, resolver)
        low_fn = compile_expr(expr.low, resolver)
        high_fn = compile_expr(expr.high, resolver)
        negated = expr.negated
        def between_fn(env, ctx):
            value = value_fn(env, ctx)
            low, high = low_fn(env, ctx), high_fn(env, ctx)
            if value is None or low is None or high is None:
                return None
            result = low <= value <= high
            return (not result) if negated else result
        return between_fn
    if isinstance(expr, IsNull):
        value_fn = compile_expr(expr.expr, resolver)
        negated = expr.negated
        return lambda env, ctx: (value_fn(env, ctx) is not None) if negated else (
            value_fn(env, ctx) is None
        )
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCS:
            raise SqlError(f"aggregate {expr.name} not allowed here")
        if expr.name == "now":
            return lambda env, ctx: ctx.now()
        raise SqlError(f"unknown function {expr.name}")
    raise SqlError(f"cannot compile expression {expr!r}")


# -- aggregate machinery --------------------------------------------------------------
@dataclass
class _AggSpec:
    node: FuncCall
    arg_fn: Optional[EvalFn]  # None for COUNT(*)

    def compute(self, envs: List[Env], ctx: ExecContext) -> object:
        name = self.node.name
        if self.node.star:
            return len(envs)
        values = [self.arg_fn(env, ctx) for env in envs]
        values = [v for v in values if v is not None]
        if self.node.distinct:
            values = list(dict.fromkeys(values))
        if name == "count":
            return len(values)
        if not values:
            return None
        if name == "sum":
            return sum(values)
        if name == "avg":
            return sum(values) / len(values)
        if name == "min":
            return min(values)
        if name == "max":
            return max(values)
        raise SqlError(f"unknown aggregate {name}")


def _collect_aggregates(expr: Expr, out: List[FuncCall]) -> None:
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCS:
        if not any(existing is expr for existing in out):
            out.append(expr)
        return
    if isinstance(expr, BinOp):
        _collect_aggregates(expr.left, out)
        _collect_aggregates(expr.right, out)
    elif isinstance(expr, UnaryOp):
        _collect_aggregates(expr.operand, out)


def compile_agg_expr(expr: Expr, resolver: Resolver, agg_slots: Dict[int, int]) -> EvalFn:
    """Compile an expression that may reference aggregate results.

    Aggregate sub-nodes read slot values from ``env['__agg__']``; plain
    column refs read the group's representative row.
    """
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCS:
        slot = agg_slots[id(expr)]
        return lambda env, ctx: env["__agg__"][slot]
    if isinstance(expr, BinOp) and is_aggregate(expr):
        left = compile_agg_expr(expr.left, resolver, agg_slots)
        right = compile_agg_expr(expr.right, resolver, agg_slots)
        op = expr.op
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return lambda env, ctx: sql_compare(op, left(env, ctx), right(env, ctx))
        return lambda env, ctx: sql_arith(op, left(env, ctx), right(env, ctx))
    if isinstance(expr, UnaryOp) and is_aggregate(expr):
        operand = compile_agg_expr(expr.operand, resolver, agg_slots)
        return lambda env, ctx: (lambda v: None if v is None else -v)(operand(env, ctx))
    return compile_expr(expr, resolver)


# -- compiled plans --------------------------------------------------------------------
@dataclass
class _TableStep:
    """One table of a plan: how its rows are found, what they must pass."""

    binding: str
    table: Table
    filter_fns: List[EvalFn]
    # Compiled access inputs; all None means a full scan.
    key_fns: Optional[List[EvalFn]] = None
    index_name: Optional[str] = None
    eq_fns: Optional[List[EvalFn]] = None
    low: Optional[Tuple[EvalFn, bool]] = None
    high: Optional[Tuple[EvalFn, bool]] = None
    like_fn: Optional[EvalFn] = None
    in_fns: Optional[List[EvalFn]] = None

    @classmethod
    def compile(
        cls, engine: HeapEngine, binding: Binding, access: object,
        filters: Sequence[Expr], resolver: Resolver,
    ) -> "_TableStep":
        step = cls(
            binding=binding.name,
            table=engine.table(binding.ref.table),
            filter_fns=[compile_expr(f, resolver) for f in filters],
        )
        if isinstance(access, PkEqAccess):
            step.key_fns = [compile_expr(e, resolver) for e in access.key_exprs]
        elif isinstance(access, IndexAccess):
            step.index_name = access.index_name
            step.eq_fns = [compile_expr(e, resolver) for e in access.eq_exprs]
            if access.low is not None:
                step.low = (compile_expr(access.low[0], resolver), access.low[1])
            if access.high is not None:
                step.high = (compile_expr(access.high[0], resolver), access.high[1])
            if access.like_pattern is not None:
                step.like_fn = compile_expr(access.like_pattern, resolver)
            if access.in_exprs is not None:
                step.in_fns = [compile_expr(e, resolver) for e in access.in_exprs]
        return step

    def locs(
        self, txn_id: int, tag_v: Optional[int], env: Env, ctx: ExecContext
    ) -> Optional[Iterable[Loc]]:
        """Locations this probe visits, in visit order; None for a full scan.

        The one access dispatch, shared by SELECT joins and UPDATE/DELETE
        row selection.  ``env`` holds the rows of the steps outside this
        one, which the key expressions of a join probe read.
        """
        if self.key_fns is not None:
            key = tuple([fn(env, ctx) for fn in self.key_fns])
            return self.table.pk_index.lookup(key, txn_id, tag_v)
        if self.index_name is None:
            return None
        index = self.table.index(self.index_name)
        eq_vals = tuple([fn(env, ctx) for fn in self.eq_fns])
        if None in eq_vals:
            return ()  # comparing with NULL is never true: nothing to visit
        if self.in_fns is not None:
            # IN-list: a union of point prefixes.  Dedup the evaluated
            # values — repeated list members must not emit a row twice.
            in_vals = dict.fromkeys([fn(env, ctx) for fn in self.in_fns])
            in_vals.pop(None, None)
            return chain.from_iterable(
                index.range_lookup_encoded(*prefix_bounds(eq_vals + (value,)), txn_id, tag_v)
                for value in in_vals
            )
        low = high = None
        if self.low is not None:
            low = (self.low[0](env, ctx), self.low[1])
        if self.high is not None:
            high = (self.high[0](env, ctx), self.high[1])
        if (low and low[0] is None) or (high and high[0] is None):
            return ()
        if self.like_fn is not None:
            bounds = like_range(self.like_fn(env, ctx))
            if bounds is not None:
                low, high = (bounds[0], True), (bounds[1], True)
        lo_enc, hi_enc = prefix_bounds(eq_vals, low, high)
        return index.range_lookup_encoded(lo_enc, hi_enc, txn_id, tag_v)


def _tuple_source(
    exprs: Sequence[Optional[Expr]],
    compile_one: Callable[[Expr], EvalFn],
    resolver: Resolver,
    namespace: Dict[str, EvalFn],
) -> str:
    """Source of a tuple display that evaluates ``exprs`` on ``env, ctx``.

    A column reference is read in place and ``None`` stays None; anything
    else calls its own compiled closure, which is put into ``namespace``.
    Inside one :func:`_lambda`, the display builds a whole projection row
    or GROUP BY key in a single frame.
    """
    parts = []
    for expr in exprs:
        if expr is None:
            parts.append("None")
        elif isinstance(expr, ColumnRef):
            binding, position = resolver.resolve(expr)
            parts.append(f"env[{binding!r}][{position}]")
        else:
            name = f"fn{len(namespace)}"
            namespace[name] = compile_one(expr)
            parts.append(f"{name}(env, ctx)")
    return "(" + "".join(part + ", " for part in parts) + ")"


@lru_cache(maxsize=4096)
def _lambda_code(source: str) -> CodeType:
    """Code of ``lambda env, ctx: <source>``: one object per distinct source.

    Filed under this module and named after its source.  Profilers key a
    function by (file, line, name) and keep one of those that collide, so
    the plans every engine compiles from one statement share a code object
    and different sources never share a name.
    """
    code = eval(compile(f"lambda env, ctx: {source}", __file__, "eval")).__code__
    return code.replace(co_name=f"<{source}>")


def _lambda(source: str, namespace: Dict[str, EvalFn]) -> EvalFn:
    """``lambda env, ctx: <source>`` with ``namespace`` as its globals."""
    return FunctionType(_lambda_code(source), namespace)


#: The row of a ``(loc, row)`` pair, as a table scan yields them.
_ROW = itemgetter(1)


class _CompiledSelect:
    def __init__(self, engine: HeapEngine, stmt: Select) -> None:
        bindings = []
        for ref in stmt.tables:
            table = engine.table(ref.table)
            bindings.append(Binding(ref, table.schema))
        self.resolver = Resolver(bindings)
        conjuncts = split_conjuncts(stmt.where)
        row_counts = {b.ref.table: engine.table(b.ref.table).row_count for b in bindings}
        ordered = order_tables(bindings, conjuncts, self.resolver, row_counts)
        per_step_filters = assign_filters(ordered, conjuncts, self.resolver)
        self.steps: List[_TableStep] = [
            _TableStep.compile(engine, binding, access, filters, self.resolver)
            for (binding, access), filters in zip(ordered, per_step_filters)
        ]

        # Projections.
        if stmt.star:
            items: List[SelectItem] = []
            self.columns: List[str] = []
            for binding in bindings:
                for col in binding.schema.columns:
                    items.append(
                        SelectItem(ColumnRef(binding.name, col.name), col.name)
                    )
                    self.columns.append(col.name)
            stmt = Select(
                items, stmt.tables, None, stmt.group_by, stmt.having,
                stmt.order_by, stmt.limit, stmt.offset, stmt.distinct, False,
            )
            self.select_items = items
        else:
            self.select_items = stmt.items
            self.columns = [self._column_name(item) for item in stmt.items]

        self.is_aggregate = bool(stmt.group_by) or stmt.having is not None or any(
            is_aggregate(item.expr) for item in self.select_items
        ) or any(is_aggregate(o.expr) for o in stmt.order_by)

        if self.is_aggregate:
            agg_nodes: List[FuncCall] = []
            for item in self.select_items:
                _collect_aggregates(item.expr, agg_nodes)
            for order in stmt.order_by:
                _collect_aggregates(order.expr, agg_nodes)
            if stmt.having is not None:
                _collect_aggregates(stmt.having, agg_nodes)
            self.agg_specs = [
                _AggSpec(node, compile_expr(node.args[0], self.resolver) if node.args else None)
                for node in agg_nodes
            ]
            agg_slots = {id(node): i for i, node in enumerate(agg_nodes)}
            self.has_group_by = bool(stmt.group_by)
            self.having_fn = (
                compile_agg_expr(stmt.having, self.resolver, agg_slots)
                if stmt.having is not None
                else None
            )
            compile_output = lambda e: compile_agg_expr(e, self.resolver, agg_slots)
        else:
            compile_output = lambda e: compile_expr(e, self.resolver)

        # ORDER BY: resolve select-alias references to output positions; the
        # other keys are computed beside the output row.
        alias_pos = {
            item.alias: i for i, item in enumerate(self.select_items) if item.alias
        }
        #: Per ORDER BY item: (output position or None, descending).
        self.order_by: List[Tuple[Optional[int], bool]] = []
        key_exprs: List[Optional[Expr]] = []
        for order in stmt.order_by:
            position = None
            if isinstance(order.expr, ColumnRef) and order.expr.table is None:
                position = alias_pos.get(order.expr.column)
                if position is None:
                    # Also match bare select items (ORDER BY same column).
                    for i, item in enumerate(self.select_items):
                        if item.expr == order.expr:
                            position = i
                            break
            self.order_by.append((position, order.descending))
            key_exprs.append(order.expr if position is None else None)

        # What the innermost loop captures of a joined row, and what becomes
        # of it: ``(output row, sort keys)`` straight away, or — under
        # aggregation — ``(group key, the row's env)`` first and the same
        # pair per group afterwards.  One closure, one frame, each.
        namespace: Dict[str, EvalFn] = {}
        output = "({}, {})".format(
            _tuple_source(
                [item.expr for item in self.select_items], compile_output,
                self.resolver, namespace,
            ),
            _tuple_source(key_exprs, compile_output, self.resolver, namespace),
        )
        group_key = _tuple_source(
            stmt.group_by, lambda e: compile_expr(e, self.resolver), self.resolver, namespace
        )
        self.output_fn = _lambda(output, namespace)
        self.capture = (
            _lambda(f"({group_key}, dict(env))", namespace)
            if self.is_aggregate
            else self.output_fn
        )
        self.distinct = stmt.distinct
        self.limit_fn = compile_expr(stmt.limit, self.resolver) if stmt.limit else None
        self.offset_fn = compile_expr(stmt.offset, self.resolver) if stmt.offset else None
        self.minmax = self._minmax_shortcut(stmt)

    def _minmax_shortcut(self, stmt: Select):
        """Detect ``SELECT MAX(col) FROM t`` answerable from an index edge.

        Returns ``(table, index_name, column_position, reverse)`` or None.
        """
        if (
            len(self.steps) != 1
            or stmt.group_by
            or stmt.where is not None
            or len(self.select_items) != 1
        ):
            return None
        expr = self.select_items[0].expr
        if not (
            isinstance(expr, FuncCall)
            and expr.name in ("min", "max")
            and len(expr.args) == 1
            and isinstance(expr.args[0], ColumnRef)
            and not expr.distinct
        ):
            return None
        step = self.steps[0]
        if step.filter_fns or step.key_fns is not None or step.index_name is not None:
            return None  # not a bare full scan
        table = step.table
        column = expr.args[0].column
        if not table.schema.has_column(column):
            return None
        for index in table.schema.indexes:
            if index.columns[0] == column:
                return (table, index.name, table.schema.position(column), expr.name == "max")
        return None

    @staticmethod
    def _column_name(item: SelectItem) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            return item.expr.column
        if isinstance(item.expr, FuncCall):
            return item.expr.name
        return "expr"

    # -- runtime -----------------------------------------------------------------
    def _nested_loops(
        self, depth: int, bound: list, txn: Transaction, env: Env, ctx: ExecContext,
        joined: list,
    ) -> None:
        """Join the steps from ``depth`` inward under the rows ``env`` holds.

        Plain nested loops: one call per probe, none per row but the read
        and the filters.  The inner probes of an outer row run between two
        reads of the outer step, so pages are touched in exactly the order
        the rows of the join come out.
        """
        step, tag_v, read = bound[depth]
        locs = step.locs(txn.txn_id, tag_v, env, ctx)
        rows = map(read, locs) if locs is not None else map(_ROW, step.table.scan(txn))
        binding = step.binding
        filters = step.filter_fns
        inner = depth + 1
        innermost = inner == len(bound)
        keep = joined.append
        capture = self.capture
        for row in rows:
            if row is None:
                continue  # dead slot behind a stale index entry
            env[binding] = row
            for passes in filters:
                if passes(env, ctx) is not True:  # NULL is not true
                    break
            else:
                if innermost:
                    keep(capture(env, ctx))
                else:
                    self._nested_loops(inner, bound, txn, env, ctx, joined)

    def run(self, engine: HeapEngine, txn: Transaction, ctx: ExecContext) -> ResultSet:
        read_row = engine.read_row
        if self.minmax is not None:
            table, index_name, position, reverse = self.minmax
            tag_v = table.tag_v(txn)
            for loc in table.index(index_name).range_lookup_encoded(
                None, None, txn.txn_id, tag_v, reverse=reverse
            ):
                row = read_row(txn, tag_v, loc)
                if row is not None and row[position] is not None:
                    return ResultSet(self.columns, [(row[position],)], rowcount=1)
            return ResultSet(self.columns, [(None,)], rowcount=1)
        # Per statement and step: the version the step's table is read at,
        # and the engine's row read bound to it.
        bound = []
        for step in self.steps:
            tag_v = step.table.tag_v(txn)
            bound.append((step, tag_v, partial(read_row, txn, tag_v)))
        outputs: List[Tuple[tuple, tuple]] = []
        self._nested_loops(0, bound, txn, {}, ctx, outputs)
        if self.is_aggregate:
            outputs = self._run_aggregate(outputs, ctx)
        if self.distinct:
            seen = set()
            deduped = []
            for row, keys in outputs:
                if row not in seen:
                    seen.add(row)
                    deduped.append((row, keys))
            outputs = deduped
        outputs = self._sort(outputs)
        rows = [row for row, _keys in outputs]
        rows = self._apply_limit(rows, ctx)
        return ResultSet(self.columns, rows, rowcount=len(rows))

    def _run_aggregate(
        self, joined: List[Tuple[tuple, Env]], ctx: ExecContext
    ) -> List[Tuple[tuple, tuple]]:
        groups: Dict[tuple, List[Env]] = {}
        for key, env in joined:
            groups.setdefault(key, []).append(env)
        if not groups and not self.has_group_by:
            groups[()] = []  # global aggregate over empty input
        outputs = []
        for group_envs in groups.values():
            agg_values = [spec.compute(group_envs, ctx) for spec in self.agg_specs]
            rep = dict(group_envs[0]) if group_envs else {}
            rep["__agg__"] = agg_values
            if self.having_fn is not None and not _truthy(self.having_fn(rep, ctx)):
                continue
            outputs.append(self.output_fn(rep, ctx))
        return outputs

    def _sort(self, outputs: List[Tuple[tuple, tuple]]) -> List[Tuple[tuple, tuple]]:
        # Stable multi-key sort: apply keys right-to-left.
        for key_index in range(len(self.order_by) - 1, -1, -1):
            position, descending = self.order_by[key_index]

            def sort_key(item, position=position, key_index=key_index):
                row, keys = item
                value = row[position] if position is not None else keys[key_index]
                return (value is None, value)  # NULLs last ascending

            outputs.sort(key=sort_key, reverse=descending)
        return outputs

    def _apply_limit(self, rows: List[tuple], ctx: ExecContext) -> List[tuple]:
        offset = int(self.offset_fn({}, ctx)) if self.offset_fn else 0
        if offset:
            rows = rows[offset:]
        if self.limit_fn is not None:
            rows = rows[: int(self.limit_fn({}, ctx))]
        return rows


class _CompiledInsert:
    def __init__(self, engine: HeapEngine, stmt: Insert) -> None:
        table = engine.table(stmt.table)
        self.table_name = stmt.table
        for col in stmt.columns:
            table.schema.position(col)  # validate
        self.columns = stmt.columns
        resolver = Resolver([])
        self.row_fns = [
            [compile_expr(e, resolver) for e in row] for row in stmt.rows
        ]

    def run(self, engine: HeapEngine, txn: Transaction, ctx: ExecContext) -> ResultSet:
        table = engine.table(self.table_name)
        count = 0
        for row_fn in self.row_fns:
            values = {col: fn({}, ctx) for col, fn in zip(self.columns, row_fn)}
            table.insert_row(txn, values)
            count += 1
        return ResultSet([], [], rowcount=count)


class _CompiledDml:
    """Shared row-selection machinery for UPDATE and DELETE."""

    def __init__(self, engine: HeapEngine, table_name: str, where: Optional[Expr]) -> None:
        table = engine.table(table_name)
        ref_binding = Binding(
            ref=_table_ref(table_name), schema=table.schema
        )
        self.resolver = Resolver([ref_binding])
        conjuncts = split_conjuncts(where)
        ordered = order_tables([ref_binding], conjuncts, self.resolver, {table_name: table.row_count})
        filters = assign_filters(ordered, conjuncts, self.resolver)
        (binding, access), step_filters = ordered[0], filters[0]
        self.step = _TableStep.compile(engine, binding, access, step_filters, self.resolver)
        self.binding = binding.name
        self.table = table

    def matching_locs(self, txn: Transaction, ctx: ExecContext) -> List[Tuple[Loc, tuple]]:
        """Materialise (loc, row) matches before mutating anything.

        Rows are fetched with the write lock held from the start
        (lock-for-update), preventing S->X upgrade deadlocks between
        concurrent DML statements.
        """
        table = self.table
        env: Env = {}
        locs = self.step.locs(txn.txn_id, table.tag_v(txn), env, ctx)
        if locs is None:
            candidates = list(table.scan(txn))
        else:
            candidates = [(loc, table.fetch_for_update(txn, loc)) for loc in list(locs)]
        matches: List[Tuple[Loc, tuple]] = []
        for loc, row in candidates:
            if row is None:
                continue
            env[self.binding] = row
            for passes in self.step.filter_fns:
                if passes(env, ctx) is not True:
                    break
            else:
                matches.append((loc, row))
        return matches


class _CompiledUpdate(_CompiledDml):
    def __init__(self, engine: HeapEngine, stmt: Update) -> None:
        super().__init__(engine, stmt.table, stmt.where)
        self.assign_fns = [
            (column, compile_expr(expr, self.resolver)) for column, expr in stmt.assignments
        ]

    def run(self, engine: HeapEngine, txn: Transaction, ctx: ExecContext) -> ResultSet:
        matches = self.matching_locs(txn, ctx)
        for loc, row in matches:
            env = {self.binding: row}
            changes = {column: fn(env, ctx) for column, fn in self.assign_fns}
            self.table.update_row(txn, loc, changes)
        return ResultSet([], [], rowcount=len(matches))


class _CompiledDelete(_CompiledDml):
    def __init__(self, engine: HeapEngine, stmt: Delete) -> None:
        super().__init__(engine, stmt.table, stmt.where)

    def run(self, engine: HeapEngine, txn: Transaction, ctx: ExecContext) -> ResultSet:
        matches = self.matching_locs(txn, ctx)
        for loc, _row in matches:
            self.table.delete_row(txn, loc)
        return ResultSet([], [], rowcount=len(matches))


def _table_ref(name: str):
    from repro.sql.ast_nodes import TableRef

    return TableRef(name, None)


#: Process-wide parsed-statement cache, keyed by statement identity (the
#: exact SQL text).  AST nodes are frozen dataclasses, so one parse is
#: safely shared by every executor in the cluster — each node compiles its
#: own plan (plans bind engine-specific resolvers and row-count
#: heuristics), but the lex/parse work happens once per distinct statement
#: instead of once per node.
_PARSE_CACHE: Dict[str, Statement] = {}
_PARSE_CACHE_MAX = 4096


def parse_cached(sql: str) -> Statement:
    """Parse ``sql`` through the shared statement cache."""
    stmt = _PARSE_CACHE.get(sql)
    if stmt is None:
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            # Workloads use a fixed statement set; an overflow means
            # generated one-off SQL, where caching has no value anyway.
            _PARSE_CACHE.clear()
        stmt = _PARSE_CACHE[sql] = parse_statement(sql)
    return stmt


def is_write_statement(sql: str) -> bool:
    """True unless ``sql`` is a SELECT: the statements an update transaction
    records for the query log the on-disk tier replays."""
    return not sql.lstrip().lower().startswith("select")


class SqlExecutor:
    """Parse/plan-once, execute-many SQL front end for one engine."""

    def __init__(self, engine: HeapEngine, now: Optional[Callable[[], float]] = None) -> None:
        self.engine = engine
        self.now = now if now is not None else (lambda: 0.0)
        self._plans: Dict[str, object] = {}
        #: Plain attribute, not a Counters entry: always maintained (the
        #: micro-benchmarks read it), while the ``engine.plan_cache_hits``
        #: counter is emitted only under the OCC controller so legacy-mode
        #: counter fingerprints stay bit-for-bit stable.
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    def execute(
        self, txn: Transaction, sql: str, params: Sequence[object] = ()
    ) -> ResultSet:
        """Execute one statement inside ``txn``."""
        plan = self._plans.get(sql)
        if plan is None:
            self.plan_cache_misses += 1
            plan = self._compile(sql)
            self._plans[sql] = plan
        else:
            self.plan_cache_hits += 1
            engine = self.engine
            if engine.controller.emits_occ_counters:
                engine.counters.add("engine.plan_cache_hits")
        ctx = ExecContext(params, self.now)
        try:
            return plan.run(self.engine, txn, ctx)
        finally:
            # The statement's read counts reach the counter bag before the
            # caller can take a delta, whether it returns or raises.
            self.engine.flush_reads()

    def _compile(self, sql: str):
        stmt = parse_cached(sql)
        return compile_statement(self.engine, stmt)

    def invalidate_plans(self) -> None:
        """Drop cached plans (row-count heuristics change after bulk loads)."""
        self._plans.clear()


def compile_statement(engine: HeapEngine, stmt: Statement):
    if isinstance(stmt, Select):
        return _CompiledSelect(engine, stmt)
    if isinstance(stmt, Insert):
        return _CompiledInsert(engine, stmt)
    if isinstance(stmt, Update):
        return _CompiledUpdate(engine, stmt)
    if isinstance(stmt, Delete):
        return _CompiledDelete(engine, stmt)
    raise SqlError(f"unsupported statement {type(stmt).__name__}")
