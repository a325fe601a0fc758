"""Differential fuzzing: the SQL planner/executor vs a brute-force oracle.

Hypothesis generates random tables and random single-table WHERE clauses;
the compiled plan (which may choose PK lookups, index ranges, IN unions or
LIKE prefix ranges) must return exactly the rows a naive full-scan
evaluation returns.  This guards the access-path machinery — the part of
the SQL layer where a subtle bound error silently drops rows — and the
generated code's three-valued logic: predicates with parameters, NULLs,
OR, NOT, IS NULL, BETWEEN, IN and NOT IN are judged by an oracle that
evaluates them the way SQL defines them.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import Column, HeapEngine, IndexDef, TableSchema, TxnMode
from repro.sql import SqlExecutor

SCHEMA = TableSchema(
    "t",
    [
        Column("pk", "int", nullable=False),
        Column("a", "int"),
        Column("b", "str"),
        Column("c", "int"),
    ],
    primary_key=("pk",),
    indexes=[
        IndexDef("ix_a", ("a",)),
        IndexDef("ix_b_c", ("b", "c")),
    ],
)

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon"]

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-20, max_value=20)),  # a
        st.one_of(st.none(), st.sampled_from(WORDS)),        # b
        st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),    # c
    ),
    min_size=0,
    max_size=40,
)


# -- predicates: generated SQL and a three-valued oracle --------------------------
# A predicate is a small tree: ("cmp", term, op, term), ("like", term,
# pattern), ("in", term, [terms], negated), ("between", term, low, high,
# negated), ("isnull", term, negated), ("or", p, q) or ("not", p).  A term
# is a column name, a literal (None is NULL) or a Param.
class Param:
    """A ``?`` of the generated statement, bound to ``value``."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Param({self.value!r})"


def is_column(term) -> bool:
    """Column names are t's own or qualified; no string literal is either."""
    return isinstance(term, str) and (SCHEMA.has_column(term) or "." in term)


def sql_term(term, params) -> str:
    if isinstance(term, Param):
        params.append(term.value)
        return "?"
    if term is None:
        return "NULL"
    if isinstance(term, str) and not is_column(term):
        return f"'{term}'"
    return str(term)


def render(pred, params) -> str:
    """SQL of ``pred``; appends its parameters, in text order, to ``params``."""
    kind, *args = pred
    term = lambda t: sql_term(t, params)  # noqa: E731
    if kind == "cmp":
        return f"{term(args[0])} {args[1]} {term(args[2])}"
    if kind == "like":
        return f"{term(args[0])} LIKE {term(args[1])}"
    if kind == "in":
        value = term(args[0])
        items = ", ".join(term(item) for item in args[1])
        return f"{value} {'NOT ' if args[2] else ''}IN ({items})"
    if kind == "between":
        value, low, high = (term(t) for t in args[:3])
        return f"{value} {'NOT ' if args[3] else ''}BETWEEN {low} AND {high}"
    if kind == "isnull":
        return f"{term(args[0])} IS {'NOT ' if args[1] else ''}NULL"
    if kind == "or":
        return f"({render(args[0], params)} OR {render(args[1], params)})"
    return f"NOT ({render(args[0], params)})"


COMPARE = {
    "=": lambda l, r: l == r, "<>": lambda l, r: l != r, "<": lambda l, r: l < r,
    "<=": lambda l, r: l <= r, ">": lambda l, r: l > r, ">=": lambda l, r: l >= r,
}


def evaluate(pred, column):
    """``pred``'s SQL value — True, False or None for NULL — where
    ``column(name)`` reads a column of the row at hand."""
    kind, *args = pred

    def value(term):
        if isinstance(term, Param):
            return term.value
        return column(term) if is_column(term) else term

    if kind == "cmp":
        left, right = value(args[0]), value(args[2])
        return None if left is None or right is None else COMPARE[args[1]](left, right)
    if kind == "like":
        from repro.sql.functions import like_match

        cell = value(args[0])
        return None if cell is None else bool(like_match(cell, args[1]))
    if kind == "in":
        cell, items = value(args[0]), [value(item) for item in args[1]]
        if cell is None:
            return None
        if any(item is not None and item == cell for item in items):
            found = True
        else:
            found = None if None in items else False
        return found if found is None or not args[2] else not found
    if kind == "between":
        cell, low, high = (value(t) for t in args[:3])
        if cell is None or low is None or high is None:
            return None
        return (low <= cell <= high) != args[3]
    if kind == "isnull":
        return (value(args[0]) is None) != args[1]
    if kind == "or":
        left, right = evaluate(args[0], column), evaluate(args[1], column)
        if left is True or right is True:
            return True
        return None if left is None or right is None else False
    inner = evaluate(args[0], column)
    return None if inner is None else not inner


def bound(values):
    """A literal of ``values``, or a parameter bound to one of them or to NULL."""
    return st.one_of(values, st.builds(Param, st.one_of(st.none(), values)))


def compound(leaf):
    """``leaf`` predicates, also under OR and NOT — NOT over an OR, too,
    where a NULL that a filter would reject anyway turns into TRUE if taken
    for FALSE."""
    either = st.tuples(st.just("or"), leaf, leaf)
    return st.one_of(
        leaf, either, st.tuples(st.just("not"), leaf), st.tuples(st.just("not"), either)
    )


a_values = st.integers(min_value=-20, max_value=20)
c_values = st.integers(min_value=-5, max_value=5)
words = st.sampled_from(WORDS)

# One conjunct of a single-table WHERE: the top-level ones are what the
# planner turns into PK lookups, index ranges, IN unions and LIKE prefixes.
conjunct = compound(st.one_of(
    st.tuples(st.just("cmp"), st.just("pk"), st.just("="),
              bound(st.integers(min_value=0, max_value=45))),
    st.tuples(st.just("cmp"), st.just("a"), st.sampled_from(["=", "<", "<=", ">", ">=", "<>"]),
              bound(a_values)),
    st.tuples(st.just("cmp"), st.just("b"), st.just("="), bound(words)),
    st.tuples(st.just("like"), st.just("b"), st.sampled_from(["al%", "%ta", "g_mma", "%", "zz%"])),
    st.tuples(st.just("in"), st.just("b"),
              st.lists(bound(st.one_of(st.none(), words)), min_size=1, max_size=3), st.booleans()),
    st.tuples(st.just("in"), st.just("a"),
              st.lists(bound(st.one_of(st.none(), a_values)), min_size=1, max_size=3),
              st.booleans()),
    st.tuples(st.just("cmp"), st.just("c"), st.sampled_from(["=", "<", ">"]), bound(c_values)),
    st.tuples(st.just("between"), st.just("c"), bound(st.integers(min_value=-5, max_value=0)),
              bound(st.integers(min_value=0, max_value=5)), st.booleans()),
    st.tuples(st.just("isnull"), st.sampled_from(["a", "b", "c"]), st.booleans()),
))


@settings(max_examples=300, deadline=None)
@given(rows_strategy, st.lists(conjunct, min_size=0, max_size=3))
def test_planner_agrees_with_full_scan_oracle(data, conjuncts):
    engine = HeapEngine(rows_per_page=4)
    engine.create_table(SCHEMA)
    rows = [
        {"pk": i, "a": a, "b": b, "c": c} for i, (a, b, c) in enumerate(data)
    ]
    engine.bulk_load("t", rows)
    sql = SqlExecutor(engine)

    txn = engine.begin(TxnMode.READ_ONLY)
    # The conjunction, whose top-level conjuncts pick the access path, and
    # each conjunct alone.
    alone = [[c] for c in conjuncts] if len(conjuncts) > 1 else []
    for where in [conjuncts] + alone:
        params = []
        statement = "SELECT pk FROM t" + (
            " WHERE " + " AND ".join(render(c, params) for c in where) if where else ""
        )
        result = sorted(r[0] for r in sql.execute(txn, statement, params).rows)
        expected = sorted(
            row["pk"] for row in rows if all(evaluate(c, row.get) is True for c in where)
        )
        assert result == expected, (statement, params)


@settings(max_examples=60, deadline=None)
@given(rows_strategy, st.sampled_from(["a", "c"]), st.booleans(),
       st.integers(min_value=0, max_value=10))
def test_order_by_limit_agrees_with_oracle(data, column, descending, limit):
    engine = HeapEngine(rows_per_page=4)
    engine.create_table(SCHEMA)
    rows = [
        {"pk": i, "a": a, "b": b, "c": c} for i, (a, b, c) in enumerate(data)
    ]
    engine.bulk_load("t", rows)
    sql = SqlExecutor(engine)
    direction = "DESC" if descending else "ASC"
    txn = engine.begin(TxnMode.READ_ONLY)
    statement = f"SELECT pk, {column} FROM t ORDER BY {column} {direction}, pk LIMIT {limit}"
    result = sql.execute(txn, statement).rows
    expected = sorted(
        ((row["pk"], row[column]) for row in rows),
        key=lambda pair: ((pair[1] is None, pair[1] if pair[1] is not None else 0)
                          if not descending
                          else (pair[1] is not None,
                                -(pair[1] if pair[1] is not None else 0)), pair[0]),
    )
    # Compare as multisets per sort-key prefix: ties on the sort column are
    # broken by pk in both, so direct comparison works.
    assert result == [
        (pk, value) for pk, value in _oracle_sort(rows, column, descending)
    ][:limit]


def _oracle_sort(rows, column, descending):
    keyed = [(row["pk"], row[column]) for row in rows]
    non_null = sorted([p for p in keyed if p[1] is not None],
                      key=lambda p: (p[1], p[0]))
    nulls = sorted([p for p in keyed if p[1] is None], key=lambda p: p[0])
    if descending:
        # NULLs sort last ascending => first when reversed.  Our executor
        # sorts with key (is-null, value) and reverse=True per key, with pk
        # as a secondary ascending key applied first (stable sort).
        non_null_desc = sorted(non_null, key=lambda p: (-p[1], p[0]))
        return nulls + non_null_desc if nulls else non_null_desc
    return non_null + nulls


# -- joins -----------------------------------------------------------------------------
# The join is one generated function of nested loops; these differentials
# run two- and three-table equi-joins — PK and secondary-index inner steps,
# a residual predicate (parameters, NULLs, OR, NOT, IS NULL, BETWEEN, IN,
# NOT IN), NULLs in the join columns, GROUP BY with every aggregate,
# ORDER BY + LIMIT — against brute-force nested loops over ``Table.scan``.
U_SCHEMA = TableSchema(
    "u",
    [
        Column("pk", "int", nullable=False),
        Column("t_pk", "int"),   # joins t's primary key
        Column("ta", "int"),     # joins t.a, indexed on both sides
        Column("x", "int"),
    ],
    primary_key=("pk",),
    indexes=[IndexDef("ix_u_ta", ("ta",))],
)
V_SCHEMA = TableSchema(
    "v",
    [Column("pk", "int", nullable=False), Column("ux", "int"), Column("y", "int")],
    primary_key=("pk",),
    indexes=[IndexDef("ix_v_ux", ("ux",))],
)
SCHEMAS = {"t": SCHEMA, "u": U_SCHEMA, "v": V_SCHEMA}

small = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
t_rows = st.lists(
    st.tuples(small, st.one_of(st.none(), st.sampled_from(WORDS[:3])), small), max_size=10
)
u_rows = st.lists(st.tuples(small, small, small), max_size=14)
v_rows = st.lists(st.tuples(small, small), max_size=14)

JOINS = {
    # name: (FROM list, join conjuncts as (left, right) column pairs)
    "pk_inner": ("t, u", [("t.pk", "u.t_pk")]),
    "index_inner": ("t, u", [("t.a", "u.ta")]),
    "three_tables": ("t, u, v", [("t.a", "u.ta"), ("u.x", "v.ux")]),
    "three_tables_pk": ("t, u, v", [("u.t_pk", "t.pk"), ("v.ux", "u.x")]),
}

# A residual reads columns of t and u, which every join shape has.
join_term = st.one_of(
    st.sampled_from(["t.a", "t.c", "u.x", "u.ta"]), small, st.builds(Param, small)
)
residuals = st.one_of(st.none(), compound(st.one_of(
    st.tuples(st.just("cmp"), join_term, st.sampled_from(["=", "<", ">=", "<>"]), join_term),
    st.tuples(st.just("isnull"), join_term, st.booleans()),
    st.tuples(st.just("between"), join_term, join_term, join_term, st.booleans()),
    st.tuples(st.just("in"), join_term, st.lists(join_term, min_size=1, max_size=3), st.booleans()),
)))


def _load_join_tables(t_data, u_data, v_data):
    engine = HeapEngine(rows_per_page=4)
    for schema in SCHEMAS.values():
        engine.create_table(schema)
    engine.bulk_load("t", [{"pk": i, "a": a, "b": b, "c": c} for i, (a, b, c) in enumerate(t_data)])
    engine.bulk_load(
        "u", [{"pk": i, "t_pk": p, "ta": a, "x": x} for i, (p, a, x) in enumerate(u_data)]
    )
    engine.bulk_load("v", [{"pk": i, "ux": ux, "y": y} for i, (ux, y) in enumerate(v_data)])
    return engine


def _column(env, name):
    table, column = name.split(".")
    return env[table][SCHEMAS[table].position(column)]


def _oracle_join(engine, txn, tables, conjuncts, residual):
    """Brute-force nested loops over full scans: NULL never equals, and the
    residual keeps a joined row only where it is TRUE."""
    scans = {name: [row for _loc, row in engine.table(name).scan(txn)] for name in tables}
    envs = [{}]
    for name in tables:
        envs = [{**env, name: row} for env in envs for row in scans[name]]
    checks = [("cmp", left, "=", right) for left, right in conjuncts]
    if residual is not None:
        checks.append(residual)
    return [
        env for env in envs
        if all(evaluate(check, lambda name: _column(env, name)) is True for check in checks)
    ]


def _where(conjuncts, residual, params):
    parts = [f"{left} = {right}" for left, right in conjuncts]
    if residual is not None:
        parts.append(render(residual, params))
    return " AND ".join(parts)


@settings(max_examples=300, deadline=None)
@given(t_rows, u_rows, v_rows, st.sampled_from(sorted(JOINS)), residuals,
       st.integers(min_value=0, max_value=12))
def test_join_agrees_with_nested_loop_oracle(t_data, u_data, v_data, shape, residual, limit):
    engine = _load_join_tables(t_data, u_data, v_data)
    sql = SqlExecutor(engine)
    from_list, conjuncts = JOINS[shape]
    tables = from_list.split(", ")
    txn = engine.begin(TxnMode.READ_ONLY)
    pks = ", ".join(f"{name}.pk" for name in tables)
    params = []
    statement = (
        f"SELECT {pks}, u.x FROM {from_list} WHERE {_where(conjuncts, residual, params)} "
        f"ORDER BY {pks} LIMIT {limit}"
    )
    result = sql.execute(txn, statement, params).rows
    oracle = _oracle_join(engine, txn, tables, conjuncts, residual)
    expected = sorted(tuple(env[name][0] for name in tables) + (env["u"][3],) for env in oracle)
    assert result == expected[:limit], (statement, params)


def _fold(name, distinct):
    """The oracle of SQL aggregate ``name`` over a group's argument values."""
    def fold(values):
        values = [v for v in values if v is not None]
        if distinct:
            values = sorted(set(values))
        if name == "count":
            return len(values)
        if not values:
            return None
        return {"sum": sum, "min": min, "max": max,
                "avg": lambda vs: sum(vs) / len(vs)}[name](values)
    return fold


#: Aggregate SQL -> (its oracle over a group's joined rows).
AGGREGATES = {
    "SUM(u.x)": lambda envs: _fold("sum", False)(_column(e, "u.x") for e in envs),
    "COUNT(*)": len,
    "COUNT(t.a)": lambda envs: _fold("count", False)(_column(e, "t.a") for e in envs),
    "MIN(u.x)": lambda envs: _fold("min", False)(_column(e, "u.x") for e in envs),
    "MAX(u.ta)": lambda envs: _fold("max", False)(_column(e, "u.ta") for e in envs),
    "AVG(u.x)": lambda envs: _fold("avg", False)(_column(e, "u.x") for e in envs),
    "COUNT(DISTINCT u.ta)": lambda envs: _fold("count", True)(_column(e, "u.ta") for e in envs),
    "SUM(DISTINCT u.x)": lambda envs: _fold("sum", True)(_column(e, "u.x") for e in envs),
}


@settings(max_examples=300, deadline=None)
@given(t_rows, u_rows, v_rows, st.sampled_from(sorted(JOINS)), residuals,
       st.permutations(sorted(AGGREGATES)))
def test_grouped_join_agrees_with_oracle(t_data, u_data, v_data, shape, residual, aggregates):
    engine = _load_join_tables(t_data, u_data, v_data)
    sql = SqlExecutor(engine)
    from_list, conjuncts = JOINS[shape]
    tables = from_list.split(", ")
    txn = engine.begin(TxnMode.READ_ONLY)
    params = []
    statement = (
        f"SELECT t.b, t.c, {', '.join(aggregates)} FROM {from_list} "
        f"WHERE {_where(conjuncts, residual, params)} GROUP BY t.b, t.c"
    )
    result = sql.execute(txn, statement, params).rows
    groups = {}
    for env in _oracle_join(engine, txn, tables, conjuncts, residual):
        groups.setdefault((env["t"][2], env["t"][3]), []).append(env)
    expected = [
        key + tuple(AGGREGATES[aggregate](envs) for aggregate in aggregates)
        for key, envs in groups.items()
    ]
    assert sorted(result, key=repr) == sorted(expected, key=repr), (statement, params)
