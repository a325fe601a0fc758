"""Differential fuzzing: the SQL planner/executor vs a brute-force oracle.

Hypothesis generates random tables and random single-table WHERE clauses;
the compiled plan (which may choose PK lookups, index ranges, IN unions or
LIKE prefix ranges) must return exactly the rows a naive full-scan
evaluation returns.  This guards the access-path machinery — the part of
the SQL layer where a subtle bound error silently drops rows.
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

# One conjunct: (column, op, value) rendered into SQL below.
conjunct = st.one_of(
    st.tuples(st.just("pk"), st.just("="), st.integers(min_value=0, max_value=45)),
    st.tuples(st.just("a"), st.sampled_from(["=", "<", "<=", ">", ">=", "<>"]),
              st.integers(min_value=-20, max_value=20)),
    st.tuples(st.just("b"), st.just("="), st.sampled_from(WORDS)),
    st.tuples(st.just("b"), st.just("like"), st.sampled_from(["al%", "%ta", "g_mma", "%", "zz%"])),
    st.tuples(st.just("b"), st.just("in"), st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)),
    st.tuples(st.just("c"), st.sampled_from(["=", "<", ">"]), st.integers(min_value=-5, max_value=5)),
    st.tuples(st.just("c"), st.just("between"),
              st.tuples(st.integers(min_value=-5, max_value=0), st.integers(min_value=0, max_value=5))),
)


def render(conj) -> str:
    column, op, value = conj
    if op == "like":
        return f"{column} LIKE '{value}'"
    if op == "in":
        inner = ", ".join(f"'{v}'" for v in value)
        return f"{column} IN ({inner})"
    if op == "between":
        return f"{column} BETWEEN {value[0]} AND {value[1]}"
    if isinstance(value, str):
        return f"{column} {op} '{value}'"
    return f"{column} {op} {value}"


def oracle_match(row, conj) -> bool:
    """Brute-force evaluation of one conjunct with SQL NULL semantics."""
    column, op, value = conj
    pos = SCHEMA.position(column)
    cell = row[pos]
    if op == "like":
        if cell is None:
            return False
        from repro.sql.functions import like_match

        return bool(like_match(cell, value))
    if op == "in":
        return cell in value if cell is not None else False
    if op == "between":
        return cell is not None and value[0] <= cell <= value[1]
    if cell is None:
        return False
    return {
        "=": cell == value,
        "<>": cell != value,
        "<": cell < value,
        "<=": cell <= value,
        ">": cell > value,
        ">=": cell >= value,
    }[op]


@settings(max_examples=120, deadline=None)
@given(rows_strategy, st.lists(conjunct, min_size=0, max_size=3))
def test_planner_agrees_with_full_scan_oracle(data, conjuncts):
    engine = HeapEngine(rows_per_page=4)
    engine.create_table(SCHEMA)
    rows = [
        {"pk": i, "a": a, "b": b, "c": c} for i, (a, b, c) in enumerate(data)
    ]
    engine.bulk_load("t", rows)
    sql = SqlExecutor(engine)

    where = " AND ".join(render(c) for c in conjuncts)
    statement = "SELECT pk FROM t" + (f" WHERE {where}" if where else "")
    txn = engine.begin(TxnMode.READ_ONLY)
    result = sorted(r[0] for r in sql.execute(txn, statement).rows)

    expected = sorted(
        row["pk"]
        for row in rows
        if all(
            oracle_match(
                (row["pk"], row["a"], row["b"], row["c"]), conj
            )
            for conj in conjuncts
        )
    )
    assert result == expected, statement


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
# The join loop is nested loops driven by calls; these differentials run
# two- and three-table equi-joins — PK and secondary-index inner steps, a
# residual filter, NULLs in the join columns, GROUP BY with SUM/COUNT,
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
RESIDUALS = [None, ("t.c", "<", "u.x"), ("u.x", ">=", 3), ("t.a", "<>", "u.x")]


def _load_join_tables(t_data, u_data, v_data):
    engine = HeapEngine(rows_per_page=4)
    for schema in (SCHEMA, U_SCHEMA, V_SCHEMA):
        engine.create_table(schema)
    engine.bulk_load("t", [{"pk": i, "a": a, "b": b, "c": c} for i, (a, b, c) in enumerate(t_data)])
    engine.bulk_load(
        "u", [{"pk": i, "t_pk": p, "ta": a, "x": x} for i, (p, a, x) in enumerate(u_data)]
    )
    engine.bulk_load("v", [{"pk": i, "ux": ux, "y": y} for i, (ux, y) in enumerate(v_data)])
    return engine


def _oracle_join(engine, txn, tables, conjuncts, residual):
    """Brute-force nested loops over full scans; NULL never compares true."""
    schemas = {"t": SCHEMA, "u": U_SCHEMA, "v": V_SCHEMA}
    scans = {name: [row for _loc, row in engine.table(name).scan(txn)] for name in tables}

    def value(env, term):
        if not isinstance(term, str):
            return term
        table, column = term.split(".")
        return env[table][schemas[table].position(column)]

    def holds(env, left, op, right):
        l, r = value(env, left), value(env, right)
        if l is None or r is None:
            return False
        return {"=": l == r, "<": l < r, ">=": l >= r, "<>": l != r}[op]

    envs = [{}]
    for name in tables:
        envs = [{**env, name: row} for env in envs for row in scans[name]]
    checks = [(left, "=", right) for left, right in conjuncts]
    if residual is not None:
        checks.append(residual)
    return [env for env in envs if all(holds(env, *check) for check in checks)]


def _where(conjuncts, residual):
    parts = [f"{left} = {right}" for left, right in conjuncts]
    if residual is not None:
        parts.append("{} {} {}".format(*residual))
    return " AND ".join(parts)


@settings(max_examples=150, deadline=None)
@given(t_rows, u_rows, v_rows, st.sampled_from(sorted(JOINS)), st.sampled_from(RESIDUALS),
       st.integers(min_value=0, max_value=12))
def test_join_agrees_with_nested_loop_oracle(t_data, u_data, v_data, shape, residual, limit):
    engine = _load_join_tables(t_data, u_data, v_data)
    sql = SqlExecutor(engine)
    from_list, conjuncts = JOINS[shape]
    tables = from_list.split(", ")
    txn = engine.begin(TxnMode.READ_ONLY)
    pks = ", ".join(f"{name}.pk" for name in tables)
    statement = (
        f"SELECT {pks}, u.x FROM {from_list} WHERE {_where(conjuncts, residual)} "
        f"ORDER BY {pks} LIMIT {limit}"
    )
    result = sql.execute(txn, statement).rows
    oracle = _oracle_join(engine, txn, tables, conjuncts, residual)
    expected = sorted(tuple(env[name][0] for name in tables) + (env["u"][3],) for env in oracle)
    assert result == expected[:limit], statement


@settings(max_examples=100, deadline=None)
@given(t_rows, u_rows, v_rows, st.sampled_from(sorted(JOINS)), st.sampled_from(RESIDUALS))
def test_grouped_join_agrees_with_oracle(t_data, u_data, v_data, shape, residual):
    engine = _load_join_tables(t_data, u_data, v_data)
    sql = SqlExecutor(engine)
    from_list, conjuncts = JOINS[shape]
    tables = from_list.split(", ")
    txn = engine.begin(TxnMode.READ_ONLY)
    statement = (
        f"SELECT t.b, t.c, SUM(u.x) AS total, COUNT(*) AS n FROM {from_list} "
        f"WHERE {_where(conjuncts, residual)} GROUP BY t.b, t.c"
    )
    result = sql.execute(txn, statement).rows
    groups = {}
    for env in _oracle_join(engine, txn, tables, conjuncts, residual):
        groups.setdefault((env["t"][2], env["t"][3]), []).append(env["u"][3])
    expected = [
        (b, c, sum(x for x in xs if x is not None) if any(x is not None for x in xs) else None,
         len(xs))
        for (b, c), xs in groups.items()
    ]
    assert sorted(result, key=repr) == sorted(expected, key=repr), statement
