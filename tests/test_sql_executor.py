"""Integration tests: SQL execution over the heap engine."""

import pytest

from repro.common.errors import SqlError
from repro.engine import Column, HeapEngine, IndexDef, TableSchema, TxnMode
from repro.sql import SqlExecutor

ITEM = TableSchema(
    "item",
    [
        Column("i_id", "int", nullable=False),
        Column("i_title", "str"),
        Column("i_a_id", "int"),
        Column("i_subject", "str"),
        Column("i_cost", "float"),
        Column("i_pub_date", "float"),
        Column("i_stock", "int"),
    ],
    primary_key=("i_id",),
    indexes=[
        IndexDef("ix_item_subject", ("i_subject", "i_pub_date")),
        IndexDef("ix_item_title", ("i_title",)),
    ],
)
AUTHOR = TableSchema(
    "author",
    [
        Column("a_id", "int", nullable=False),
        Column("a_fname", "str"),
        Column("a_lname", "str"),
    ],
    primary_key=("a_id",),
    indexes=[IndexDef("ix_author_lname", ("a_lname",))],
)
ORDER_LINE = TableSchema(
    "order_line",
    [
        Column("ol_id", "int", nullable=False),
        Column("ol_o_id", "int", nullable=False),
        Column("ol_i_id", "int"),
        Column("ol_qty", "int"),
    ],
    primary_key=("ol_o_id", "ol_id"),
    indexes=[IndexDef("ix_ol_o_id", ("ol_o_id",))],
)

SUBJECTS = ["ARTS", "BIOGRAPHIES", "COMPUTERS"]


@pytest.fixture
def db():
    engine = HeapEngine(rows_per_page=8)
    for schema in (ITEM, AUTHOR, ORDER_LINE):
        engine.create_table(schema)
    sql = SqlExecutor(engine)
    txn = engine.begin()
    for a in range(5):
        sql.execute(
            txn,
            "INSERT INTO author (a_id, a_fname, a_lname) VALUES (?, ?, ?)",
            (a, f"First{a}", f"Last{a}"),
        )
    for i in range(30):
        sql.execute(
            txn,
            "INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_cost, i_pub_date, i_stock) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (i, f"Title {i:03d}", i % 5, SUBJECTS[i % 3], float(i), float(1000 - i), 10),
        )
    ol = 0
    for order in range(10):
        for line in range(3):
            sql.execute(
                txn,
                "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty) VALUES (?, ?, ?, ?)",
                (line, order, (order * 3 + line) % 30, 1 + order % 4),
            )
            ol += 1
    engine.commit(txn)
    return engine, sql


def ro(engine):
    return engine.begin(TxnMode.READ_ONLY)


class TestSelect:
    def test_pk_lookup(self, db):
        engine, sql = db
        rs = sql.execute(ro(engine), "SELECT i_title FROM item WHERE i_id = ?", (7,))
        assert rs.rows == [("Title 007",)]
        assert rs.columns == ["i_title"]

    def test_star(self, db):
        engine, sql = db
        rs = sql.execute(ro(engine), "SELECT * FROM author WHERE a_id = 1")
        assert rs.rows == [(1, "First1", "Last1")]
        assert rs.columns == ["a_id", "a_fname", "a_lname"]

    def test_index_equality(self, db):
        engine, sql = db
        rs = sql.execute(ro(engine), "SELECT i_id FROM item WHERE i_subject = 'ARTS'")
        assert len(rs.rows) == 10

    def test_full_scan_filter(self, db):
        engine, sql = db
        rs = sql.execute(ro(engine), "SELECT i_id FROM item WHERE i_cost > 25")
        assert sorted(r[0] for r in rs.rows) == [26, 27, 28, 29]

    def test_join_via_pk(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT i_title, a_fname, a_lname FROM item, author "
            "WHERE item.i_a_id = author.a_id AND i_id = ?",
            (12,),
        )
        assert rs.rows == [("Title 012", "First2", "Last2")]

    def test_join_order_independent_of_from_order(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT i_title FROM author, item "
            "WHERE i_a_id = a_id AND a_lname = 'Last3' ORDER BY i_title LIMIT 2",
        )
        assert rs.rows == [("Title 003",), ("Title 008",)]

    def test_order_by_desc_limit(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine), "SELECT i_id FROM item ORDER BY i_cost DESC LIMIT 3"
        )
        assert [r[0] for r in rs.rows] == [29, 28, 27]

    def test_order_by_multiple_keys(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT i_subject, i_id FROM item ORDER BY i_subject ASC, i_id DESC LIMIT 2",
        )
        assert rs.rows == [("ARTS", 27), ("ARTS", 24)]

    def test_limit_offset(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine), "SELECT i_id FROM item ORDER BY i_id LIMIT 5 OFFSET 10"
        )
        assert [r[0] for r in rs.rows] == [10, 11, 12, 13, 14]

    def test_like_prefix(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine), "SELECT i_id FROM item WHERE i_title LIKE ?", ("Title 00%",)
        )
        assert len(rs.rows) == 10

    def test_like_contains(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine), "SELECT i_id FROM item WHERE i_title LIKE '%9'"
        )
        assert sorted(r[0] for r in rs.rows) == [9, 19, 29]

    def test_in_list(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine), "SELECT i_id FROM item WHERE i_id IN (1, 2, ?)", (25,)
        )
        assert sorted(r[0] for r in rs.rows) == [1, 2, 25]

    def test_in_list_with_a_null_item_follows_three_valued_logic(self, db):
        # 5 NOT IN (1, NULL) is NULL, not TRUE: 5 might equal the unknown
        # item.  A match still decides, whatever else the list holds.
        engine, sql = db
        txn = ro(engine)
        for where, params in [
            ("i_id NOT IN (1, NULL)", ()),
            ("i_id NOT IN (1, ?)", (None,)),
            ("NOT (i_id IN (1, NULL))", ()),
            ("i_stock NOT IN (?, 3)", (None,)),
        ]:
            assert sql.execute(txn, f"SELECT i_id FROM item WHERE {where}", params).rows == []
        rs = sql.execute(txn, "SELECT i_id FROM item WHERE i_stock IN (NULL, 10) AND i_id < 3")
        assert sorted(rs.rows) == [(0,), (1,), (2,)]
        rs = sql.execute(txn, "SELECT i_id FROM item WHERE NOT (i_id IN (NULL, 1, 2)) OR i_id = 1")
        assert rs.rows == [(1,)]
        assert len(sql.execute(txn, "SELECT i_id FROM item WHERE i_id NOT IN (1, 2)").rows) == 28

    def test_between(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine), "SELECT i_id FROM item WHERE i_id BETWEEN 5 AND 8"
        )
        assert sorted(r[0] for r in rs.rows) == [5, 6, 7, 8]

    def test_range_on_index_prefix(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT i_id FROM item WHERE i_subject = 'ARTS' AND i_pub_date >= ?",
            (985.0,),
        )
        # ARTS items are i_id multiples of 3; pub_date = 1000 - i.
        assert sorted(r[0] for r in rs.rows) == [0, 3, 6, 9, 12, 15]

    def test_arithmetic_projection(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine), "SELECT i_cost * 2 + 1 FROM item WHERE i_id = 10"
        )
        assert rs.rows == [(21.0,)]

    def test_distinct(self, db):
        engine, sql = db
        rs = sql.execute(ro(engine), "SELECT DISTINCT i_subject FROM item")
        assert sorted(r[0] for r in rs.rows) == sorted(SUBJECTS)

    def test_is_null(self, db):
        engine, sql = db
        txn = engine.begin()
        sql.execute(
            txn,
            "INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_cost, i_pub_date, i_stock) "
            "VALUES (99, NULL, 0, 'ARTS', 1.0, 1.0, 1)",
        )
        engine.commit(txn)
        rs = sql.execute(ro(engine), "SELECT i_id FROM item WHERE i_title IS NULL")
        assert rs.rows == [(99,)]

    def test_scalar_helper(self, db):
        engine, sql = db
        rs = sql.execute(ro(engine), "SELECT COUNT(*) FROM item")
        assert rs.scalar() == 30

    def test_dicts_helper(self, db):
        engine, sql = db
        rs = sql.execute(ro(engine), "SELECT a_id, a_lname FROM author WHERE a_id = 2")
        assert rs.dicts() == [{"a_id": 2, "a_lname": "Last2"}]


class TestAggregates:
    def test_count_star(self, db):
        engine, sql = db
        assert sql.execute(ro(engine), "SELECT COUNT(*) FROM order_line").scalar() == 30

    def test_sum_group_by_order_by_alias(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT ol_i_id, SUM(ol_qty) AS total FROM order_line "
            "GROUP BY ol_i_id ORDER BY total DESC, ol_i_id LIMIT 3",
        )
        assert len(rs.rows) == 3
        totals = [r[1] for r in rs.rows]
        assert totals == sorted(totals, reverse=True)

    def test_avg_min_max(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT AVG(i_cost), MIN(i_cost), MAX(i_cost) FROM item",
        )
        avg, lo, hi = rs.rows[0]
        assert (avg, lo, hi) == (14.5, 0.0, 29.0)

    def test_group_join_aggregate(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT i_id, i_title, SUM(ol_qty) AS val FROM item, order_line "
            "WHERE ol_i_id = i_id AND ol_o_id >= ? GROUP BY i_id, i_title "
            "ORDER BY val DESC LIMIT 5",
            (0,),
        )
        assert len(rs.rows) == 5

    def test_aggregate_empty_input(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine), "SELECT COUNT(*), SUM(i_cost) FROM item WHERE i_id = -5"
        )
        assert rs.rows == [(0, None)]

    def test_count_distinct(self, db):
        engine, sql = db
        assert (
            sql.execute(ro(engine), "SELECT COUNT(DISTINCT i_subject) FROM item").scalar()
            == 3
        )


class TestDml:
    def test_update_with_arithmetic(self, db):
        engine, sql = db
        txn = engine.begin()
        rs = sql.execute(
            txn, "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?", (4, 3)
        )
        assert rs.rowcount == 1
        engine.commit(txn)
        assert sql.execute(ro(engine), "SELECT i_stock FROM item WHERE i_id = 3").scalar() == 6

    def test_update_multiple_rows(self, db):
        engine, sql = db
        txn = engine.begin()
        rs = sql.execute(txn, "UPDATE item SET i_stock = 0 WHERE i_subject = 'ARTS'")
        assert rs.rowcount == 10
        engine.commit(txn)

    def test_delete(self, db):
        engine, sql = db
        txn = engine.begin()
        rs = sql.execute(txn, "DELETE FROM order_line WHERE ol_o_id = 0")
        assert rs.rowcount == 3
        engine.commit(txn)
        assert sql.execute(ro(engine), "SELECT COUNT(*) FROM order_line").scalar() == 27

    def test_insert_returns_rowcount(self, db):
        engine, sql = db
        txn = engine.begin()
        rs = sql.execute(
            txn,
            "INSERT INTO author (a_id, a_fname, a_lname) VALUES (10, 'A', 'B'), (11, 'C', 'D')",
        )
        assert rs.rowcount == 2
        engine.commit(txn)

    def test_in_list_on_an_index_selects_only_the_listed_values(self, db):
        # UPDATE/DELETE find their rows through the same probe routine as
        # SELECT: an IN-list on an indexed column is a union of points, not
        # the whole index with the list forgotten.
        engine, sql = db
        txn = engine.begin()
        rs = sql.execute(
            txn, "UPDATE item SET i_stock = 0 WHERE i_subject IN ('ARTS', 'ARTS', 'NOPE')"
        )
        assert rs.rowcount == 10
        rs = sql.execute(txn, "DELETE FROM order_line WHERE ol_o_id IN (0, 2)")
        assert rs.rowcount == 6
        engine.commit(txn)
        assert sql.execute(ro(engine), "SELECT COUNT(*) FROM item WHERE i_stock = 0").scalar() == 10
        assert sql.execute(ro(engine), "SELECT COUNT(*) FROM order_line").scalar() == 24

    def test_null_probe_keys_match_nothing(self, db):
        engine, sql = db
        txn = engine.begin()
        sql.execute(
            txn, "INSERT INTO item (i_id, i_title, i_subject, i_pub_date) VALUES (99, 'x', NULL, NULL)"
        )
        sql.execute(txn, "INSERT INTO item (i_id, i_subject, i_pub_date) VALUES (98, 'ARTS', NULL)")
        for where, params in [
            ("i_subject = ?", (None,)),
            ("i_subject IN (?)", (None,)),
            ("i_title > ?", (None,)),
            ("i_title BETWEEN ? AND 'zzz'", (None,)),
        ]:
            assert sql.execute(txn, f"SELECT i_id FROM item WHERE {where}", params).rows == []
            assert sql.execute(txn, f"UPDATE item SET i_stock = 1 WHERE {where}", params).rowcount == 0
        # Bounded above only: the NULL dates of the range column sort first
        # in the index and still satisfy no comparison.
        rs = sql.execute(txn, "SELECT i_id FROM item WHERE i_subject = 'ARTS' AND i_pub_date < 980")
        assert sorted(rs.rows) == [(21,), (24,), (27,)]
        assert sql.execute(txn, "SELECT i_id FROM item WHERE i_title < 'Title 001'").rows == [(0,)]

    def test_update_index_maintained(self, db):
        engine, sql = db
        txn = engine.begin()
        sql.execute(txn, "UPDATE item SET i_subject = 'HISTORY' WHERE i_id = 0")
        engine.commit(txn)
        rs = sql.execute(ro(engine), "SELECT i_id FROM item WHERE i_subject = 'HISTORY'")
        assert rs.rows == [(0,)]
        rs = sql.execute(ro(engine), "SELECT COUNT(*) FROM item WHERE i_subject = 'ARTS'")
        assert rs.scalar() == 9


class TestErrorsAndMisc:
    def test_unknown_table(self, db):
        engine, sql = db
        from repro.common.errors import SchemaError

        with pytest.raises(SchemaError):
            sql.execute(ro(engine), "SELECT x FROM missing")

    def test_unknown_column(self, db):
        engine, sql = db
        with pytest.raises(SqlError):
            sql.execute(ro(engine), "SELECT nope FROM item")

    def test_ambiguous_column(self, db):
        engine, sql = db
        # Self-join style ambiguity via two tables sharing no columns is
        # impossible here, so craft one with duplicate binding names.
        with pytest.raises(SqlError):
            sql.execute(ro(engine), "SELECT i_id FROM item, item")

    def test_missing_param(self, db):
        engine, sql = db
        with pytest.raises(SqlError):
            sql.execute(ro(engine), "SELECT i_id FROM item WHERE i_id = ?")

    def test_now_function(self, db):
        engine, _ = db
        sql = SqlExecutor(engine, now=lambda: 123.5)
        assert sql.execute(ro(engine), "SELECT NOW() FROM author WHERE a_id = 0").scalar() == 123.5

    def test_plan_cache_reused(self, db):
        engine, sql = db
        sql.execute(ro(engine), "SELECT i_id FROM item WHERE i_id = ?", (1,))
        cached = len(sql._plans)
        sql.execute(ro(engine), "SELECT i_id FROM item WHERE i_id = ?", (2,))
        assert len(sql._plans) == cached

    def test_invalidate_plans(self, db):
        engine, sql = db
        sql.execute(ro(engine), "SELECT i_id FROM item WHERE i_id = 1")
        sql.invalidate_plans()
        assert not sql._plans

    def test_division_by_zero_yields_null(self, db):
        engine, sql = db
        rs = sql.execute(ro(engine), "SELECT i_cost / 0 FROM item WHERE i_id = 1")
        assert rs.scalar() is None


class TestHaving:
    def test_having_filters_groups(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT ol_i_id, SUM(ol_qty) AS total FROM order_line "
            "GROUP BY ol_i_id HAVING SUM(ol_qty) > 3 ORDER BY total DESC",
        )
        assert rs.rows
        assert all(r[1] > 3 for r in rs.rows)

    def test_having_with_count(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT i_subject, COUNT(*) AS n FROM item GROUP BY i_subject "
            "HAVING COUNT(*) >= 10",
        )
        assert all(r[1] >= 10 for r in rs.rows)
        assert len(rs.rows) == 3  # all three subjects have 10 items

    def test_having_can_reference_group_column(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT i_subject, COUNT(*) FROM item GROUP BY i_subject "
            "HAVING i_subject = 'ARTS'",
        )
        assert len(rs.rows) == 1
        assert rs.rows[0][0] == "ARTS"

    def test_having_excluding_everything(self, db):
        engine, sql = db
        rs = sql.execute(
            ro(engine),
            "SELECT i_subject, COUNT(*) FROM item GROUP BY i_subject "
            "HAVING COUNT(*) > 1000",
        )
        assert rs.rows == []

    def test_having_parse_requires_group_by(self, db):
        engine, sql = db
        # HAVING without GROUP BY is not part of our subset: the keyword
        # is only consumed after GROUP BY, so it fails to parse.
        with pytest.raises(SqlError):
            sql.execute(ro(engine), "SELECT COUNT(*) FROM item HAVING COUNT(*) > 1")
