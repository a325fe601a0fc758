"""A compact SQL subset: lexer, parser, planner and executor.

Covers what the TPC-W interactions need — multi-table joins, aggregates
with GROUP BY, ORDER BY ... DESC, LIMIT/OFFSET, LIKE, IN lists, arithmetic
in projections and SET clauses, and ``?`` parameters — over the
:mod:`repro.engine` table engine.  Statements are parsed once and cached.
"""

from repro.sql.ast_nodes import Statement
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_statement
from repro.sql.executor import ResultSet, SqlExecutor, is_write_statement, parse_cached

__all__ = [
    "tokenize",
    "parse_statement",
    "parse_cached",
    "is_write_statement",
    "Statement",
    "SqlExecutor",
    "ResultSet",
]
