"""Scalar SQL runtime helpers: LIKE matching and built-in functions."""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional, Tuple

from repro.common.errors import SqlError


@lru_cache(maxsize=1024)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (% and _) to an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.IGNORECASE | re.DOTALL)


def like_match(value: object, pattern: object) -> Optional[bool]:
    """SQL LIKE with NULL propagation (returns None on NULL operands)."""
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise SqlError("LIKE requires string operands")
    return _like_regex(pattern).fullmatch(value) is not None


def like_prefix(pattern: object) -> Optional[str]:
    """Literal prefix of a LIKE pattern before the first wildcard, if any."""
    if not isinstance(pattern, str):
        return None
    for i, ch in enumerate(pattern):
        if ch in ("%", "_"):
            return pattern[:i] or None
    return pattern or None


def like_range(pattern: object) -> Optional[Tuple[str, str]]:
    """Index range [lo, hi] covering all strings matching the pattern prefix."""
    prefix = like_prefix(pattern)
    if prefix is None:
        return None
    return prefix, prefix + "￿"


def sql_arith(op: str, left: object, right: object) -> object:
    """Arithmetic with SQL NULL propagation."""
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # SQL-ish: avoid crashing workloads on divide-by-zero
        result = left / right
        return result
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise SqlError(f"unknown arithmetic operator {op}")
