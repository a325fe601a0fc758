"""Unit tests for version-aware index visibility semantics.

The indexes' write-side methods take encoded keys (what ``Table.index_delta``
hands them); lookups take the plain key.  Visibility is driven through the
public write and read methods only, so these tests hold whatever a bucket
looks like inside; :func:`visible` is the one definition every probe is
checked against.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SchemaError
from repro.common.ids import PageId
from repro.engine.indexes import (
    PENDING,
    VersionedHashIndex,
    VersionedTreeIndex,
    committed_entry,
    encode_key,
    prefix_bounds,
    visible,
)

LOC = (PageId("item", 0), 0)
LOC2 = (PageId("item", 0), 1)
KEY = encode_key(("k",))
READERS = (None, 7, 9)
TAGS = (None, 0, 2, 3, 4, 5, 6, 9, 100)


# -- every entry state the write API can reach, and the entry it must leave -----------
def pending_insert(writer):
    return (None, None, writer), lambda ix, key, loc: ix.add_pending(key, loc, writer)


def pending_insert_deleted(writer):
    def build(ix, key, loc):
        ix.add_pending(key, loc, writer)
        ix.mark_delete_pending(key, loc, writer)
    return (None, PENDING, writer), build


def committed(version, stamped=False):
    def build(ix, key, loc):
        if stamped:  # the master's way: pending, then stamped at commit
            ix.add_pending(key, loc, 99)
            ix.stamp_insert(key, loc, version)
        else:  # the slave's way
            ix.add_committed(key, committed_entry(loc, version))
    return (version, None, None), build


def pending_delete(version, writer):
    def build(ix, key, loc):
        ix.add_committed(key, committed_entry(loc, version))
        ix.mark_delete_pending(key, loc, writer)
    return (version, PENDING, writer), build


def committed_delete(version, deleted, stamped=False):
    def build(ix, key, loc):
        ix.add_committed(key, committed_entry(loc, version))
        if stamped:
            ix.mark_delete_pending(key, loc, 99)
            ix.stamp_delete(key, loc, deleted)
        else:
            ix.mark_delete_committed(key, loc, deleted)
    return (version, deleted, None), build


STATES = (
    [pending_insert(w) for w in (7, 9)]
    + [pending_insert_deleted(w) for w in (7, 9)]
    + [committed(v, stamped) for v in (0, 3, 5) for stamped in (False, True)]
    + [pending_delete(v, w) for v in (0, 3, 5) for w in (7, 9)]
    + [committed_delete(v, d, stamped)
       for v in (0, 3, 5) for d in (3, 5, 8) if d >= v for stamped in (False, True)]
)


def probes(builds, reader, tag_v):
    """What every read path returns over indexes built by ``builds``
    (``(loc, build)`` pairs, all under one key, so a reverse scan keeps the
    bucket's order): hash lookup, and the tree's range scan, unbounded and
    prefix-bounded, both ways."""
    pk, tree = VersionedHashIndex("pk", "item"), VersionedTreeIndex("ix", "item")
    for index in (pk, tree):
        for loc, build in builds:
            build(index, KEY, loc)
    lo, hi = prefix_bounds(("k",))
    return [
        pk.lookup(("k",), reader, tag_v),
        list(tree.range_lookup_encoded(None, None, reader, tag_v)),
        list(tree.range_lookup_encoded(lo, hi, reader, tag_v)),
        list(tree.range_lookup_encoded(lo, hi, reader, tag_v, reverse=True)),
    ]


def seen(state, reader, tag_v):
    """Does a reader find the one entry in ``state``?  Every probe agrees,
    and agrees with :func:`visible`."""
    fields, build = state
    expected = [LOC] if visible((LOC, *fields), reader, tag_v) else []
    for found in probes([(LOC, build)], reader, tag_v):
        assert found == expected, (fields, reader, tag_v)
    return bool(expected)


class TestVisibility:
    def test_committed_entry_visible_at_or_after_insert(self):
        for state in (committed(5), committed(5, stamped=True)):
            assert not seen(state, None, 4)
            assert seen(state, None, 5)
            assert seen(state, None, 9)

    def test_committed_delete_invisible_from_delete_version(self):
        for state in (committed_delete(2, 6), committed_delete(2, 6, stamped=True)):
            assert seen(state, None, 5)
            assert not seen(state, None, 6)

    def test_pending_insert_invisible_to_tagged_reads(self):
        assert not seen(pending_insert(9), 7, 100)
        assert not seen(pending_insert(9), 9, 100)

    def test_pending_insert_visible_to_current_reads(self):
        assert seen(pending_insert(9), 9, None)
        assert seen(pending_insert(9), 7, None)  # others block on the page lock instead

    def test_pending_delete_invisible_only_to_deleter(self):
        assert not seen(pending_delete(1, 9), 9, None)
        assert seen(pending_delete(1, 9), 7, None)
        assert not seen(pending_insert_deleted(9), 9, None)

    def test_committed_delete_invisible_to_current_reads(self):
        assert not seen(committed_delete(1, 3), 7, None)
        assert not seen(committed_delete(1, 3), None, None)

    def test_pending_delete_still_visible_to_tagged_reads(self):
        assert seen(pending_delete(1, 9), 7, 5)
        assert seen(pending_delete(1, 9), 9, 5)

    def test_range_scan_filter_agrees_with_visible_in_every_state(self):
        # Each state alone, then all of them side by side in one bucket (one
        # slot each), in both tag cases: the inlined filters of every read
        # path against the one definition.
        for state in STATES:
            for reader in READERS:
                for tag_v in TAGS:
                    seen(state, reader, tag_v)
        locs = [(PageId("item", slot // 4), slot % 4) for slot in range(len(STATES))]
        for reader in READERS:
            for tag_v in TAGS:
                expected = [
                    loc for loc, (fields, _build) in zip(locs, STATES)
                    if visible((loc, *fields), reader, tag_v)
                ]
                for found in probes(list(zip(locs, (b for _f, b in STATES))), reader, tag_v):
                    assert found == expected, (reader, tag_v)


class TestEncodeKey:
    def test_upper_bounded_range_starts_past_the_nulls(self):
        idx = VersionedTreeIndex("ix", "item")
        for slot, key in enumerate([(None,), (1,), (5,), (9,)]):
            idx.add_committed(encode_key(key), committed_entry((PageId("item", 0), slot), 0))
        lo, hi = prefix_bounds((), None, (5, True))
        assert [slot for _page, slot in idx.range_lookup_encoded(lo, hi, None, None)] == [1, 2]
        lo, hi = prefix_bounds((), (1, False), None)
        assert [slot for _page, slot in idx.range_lookup_encoded(lo, hi, None, None)] == [2, 3]
        assert prefix_bounds(()) == (None, None)

    def test_null_sorts_first(self):
        assert encode_key((None,)) < encode_key((0,))
        assert encode_key((None, "b")) < encode_key((1, "a"))

    def test_plain_order_preserved(self):
        assert encode_key((1, "a")) < encode_key((1, "b")) < encode_key((2, "a"))


# -- flat keys: the order of the nested pairs they replace --------------------------------
def nested_key(key):
    """The pair encoding flat keys replaced: one ``(tag, value)`` per column."""
    return tuple((0, "") if value is None else (1, value) for value in key)


def nested_prefix_bounds(eq_prefix, low=None, high=None):
    """:func:`prefix_bounds` over :func:`nested_key`, whose maximum component was ``(2,)``."""
    top, prefix = (2,), nested_key(eq_prefix)
    if low is None:
        lo = (prefix + ((0, ""), top) if high is not None else prefix if eq_prefix else None)
    else:
        lo = prefix + nested_key((low[0],)) + (() if low[1] else (top,))
    if high is None:
        hi = prefix + (top,) if eq_prefix or low is not None else None
    else:
        hi = prefix + nested_key((high[0],)) + ((top,) if high[1] else ())
    return lo, hi


def sign(a, b):
    """-1, 0 or 1 as ``a`` sorts before, with or after ``b``; TypeError as Python's."""
    return (a > b) - (a < b)


NUMBERS = st.integers(-3, 3) | st.floats(-3, 3, allow_nan=False).map(lambda x: round(x, 1))
TEXT = st.sampled_from(["", "a", "ab", "b"])


@settings(max_examples=300)
@given(st.lists(st.lists(st.none() | NUMBERS | TEXT, min_size=1, max_size=3), min_size=2, max_size=2))
def test_flat_keys_compare_like_the_nested_pairs(pair):
    """Any two keys of 1-3 columns, NULLs, ints, floats and strs mixed: the
    flat encoding orders them as the pairs did, or both refuse to."""
    a, b = map(tuple, pair)
    assert (encode_key(a) == encode_key(b)) == (nested_key(a) == nested_key(b))
    try:
        expected = sign(nested_key(a), nested_key(b))
    except TypeError:
        with pytest.raises(TypeError):
            sign(encode_key(a), encode_key(b))
        return
    assert sign(encode_key(a), encode_key(b)) == expected


@st.composite
def keys_and_bounds(draw):
    """Keys of one index (a numeric or text type per column, NULLs anywhere),
    an equality prefix and optional low/high bounds on the next column."""
    columns = draw(st.lists(st.sampled_from([NUMBERS, TEXT]), min_size=1, max_size=3))
    key = st.tuples(*(st.none() | column for column in columns))
    keys = draw(st.lists(key, max_size=12))
    width = draw(st.integers(0, len(columns)))
    eq = draw(st.tuples(*(st.none() | column for column in columns[:width])))
    bound = st.none()
    if width < len(columns):
        bound |= st.tuples(st.none() | columns[width], st.booleans())
    return keys, eq, draw(bound), draw(bound)


@settings(max_examples=300)
@given(keys_and_bounds())
def test_prefix_bounds_admit_the_keys_the_nested_bounds_did(case):
    """Equality prefixes (NULL ones, and the one-value prefixes an IN list
    probes) with inclusive or exclusive low and high bounds: the flat bounds
    let through exactly the keys the nested ones did."""
    keys, eq, low, high = case

    def admitted(encode, bounds):
        lo, hi = bounds(eq, low, high)
        return {key for key in keys
                if (lo is None or lo <= encode(key)) and (hi is None or encode(key) < hi)}

    assert admitted(encode_key, prefix_bounds) == admitted(nested_key, nested_prefix_bounds)


class TestHashIndexLifecycle:
    def test_master_insert_commit_cycle(self):
        idx = VersionedHashIndex("pk", "item")
        idx.add_pending(encode_key(("k",)), LOC, writer=1)
        assert idx.lookup(("k",), 1, None) == [LOC]
        assert idx.lookup(("k",), 2, 100) == []  # uncommitted, tagged read
        idx.stamp_insert(encode_key(("k",)), LOC, 7)
        assert idx.lookup(("k",), 2, 7) == [LOC]
        assert idx.lookup(("k",), 2, 6) == []

    def test_master_abort_reverts_insert(self):
        idx = VersionedHashIndex("pk", "item")
        idx.add_pending(encode_key(("k",)), LOC, writer=1)
        idx.revert_insert(encode_key(("k",)), LOC)
        assert idx.lookup(("k",), 1, None) == []
        assert idx.entry_count == 0

    def test_master_delete_commit_cycle(self):
        idx = VersionedHashIndex("pk", "item")
        idx.add_committed(encode_key(("k",)), committed_entry(LOC, 3))
        idx.mark_delete_pending(encode_key(("k",)), LOC, writer=5)
        assert idx.lookup(("k",), 5, None) == []
        idx.stamp_delete(encode_key(("k",)), LOC, 8)
        assert idx.lookup(("k",), 9, 7) == [LOC]
        assert idx.lookup(("k",), 9, 8) == []

    def test_master_delete_abort_restores(self):
        idx = VersionedHashIndex("pk", "item")
        idx.add_committed(encode_key(("k",)), committed_entry(LOC, 3))
        idx.mark_delete_pending(encode_key(("k",)), LOC, writer=5)
        idx.revert_delete(encode_key(("k",)), LOC)
        assert idx.lookup(("k",), 5, None) == [LOC]

    def test_stamp_without_pending_raises(self):
        idx = VersionedHashIndex("pk", "item")
        with pytest.raises(SchemaError):
            idx.stamp_insert(encode_key(("k",)), LOC, 1)
        idx.add_committed(encode_key(("k",)), committed_entry(LOC, 1))
        with pytest.raises(SchemaError):
            idx.stamp_delete(encode_key(("k",)), LOC, 2)

    def test_multiple_locs_per_key(self):
        idx = VersionedHashIndex("ix", "item")
        idx.add_committed(encode_key(("k",)), committed_entry(LOC, 1))
        idx.add_committed(encode_key(("k",)), committed_entry(LOC2, 2))
        assert set(idx.lookup(("k",), 9, 2)) == {LOC, LOC2}
        assert idx.lookup(("k",), 9, 1) == [LOC]

    def test_gc_removes_dead_entries(self):
        idx = VersionedHashIndex("pk", "item")
        idx.add_committed(encode_key(("k",)), committed_entry(LOC, 1))
        idx.mark_delete_committed(encode_key(("k",)), LOC, 4)
        assert idx.gc(3) == 0
        assert idx.gc(4) == 1
        assert idx.lookup(("k",), 9, 2) == []  # old versions gone after GC

    def test_has_live(self):
        idx = VersionedHashIndex("pk", "item")
        assert not idx.has_live(("k",), 1, None)
        idx.add_committed(encode_key(("k",)), committed_entry(LOC, 1))
        assert idx.has_live(("k",), 1, None)


class TestTreeIndex:
    def make(self):
        idx = VersionedTreeIndex("ix", "item")
        for i in range(10):
            idx.add_committed(
                encode_key((i,)), committed_entry((PageId("item", i // 4), i % 4), i + 1)
            )
        return idx

    def test_range_respects_versions(self):
        idx = self.make()
        # At tag 5 only entries with insert_v <= 5 (keys 0..4) exist.
        locs = list(idx.range_lookup(None, None, reader=99, tag_v=5))
        assert len(locs) == 5

    def test_range_bounds(self):
        idx = self.make()
        locs = list(idx.range_lookup((3,), (7,), reader=99, tag_v=100))
        assert len(locs) == 4

    def test_range_reverse(self):
        idx = self.make()
        fwd = list(idx.range_lookup((2,), (8,), 99, 100))
        rev = list(idx.range_lookup((2,), (8,), 99, 100, reverse=True))
        assert rev == fwd[::-1]

    def test_scan_all(self):
        idx = self.make()
        assert len(list(idx.range_lookup(None, None, 99, 100))) == 10

    def test_rotations_recorded(self):
        idx = self.make()
        assert idx.counters.get("index.rotations") > 0

    def test_delete_and_gc(self):
        idx = self.make()
        idx.mark_delete_committed(encode_key((0,)), (PageId("item", 0), 0), 20)
        assert list(idx.range_lookup((0,), (1,), 99, 25)) == []
        assert idx.gc(20) == 1
        assert idx.entry_count == 9

    def test_prefix_range(self):
        idx = VersionedTreeIndex("ix", "t")
        idx.add_committed(encode_key(("a", 1)), committed_entry(LOC, 1))
        idx.add_committed(encode_key(("a", 2)), committed_entry(LOC2, 1))
        idx.add_committed(encode_key(("b", 1)), committed_entry((PageId("t", 9), 0), 1))
        # Prefix bound: everything with first component == "a".
        locs = list(idx.range_lookup(("a",), ("a", 999999), 9, 10))
        assert len(locs) == 2
