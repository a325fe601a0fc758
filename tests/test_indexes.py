"""Unit tests for version-aware index visibility semantics.

The indexes' write-side methods take encoded keys (what ``Table.index_delta``
hands them); lookups take the plain key.
"""

import pytest

from repro.common.errors import SchemaError
from repro.common.ids import PageId
from repro.engine.indexes import (
    PENDING,
    IndexEntry,
    VersionedHashIndex,
    VersionedTreeIndex,
    encode_key,
    prefix_bounds,
)

LOC = (PageId("item", 0), 0)
LOC2 = (PageId("item", 0), 1)


class TestVisibility:
    def test_committed_entry_visible_at_or_after_insert(self):
        e = IndexEntry(LOC, insert_v=5)
        assert not e.visible(None, 4)
        assert e.visible(None, 5)
        assert e.visible(None, 9)

    def test_committed_delete_invisible_from_delete_version(self):
        e = IndexEntry(LOC, insert_v=2, delete_v=6)
        assert e.visible(None, 5)
        assert not e.visible(None, 6)

    def test_pending_insert_invisible_to_tagged_reads(self):
        e = IndexEntry(LOC, insert_v=None, writer=9)
        assert not e.visible(7, 100)

    def test_pending_insert_visible_to_current_reads(self):
        e = IndexEntry(LOC, insert_v=None, writer=9)
        assert e.visible(9, None)
        assert e.visible(7, None)  # others block on the page lock instead

    def test_pending_delete_invisible_only_to_deleter(self):
        e = IndexEntry(LOC, insert_v=1, delete_v=PENDING, writer=9)
        assert not e.visible(9, None)
        assert e.visible(7, None)

    def test_committed_delete_invisible_to_current_reads(self):
        e = IndexEntry(LOC, insert_v=1, delete_v=3)
        assert not e.visible(7, None)

    def test_pending_delete_still_visible_to_tagged_reads(self):
        e = IndexEntry(LOC, insert_v=1, delete_v=PENDING, writer=9)
        assert e.visible(7, 5)


    def test_range_scan_filter_agrees_with_visible_in_every_state(self):
        # Range scans inline the visibility test; the method above stays
        # the definition they must agree with.
        states = [
            (insert_v, delete_v, writer)
            for insert_v in (None, 0, 3, 5)
            for delete_v in (None, PENDING, 0, 3, 5, 8)
            for writer in (None, 7, 9)
        ]
        idx = VersionedTreeIndex("ix", "item")
        entries = []
        for slot, state in enumerate(states):
            entry = IndexEntry((PageId("item", 0), slot), *state)
            idx._tree.setdefault(encode_key((slot % 5,)), list).append(entry)
            entries.append(entry)
        for reader in (None, 7, 9):
            for tag_v in (None, 0, 2, 3, 4, 5, 9):
                expected = {e.loc for e in entries if e.visible(reader, tag_v)}
                for reverse in (False, True):
                    found = list(idx.range_lookup(None, None, reader, tag_v, reverse=reverse))
                    assert len(found) == len(expected) and set(found) == expected, (reader, tag_v)


class TestEncodeKey:
    def test_upper_bounded_range_starts_past_the_nulls(self):
        idx = VersionedTreeIndex("ix", "item")
        for slot, key in enumerate([(None,), (1,), (5,), (9,)]):
            idx.add_committed(encode_key(key), (PageId("item", 0), slot), 0)
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
        idx.add_committed(encode_key(("k",)), LOC, 3)
        idx.mark_delete_pending(encode_key(("k",)), LOC, writer=5)
        assert idx.lookup(("k",), 5, None) == []
        idx.stamp_delete(encode_key(("k",)), LOC, 8)
        assert idx.lookup(("k",), 9, 7) == [LOC]
        assert idx.lookup(("k",), 9, 8) == []

    def test_master_delete_abort_restores(self):
        idx = VersionedHashIndex("pk", "item")
        idx.add_committed(encode_key(("k",)), LOC, 3)
        idx.mark_delete_pending(encode_key(("k",)), LOC, writer=5)
        idx.revert_delete(encode_key(("k",)), LOC)
        assert idx.lookup(("k",), 5, None) == [LOC]

    def test_stamp_without_pending_raises(self):
        idx = VersionedHashIndex("pk", "item")
        with pytest.raises(SchemaError):
            idx.stamp_insert(encode_key(("k",)), LOC, 1)
        idx.add_committed(encode_key(("k",)), LOC, 1)
        with pytest.raises(SchemaError):
            idx.stamp_delete(encode_key(("k",)), LOC, 2)

    def test_multiple_locs_per_key(self):
        idx = VersionedHashIndex("ix", "item")
        idx.add_committed(encode_key(("k",)), LOC, 1)
        idx.add_committed(encode_key(("k",)), LOC2, 2)
        assert set(idx.lookup(("k",), 9, 2)) == {LOC, LOC2}
        assert idx.lookup(("k",), 9, 1) == [LOC]

    def test_gc_removes_dead_entries(self):
        idx = VersionedHashIndex("pk", "item")
        idx.add_committed(encode_key(("k",)), LOC, 1)
        idx.mark_delete_committed(encode_key(("k",)), LOC, 4)
        assert idx.gc(3) == 0
        assert idx.gc(4) == 1
        assert idx.lookup(("k",), 9, 2) == []  # old versions gone after GC

    def test_has_live(self):
        idx = VersionedHashIndex("pk", "item")
        assert not idx.has_live(("k",), 1, None)
        idx.add_committed(encode_key(("k",)), LOC, 1)
        assert idx.has_live(("k",), 1, None)


class TestTreeIndex:
    def make(self):
        idx = VersionedTreeIndex("ix", "item")
        for i in range(10):
            idx.add_committed(encode_key((i,)), (PageId("item", i // 4), i % 4), version=i + 1)
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
        assert len(list(idx.scan_all(99, 100))) == 10

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
        idx.add_committed(encode_key(("a", 1)), LOC, 1)
        idx.add_committed(encode_key(("a", 2)), LOC2, 1)
        idx.add_committed(encode_key(("b", 1)), (PageId("t", 9), 0), 1)
        # Prefix bound: everything with first component == "a".
        locs = list(idx.range_lookup(("a",), ("a", 999999), 9, 10))
        assert len(locs) == 2
