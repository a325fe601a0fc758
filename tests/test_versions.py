"""Unit tests for the DBVersion version vector."""

from hypothesis import given, strategies as st

from repro.common.versions import VersionVector


class TestBasics:
    def test_absent_entries_read_zero(self):
        assert VersionVector().get("item") == 0

    def test_increment(self):
        v = VersionVector()
        v.increment(["item", "orders"])
        v.increment(["item"])
        assert v.get("item") == 2
        assert v.get("orders") == 1

    def test_set(self):
        v = VersionVector()
        v.set("item", 7)
        assert v.get("item") == 7

    def test_merge_elementwise_max(self):
        a = VersionVector({"item": 3, "orders": 1})
        b = VersionVector({"item": 2, "orders": 5, "author": 1})
        a.merge(b)
        assert a.as_dict() == {"item": 3, "orders": 5, "author": 1}

    def test_dominates(self):
        a = VersionVector({"item": 3, "orders": 5})
        b = VersionVector({"item": 3})
        assert a.dominates(b)
        assert not b.dominates(a)
        assert a.dominates(a)

    def test_dominates_treats_missing_as_zero(self):
        a = VersionVector({"item": 1})
        assert a.dominates(VersionVector())
        assert not VersionVector().dominates(a)

    def test_copy_is_independent(self):
        a = VersionVector({"item": 1})
        b = a.copy()
        b.increment(["item"])
        assert a.get("item") == 1
        assert b.get("item") == 2

    def test_equality_ignores_zero_entries(self):
        assert VersionVector({"item": 0}) == VersionVector()
        assert VersionVector({"item": 1}) != VersionVector()

    def test_equality_with_an_extra_zero_entry_in_either_order(self):
        one, padded = VersionVector({"a": 1}), VersionVector({"a": 1, "b": 0})
        assert one == padded and padded == one
        assert VersionVector({"a": 1}) == VersionVector({"a": 1})
        assert VersionVector({"a": 1, "b": 2}) != VersionVector({"a": 1, "b": 0})

    def test_hash_consistent_with_eq(self):
        assert hash(VersionVector({"item": 0})) == hash(VersionVector())
        assert hash(VersionVector({"item": 2})) == hash(VersionVector({"item": 2}))

    def test_total(self):
        assert VersionVector({"a": 2, "b": 3}).total() == 5

    def test_items_sorted(self):
        v = VersionVector({"b": 1, "a": 2})
        assert list(v.items()) == [("a", 2), ("b", 1)]


versions = st.dictionaries(
    st.sampled_from(["item", "orders", "customer", "author"]),
    st.integers(min_value=0, max_value=50),
    max_size=4,
)


@given(versions, versions)
def test_merge_is_lub(a_dict, b_dict):
    """merge(a, b) dominates both and is the least such vector."""
    a, b = VersionVector(a_dict), VersionVector(b_dict)
    merged = a.copy().merge(b)
    assert merged.dominates(a)
    assert merged.dominates(b)
    for table in set(a_dict) | set(b_dict):
        assert merged.get(table) == max(a.get(table), b.get(table))


@given(versions, versions)
def test_merge_commutative(a_dict, b_dict):
    a, b = VersionVector(a_dict), VersionVector(b_dict)
    assert a.copy().merge(b) == b.copy().merge(a)


@given(versions)
def test_merge_idempotent(a_dict):
    a = VersionVector(a_dict)
    assert a.copy().merge(a) == a
