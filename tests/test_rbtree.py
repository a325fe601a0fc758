"""Unit and property tests for the red-black tree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.rbtree import RedBlackTree


class TestBasics:
    def test_empty(self):
        tree = RedBlackTree()
        assert len(tree) == 0
        assert tree.get(1) is None
        assert 1 not in tree
        assert tree.min_item() is None
        assert tree.max_item() is None

    def test_insert_get(self):
        tree = RedBlackTree()
        tree.insert(5, "five")
        assert tree.get(5) == "five"
        assert 5 in tree
        assert len(tree) == 1

    def test_insert_replaces_payload(self):
        tree = RedBlackTree()
        tree.insert(5, "a")
        tree.insert(5, "b")
        assert tree.get(5) == "b"
        assert len(tree) == 1

    def test_setdefault(self):
        tree = RedBlackTree()
        bucket = tree.setdefault(3, list)
        bucket.append("x")
        assert tree.setdefault(3, list) == ["x"]

    def test_delete(self):
        tree = RedBlackTree()
        tree.insert(1, "a")
        assert tree.delete(1) is True
        assert tree.delete(1) is False
        assert len(tree) == 0

    def test_min_max(self):
        tree = RedBlackTree()
        for k in (5, 1, 9, 3):
            tree.insert(k, str(k))
        assert tree.min_item() == (1, "1")
        assert tree.max_item() == (9, "9")

    def test_items_sorted(self):
        tree = RedBlackTree()
        for k in (5, 1, 9, 3, 7):
            tree.insert(k, k)
        assert [k for k, _ in tree.items()] == [1, 3, 5, 7, 9]

    def test_rotations_counted(self):
        tree = RedBlackTree()
        for k in range(32):  # ascending inserts force rotations
            tree.insert(k, k)
        assert tree.rotations > 0


class TestRange:
    def setup_method(self):
        self.tree = RedBlackTree()
        for k in range(0, 100, 10):
            self.tree.insert(k, k)

    def test_closed_open_range(self):
        assert [k for k, _ in self.tree.range_items(20, 60)] == [20, 30, 40, 50]

    def test_open_low(self):
        assert [k for k, _ in self.tree.range_items(None, 25)] == [0, 10, 20]

    def test_open_high(self):
        assert [k for k, _ in self.tree.range_items(75, None)] == [80, 90]

    def test_full_range(self):
        assert len(list(self.tree.range_items())) == 10

    def test_empty_range(self):
        assert list(self.tree.range_items(41, 49)) == []

    def test_reverse(self):
        assert [k for k, _ in self.tree.range_items(20, 60, reverse=True)] == [50, 40, 30, 20]

    def test_reverse_full(self):
        keys = [k for k, _ in self.tree.range_items(reverse=True)]
        assert keys == sorted(keys, reverse=True)


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=-1000, max_value=1000)))
def test_matches_dict_and_invariants(keys):
    """Tree behaves like a sorted dict and keeps RB invariants throughout."""
    tree = RedBlackTree()
    reference = {}
    for key in keys:
        tree.insert(key, key * 2)
        reference[key] = key * 2
    tree.check_invariants()
    assert len(tree) == len(reference)
    assert [k for k, _ in tree.items()] == sorted(reference)
    # Delete half the keys.
    for key in sorted(set(keys))[::2]:
        assert tree.delete(key)
        del reference[key]
        tree.check_invariants()
    assert [k for k, _ in tree.items()] == sorted(reference)
    for key in reference:
        assert tree.get(key) == reference[key]


@settings(max_examples=30)
@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=1),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=200),
)
def test_range_matches_sorted_filter(keys, a, b):
    lo, hi = min(a, b), max(a, b)
    tree = RedBlackTree()
    for key in keys:
        tree.insert(key, None)
    expected = sorted(k for k in set(keys) if lo <= k < hi)
    assert [k for k, _ in tree.range_items(lo, hi)] == expected
    assert [k for k, _ in tree.range_items(lo, hi, reverse=True)] == expected[::-1]


def test_tuple_keys():
    tree = RedBlackTree()
    tree.insert((1, "b"), "x")
    tree.insert((1, "a"), "y")
    tree.insert((0, "z"), "z")
    assert [k for k, _ in tree.items()] == [(0, "z"), (1, "a"), (1, "b")]


def shape(tree):
    """Keys, colours, payloads and parent links of every node, as a nested tuple."""
    def walk(node, parent):
        if node is tree.nil:
            return None
        assert node.parent is parent
        return (node.key, node.color, node.value, walk(node.left, node), walk(node.right, node))

    return walk(tree.root, tree.nil)


@settings(max_examples=80)
@given(st.lists(st.tuples(st.sampled_from(["set", "set", "set", "del"]), st.integers(0, 60))))
def test_setdefault_builds_the_tree_find_then_insert_builds(steps):
    """``setdefault`` descends once; the result is the two-descent tree:
    same shape and colours, same rotation count, same iteration order."""
    once, twice = RedBlackTree(), RedBlackTree()
    for step, key in steps:
        if step == "del":
            assert once.delete(key) == twice.delete(key)
            continue
        hit = twice._find(key)
        if hit is twice.nil:
            twice.insert(key, [])
            hit = twice._find(key)
        bucket = once.setdefault(key, list)
        bucket.append(len(bucket))
        hit.value.append(len(hit.value))
        assert once.setdefault(key, list) is bucket  # a hit returns the payload it linked
    once.check_invariants()
    assert shape(once) == shape(twice)
    assert (once.rotations, len(once)) == (twice.rotations, len(twice))
    assert list(once.items()) == list(twice.items())
    assert list(once.range_items(reverse=True)) == list(twice.range_items(reverse=True))


class SearchingTree(RedBlackTree):
    """The tree without its max-node shortcut: every :meth:`node` searches
    from the root, as every insert did before the tree kept its max node."""

    def node(self, key, fresh=None):
        nil = parent = self.nil
        node = self.root
        while node is not nil:
            if key == node.key:
                return node
            parent = node
            node = node.left if key < node.key else node.right
        return None if fresh is None else self._link(key, fresh, parent)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["ascending", "ascending", "random", "duplicate", "probe", "delete",
                     "delete-max", "copy", "copy-keep"]),
    st.integers(0, 40),
)))
def test_linking_above_the_max_node_builds_the_searched_tree(steps):
    """Inserts above the maximum link under the kept max node with no search:
    the tree is still the one every-insert-searches builds — same in-order
    keys, colours, parent links, payloads, size and rotations — through
    deletes (of the max node too) and copies (which find their max lazily)."""
    tree, reference = RedBlackTree(), SearchingTree()
    for step, n in steps:
        keys = [key for key, _ in reference.items()]
        if step in ("ascending", "random", "duplicate", "probe"):
            if step == "ascending":
                key = (keys[-1] if keys else 0) + 1 + n % 3
            elif step == "duplicate" and keys:
                key = keys[n % len(keys)]
            else:
                key = n * 2
            fresh = None if step == "probe" else f"v{key}"
            found, expected = tree.node(key, fresh), reference.node(key, fresh)
            assert (found is None) == (expected is None)
            if found is not None:
                assert (found.key, found.value) == (expected.key, expected.value)
        elif step.startswith("delete"):
            key = keys[-1] if step == "delete-max" and keys else n
            assert tree.delete(key) == reference.delete(key)
        else:  # a copy behaves like the tree it copied; so does the original
            twin, reference_twin = tree.copy(lambda value: value), reference.copy(lambda value: value)
            reference_twin.__class__ = SearchingTree
            if step == "copy":
                tree, reference = twin, reference_twin
        tree.check_invariants()
        assert shape(tree) == shape(reference)
        assert (len(tree), tree.rotations) == (len(reference), reference.rotations)
    assert [key for key, _ in tree.items()] == [key for key, _ in reference.items()]
