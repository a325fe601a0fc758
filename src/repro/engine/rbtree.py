"""A red–black tree sorted map.

The paper attributes master saturation under the ordering mix to "costly
index updates ... due to rebalancing for inserts in the RB-tree index data
structure", so the index substrate here is a genuine red–black tree with
rotation accounting (the cost model charges per rotation and per node
visited).

Keys must be mutually comparable (the engine uses tuples); each key maps to
one payload object, typically an index bucket.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Tuple

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key: Any, value: Any, color: bool, nil: "_Node") -> None:
        self.key = key
        self.value = value
        self.color = color
        self.left = nil
        self.right = nil
        self.parent = nil


class RedBlackTree:
    """Sorted map with O(log n) insert/delete/search and range scans."""

    def __init__(self) -> None:
        self.nil = _Node(None, None, BLACK, None)  # type: ignore[arg-type]
        self.nil.left = self.nil.right = self.nil.parent = self.nil
        self.root = self.nil
        self.size = 0
        self.rotations = 0
        self.node_visits = 0

    # -- search ---------------------------------------------------------------
    # Searches count their visits in a local and add them once.
    def _find(self, key: Any) -> "_Node":
        nil, node, visits = self.nil, self.root, 0
        while node is not nil:
            visits += 1
            if key == node.key:
                break
            node = node.left if key < node.key else node.right
        self.node_visits += visits
        return node

    def get(self, key: Any, default: Any = None) -> Any:
        node = self._find(key)
        return node.value if node is not self.nil else default

    def __contains__(self, key: Any) -> bool:
        return self._find(key) is not self.nil

    def __len__(self) -> int:
        return self.size

    def setdefault(self, key: Any, factory: Callable[[], Any]) -> Any:
        """Payload for ``key``; a miss links ``factory()``, called either way,
        where the search ended."""
        return self.node(key, factory()).value

    def node(self, key: Any, fresh: Any = None) -> Optional["_Node"]:
        """The node holding ``key``, whose ``value`` the caller may replace.

        A miss links ``fresh`` where the search ended and returns its node,
        or returns None when ``fresh`` is None.  One search either way.
        """
        nil = parent = self.nil
        node, visits = self.root, 0
        while node is not nil:
            visits += 1
            if key == node.key:
                break
            parent = node
            node = node.left if key < node.key else node.right
        self.node_visits += visits
        if node is not nil:
            return node
        if fresh is None:
            return None
        return self._link(key, fresh, parent)

    # -- rotations ----------------------------------------------------------
    def _rotate_left(self, x: "_Node") -> None:
        self.rotations += 1
        y = x.right
        x.right = y.left
        if y.left is not self.nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: "_Node") -> None:
        self.rotations += 1
        y = x.left
        x.left = y.right
        if y.right is not self.nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self.nil:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    # -- insert ---------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert ``key`` -> ``value``; replaces the payload if key exists."""
        parent = self.nil
        node = self.root
        while node is not self.nil:
            self.node_visits += 1
            parent = node
            if key == node.key:
                node.value = value
                return
            node = node.left if key < node.key else node.right
        self._link(key, value, parent)

    def _link(self, key: Any, value: Any, parent: "_Node") -> "_Node":
        """Hang absent ``key`` under ``parent``, where its search ended;
        rebalance.  Returns the new node."""
        fresh = _Node(key, value, RED, self.nil)
        fresh.parent = parent
        if parent is self.nil:
            self.root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self.size += 1
        self._insert_fixup(fresh)
        return fresh

    def _insert_fixup(self, z: "_Node") -> None:
        while z.parent.color is RED:
            grand = z.parent.parent
            if z.parent is grand.left:
                uncle = grand.right
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    z = grand
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    grand.color = RED
                    self._rotate_right(grand)
            else:
                uncle = grand.left
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    z = grand
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    grand.color = RED
                    self._rotate_left(grand)
        self.root.color = BLACK

    # -- delete ---------------------------------------------------------------
    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns False if it was absent."""
        z = self._find(key)
        if z is self.nil:
            return False
        self.size -= 1
        y = z
        y_color = y.color
        if z.left is self.nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self.nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_color is BLACK:
            self._delete_fixup(x)
        return True

    def _transplant(self, u: "_Node", v: "_Node") -> None:
        if u.parent is self.nil:
            self.root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _minimum(self, node: "_Node") -> "_Node":
        while node.left is not self.nil:
            self.node_visits += 1
            node = node.left
        return node

    def _delete_fixup(self, x: "_Node") -> None:
        while x is not self.root and x.color is BLACK:
            if x is x.parent.left:
                sibling = x.parent.right
                if sibling.color is RED:
                    sibling.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    sibling = x.parent.right
                if sibling.left.color is BLACK and sibling.right.color is BLACK:
                    sibling.color = RED
                    x = x.parent
                else:
                    if sibling.right.color is BLACK:
                        sibling.left.color = BLACK
                        sibling.color = RED
                        self._rotate_right(sibling)
                        sibling = x.parent.right
                    sibling.color = x.parent.color
                    x.parent.color = BLACK
                    sibling.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self.root
            else:
                sibling = x.parent.left
                if sibling.color is RED:
                    sibling.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    sibling = x.parent.left
                if sibling.right.color is BLACK and sibling.left.color is BLACK:
                    sibling.color = RED
                    x = x.parent
                else:
                    if sibling.left.color is BLACK:
                        sibling.right.color = BLACK
                        sibling.color = RED
                        self._rotate_left(sibling)
                        sibling = x.parent.left
                    sibling.color = x.parent.color
                    x.parent.color = BLACK
                    sibling.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self.root
        x.color = BLACK

    # -- iteration ----------------------------------------------------------
    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All (key, value) pairs in key order."""
        for node in self.nodes():
            yield node.key, node.value

    def nodes(self) -> Iterator["_Node"]:
        """All nodes in key order; a caller may replace their ``value``."""
        # Iterative in-order traversal: avoids recursion limits on big tables.
        stack = []
        current = self.root
        while stack or current is not self.nil:
            while current is not self.nil:
                stack.append(current)
                current = current.left
            current = stack.pop()
            yield current
            current = current.right

    def range_items(
        self, lo: Any = None, hi: Any = None, reverse: bool = False
    ) -> Iterator[Tuple[Any, Any]]:
        """(key, value) pairs with ``lo <= key < hi`` in (reverse) key order.

        ``None`` bounds are open.  Runs in O(log n + matches).
        """
        if reverse:
            return self._range_desc(self.root, lo, hi)
        return self._range_asc(self.root, lo, hi)

    def _range_asc(self, node: "_Node", lo: Any, hi: Any) -> Iterator[Tuple[Any, Any]]:
        nil = self.nil
        stack = []
        current = node
        visits = 0
        try:
            while stack or current is not nil:
                while current is not nil:
                    visits += 1
                    if lo is not None and current.key < lo:
                        current = current.right
                        continue
                    stack.append(current)  # only nodes at or above lo get here
                    current = current.left
                if not stack:
                    return
                current = stack.pop()
                if hi is not None and not current.key < hi:
                    return
                yield current.key, current.value
                current = current.right
        finally:
            self.node_visits += visits  # once per scan, however it ends

    def _range_desc(self, node: "_Node", lo: Any, hi: Any) -> Iterator[Tuple[Any, Any]]:
        nil = self.nil
        stack = []
        current = node
        visits = 0
        try:
            while stack or current is not nil:
                while current is not nil:
                    visits += 1
                    if hi is not None and not current.key < hi:
                        current = current.left
                        continue
                    stack.append(current)
                    current = current.right
                if not stack:
                    return
                current = stack.pop()
                if lo is not None and current.key < lo:
                    return
                yield current.key, current.value
                current = current.left
        finally:
            self.node_visits += visits

    def min_item(self) -> Optional[Tuple[Any, Any]]:
        if self.root is self.nil:
            return None
        node = self._minimum(self.root)
        return node.key, node.value

    def max_item(self) -> Optional[Tuple[Any, Any]]:
        node = self.root
        if node is self.nil:
            return None
        while node.right is not self.nil:
            node = node.right
        return node.key, node.value

    # -- structural copy ------------------------------------------------------
    def copy(self, freeze: Callable[[Any], Any]) -> "RedBlackTree":
        """A tree of the same shape, colours, ``rotations`` and ``node_visits``.

        Node for node, so it behaves from here on exactly like a tree that
        saw the same insert/delete history.  Keys are shared, and so are
        payloads: each of this tree's is replaced by ``freeze(payload)``,
        which both trees then hold.
        """
        twin = RedBlackTree()
        twin.size = self.size
        twin.rotations = self.rotations
        twin.node_visits = self.node_visits
        nil, twin_nil = self.nil, twin.nil

        def clone(node: "_Node", twin_parent: "_Node") -> "_Node":
            node.value = value = freeze(node.value)
            twin_node = _Node(node.key, value, node.color, twin_nil)
            twin_node.parent = twin_parent
            return twin_node

        if self.root is not nil:
            twin.root = clone(self.root, twin_nil)
            stack = [(self.root, twin.root)]
            while stack:
                node, twin_node = stack.pop()
                if node.left is not nil:
                    twin_node.left = clone(node.left, twin_node)
                    stack.append((node.left, twin_node.left))
                if node.right is not nil:
                    twin_node.right = clone(node.right, twin_node)
                    stack.append((node.right, twin_node.right))
        return twin

    # -- invariant checking (used by tests) -----------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if red-black invariants are violated."""
        assert self.root.color is BLACK, "root must be black"

        def walk(node: "_Node") -> int:
            if node is self.nil:
                return 1
            if node.color is RED:
                assert node.left.color is BLACK and node.right.color is BLACK, (
                    "red node with red child"
                )
            if node.left is not self.nil:
                assert node.left.key < node.key, "left child key out of order"
            if node.right is not self.nil:
                assert node.key < node.right.key, "right child key out of order"
            left_black = walk(node.left)
            right_black = walk(node.right)
            assert left_black == right_black, "black height mismatch"
            return left_black + (0 if node.color is RED else 1)

        walk(self.root)
