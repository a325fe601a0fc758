"""Property tests of the write-set replication fast path.

The coalescing invariant: collapsing a page's pending-op queue to the last
writer per slot (folding delta-encoded updates) must produce a
byte-identical page image and identical ``page.version`` to applying the
queue one op at a time — for ANY valid op sequence, any target version, and
also after ``discard_above`` truncation and ``receive_page`` installation.

The reference oracle below replays a queue sequentially with
:func:`repro.storage.ops.apply_op` — the pre-coalescing semantics.
"""

from hypothesis import given, settings, strategies as st

from repro.common.counters import Counters
from repro.common.ids import PageId
from repro.common.versions import VersionVector
from repro.core import MasterReplica, SlaveReplica
from repro.engine import Column, IndexDef, TableSchema
from repro.sql import SqlExecutor
from repro.storage.checkpoint import PageImage
from repro.storage.ops import OpKind, PageOp, apply_op, delta_update_op
from repro.storage.page import Page

CAPACITY = 8
PAGE = PageId("t", 0)

# Rows are (id:int, a:int, b:str); "a" and "b" stand in for indexed and
# unindexed columns.  Index positions (for delta before-column selection)
# cover column 1.
INDEX_POSITIONS = ((1,),)

values_a = st.integers(min_value=0, max_value=5)
values_b = st.sampled_from(["x", "y", "longer-string-value", ""])


def _make_ops(draw_ops):
    """Turn abstract (slot, action, a, b, full) tuples into a valid op list.

    Tracks shadow slot state so UPDATE/DELETE only hit live slots and
    INSERT only hits free ones; invalid draws fall back to the legal
    action.  Every op gets its own version (one write-set per op).
    """
    slots = {}
    ops = []
    for slot, action, a, b, full in draw_ops:
        current = slots.get(slot)
        if current is None:
            row = (slot, a, b)
            ops.append(PageOp(PAGE, OpKind.INSERT, slot, row))
            slots[slot] = row
        elif action == "delete":
            ops.append(PageOp(PAGE, OpKind.DELETE, slot, None, current))
            slots[slot] = None
        else:
            after = (slot, a, b)
            if full:
                ops.append(PageOp(PAGE, OpKind.UPDATE, slot, after, current))
            else:
                ops.append(delta_update_op(PAGE, slot, current, after, INDEX_POSITIONS))
            slots[slot] = after
    return ops


op_draws = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=CAPACITY - 1),
        st.sampled_from(["update", "delete"]),
        values_a,
        values_b,
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def _sequential_reference(base: Page, queue, target):
    """Old O(ops) materialisation: apply one op at a time up to target."""
    page = base.snapshot()
    for version, op in queue:
        if target is not None and version > target:
            break
        apply_op(page, op)
        page.version = max(page.version, version)
    return page


def _fresh_slave_queue(ops):
    """A bare page + pending queue holding ``ops`` at versions 1..N."""
    page = Page(PAGE, CAPACITY)
    queue = [(v + 1, op) for v, op in enumerate(ops)]
    return page, queue


def _coalesced(page: Page, queue, target):
    """Run SlaveReplica's one apply step on ``queue`` as the page's pending
    list, against a standalone page; the queue keeps what it left."""
    slave = SlaveReplica.__new__(SlaveReplica)
    slave.counters = Counters()
    slave.pending = {page.page_id: queue}
    slave.pending_ops = len(queue)
    slave._apply_queue(page, queue, target)
    assert slave.pending_ops == len(queue) == slave.pending_op_count()
    return page


@settings(max_examples=120, deadline=None)
@given(op_draws, st.integers(min_value=0, max_value=45))
def test_coalesced_apply_equals_sequential(draws, target):
    ops = _make_ops(draws)
    base, queue = _fresh_slave_queue(ops)
    expect = _sequential_reference(base, list(queue), target)

    page = base.snapshot()
    _coalesced(page, queue, target)

    assert page.slots == expect.slots
    assert page.version == expect.version
    # Ops above the target stay queued, in order.
    assert all(v > target for v, _op in queue)


@settings(max_examples=80, deadline=None)
@given(op_draws, st.integers(min_value=0, max_value=45), st.integers(min_value=0, max_value=45))
def test_coalesced_apply_after_discard_above(draws, keep, target):
    """discard_above truncation then coalesced apply ≡ sequential apply."""
    ops = _make_ops(draws)
    base, queue = _fresh_slave_queue(ops)
    kept = [(v, op) for v, op in queue if v <= keep]

    expect = _sequential_reference(base, kept, target)

    page = base.snapshot()
    _coalesced(page, kept, target)
    assert page.slots == expect.slots
    assert page.version == expect.version


@settings(max_examples=80, deadline=None)
@given(op_draws, st.integers(min_value=0, max_value=45))
def test_coalesced_apply_after_receive_page(draws, installed):
    """A migrated page image drops covered ops; the rest apply identically."""
    ops = _make_ops(draws)
    base, queue = _fresh_slave_queue(ops)
    # The "support slave" image: sequential state at version ``installed``.
    image = _sequential_reference(base, list(queue), installed)
    image.version = max(image.version, installed)
    remaining = [(v, op) for v, op in queue if v > installed]

    expect = _sequential_reference(image, remaining, None)

    page = image.snapshot()
    _coalesced(page, remaining, None)
    assert page.slots == expect.slots
    assert page.version == expect.version


# -- end-to-end: a real master drives a real slave ---------------------------------
ITEM = TableSchema(
    "item",
    [
        Column("i_id", "int", nullable=False),
        Column("i_title", "str"),
        Column("i_stock", "int"),
    ],
    primary_key=("i_id",),
    indexes=[IndexDef("ix_title", ("i_title", "i_id"))],
)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=99)),
        min_size=1,
        max_size=25,
    ),
    st.data(),
)
def test_slave_pages_match_master_after_random_updates(updates, data):
    """Replicated delta ops converge slave page images onto the master's."""
    master = MasterReplica("m0")
    lazy = SlaveReplica("lazy")
    eager = SlaveReplica("eager")
    rows = [{"i_id": i, "i_title": f"t{i % 3}", "i_stock": 0} for i in range(10)]
    for node in (master.engine, lazy.engine, eager.engine):
        node.create_table(ITEM)
        node.bulk_load("item", rows)
    sql = SqlExecutor(master.engine)
    for item, stock in updates:
        txn = master.begin_update()
        sql.execute(
            txn,
            "UPDATE item SET i_stock = ?, i_title = ? WHERE i_id = ?",
            (stock, f"t{stock % 3}", item),
        )
        ws = master.pre_commit(txn)
        lazy.receive(ws)
        eager.receive(ws)
        eager.apply_all_pending()  # applies op-by-op granularity upper bound
        master.finalize(txn)
    # Lazy slave materialises everything in one coalesced pass.
    lazy.apply_all_pending()
    for page in master.engine.store.all_pages():
        for replica in (lazy, eager):
            mirror = replica.engine.store.get(page.page_id)
            assert mirror.slots == page.slots
            assert mirror.version == page.version
    # Index lookups agree at the final tag.
    tag = VersionVector(master.current_versions().as_dict())
    ssql = SqlExecutor(lazy.engine)
    ro = lazy.begin_read_only(tag)
    title = data.draw(st.sampled_from(["t0", "t1", "t2"]))
    got = ssql.execute(
        ro, "SELECT i_id FROM item WHERE i_title = ? ORDER BY i_id", (title,)
    )
    lazy.engine.commit(ro)
    mtxn = master.begin_read_only()
    want = sql.execute(
        mtxn, "SELECT i_id FROM item WHERE i_title = ? ORDER BY i_id", (title,)
    )
    master.engine.commit(mtxn)
    assert got.rows == want.rows
