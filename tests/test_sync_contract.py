"""The embedded connection's contract when a transaction dies under it.

A master failover aborts transactions that are open on connections: the
dead master's updates (``node-failure``) and the read-only transactions on
the slave promoted in its place (``promotion``).  The connection learns of
it at its next call: ``query`` and ``commit`` raise
:class:`TransactionAborted` with the abort's reason and leave the
connection free for the next transaction; ``abort`` is a no-op.
"""

import pytest

from repro.cluster.sync import SyncConnection, SyncDmvCluster
from repro.common.errors import TransactionAborted
from repro.tpcw import TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

READ = "SELECT i_stock FROM item WHERE i_id = ?"


@pytest.fixture
def cluster():
    cluster = SyncDmvCluster(TPCW_SCHEMAS, num_slaves=2)
    cluster.load(TpcwDataGenerator(TpcwScale(num_items=40, num_customers=72), seed=1))
    return cluster


def open_readers(cluster, count=4):
    readers = []
    for _ in range(count):
        conn = SyncConnection(cluster)
        conn.begin_read(["item"])
        readers.append(conn)
    return readers


def fail_over(cluster):
    return cluster.kill_master(cluster.conflict_map.master_of_class(0))


def test_commit_of_a_reader_aborted_by_promotion_raises_transaction_aborted(cluster):
    readers = open_readers(cluster)
    on_node = [conn._node.node_id for conn in readers]
    promoted = fail_over(cluster)
    assert promoted in on_node and len(set(on_node)) == 2
    for conn, node_id in zip(readers, on_node):
        if node_id == promoted:
            with pytest.raises(TransactionAborted) as caught:
                conn.commit()
            assert caught.value.reason == "promotion"
        else:
            conn.commit()
        # Either way the connection is free for the next transaction.
        conn.begin_read(["item"])
        assert conn.query(READ, (1,)).value.rows
        conn.commit()
    survivor = next(n for n in on_node if n != promoted)
    assert cluster.scheduler.slaves[survivor].outstanding == 0


def test_commit_of_an_update_on_the_dead_master_raises_node_failure(cluster):
    conn = SyncConnection(cluster)
    conn.begin_update(["item"])
    conn.query("UPDATE item SET i_stock = 5 WHERE i_id = 1")
    fail_over(cluster)
    with pytest.raises(TransactionAborted) as caught:
        conn.commit()
    assert caught.value.reason == "node-failure"
    conn.begin_update(["item"])
    conn.query("UPDATE item SET i_stock = 6 WHERE i_id = 1")
    conn.commit()


def test_abort_of_a_transaction_aborted_under_the_connection_is_a_no_op(cluster):
    readers = open_readers(cluster)
    fail_over(cluster)
    for conn in readers:
        conn.abort()
        conn.abort()
        with pytest.raises(RuntimeError, match="no open transaction"):
            conn.commit()
    assert all(state.outstanding == 0 for state in cluster.scheduler.slaves.values())


def test_query_after_the_abort_raises_its_reason_and_frees_the_connection(cluster):
    readers = open_readers(cluster)
    promoted = fail_over(cluster)
    conn = next(c for c in readers if c._node.node_id == promoted)
    with pytest.raises(TransactionAborted) as caught:
        conn.query(READ, (1,))
    assert caught.value.reason == "promotion"
    with pytest.raises(RuntimeError, match="no open transaction"):
        conn.commit()
