"""Threaded live cluster: real threads, real blocking, same protocol.

The simulation proves timing behaviour; this deployment proves the
protocol under genuine preemptive interleaving.  It is the synchronous
driver plus two things: one cluster mutex around every protocol step (the
engines' and the scheduler's internal structures are not thread-safe),
and page-lock conflicts that block the calling thread on the lock-manager
grant — outside the mutex — exactly the way a database session thread
would.  Replication stays synchronous at commit (eager, as in the paper:
acks precede the commit response), and because a commit is one step under
the mutex, write-sets reach every slave's queues in commit order.

Python's GIL caps parallel speedup — use the simulation for performance
questions and this class when embedding the system under a threaded
application.
"""

from __future__ import annotations

import threading
from typing import Sequence, Tuple

from repro.common.errors import TransactionAborted
from repro.cluster.sync import SyncConnection, SyncDmvCluster
from repro.engine.engine import LockWait
from repro.engine.schema import TableSchema
from repro.sql.executor import ResultSet

#: Give up on a blocked statement after this long (likely a dead embedder).
LOCK_WAIT_TIMEOUT = 10.0


class ThreadedConnection(SyncConnection):
    """One session; safe for use by exactly one thread at a time.

    Each call is the synchronous connection's step run under the cluster
    mutex and returns its value directly (no effect wrapper).
    """

    def begin_read(self, tables: Sequence[str]) -> None:
        with self.cluster.mutex:
            super().begin_read(tables)

    def begin_update(self, tables: Sequence[str]) -> None:
        with self.cluster.mutex:
            super().begin_update(tables)

    def query(self, sql: str, params: Sequence = ()) -> ResultSet:
        """Execute one statement, blocking the thread on page-lock waits."""
        while True:
            with self.cluster.mutex:
                try:
                    return self._execute(sql, params)
                except LockWait as wait:
                    node_id = self._node.node_id
                    granted = threading.Event()
                    wait.request.on_grant(lambda _r: granted.set())
            # Wait OUTSIDE the mutex: the lock holder needs it to
            # commit/abort and thereby release the page lock.
            if not granted.wait(LOCK_WAIT_TIMEOUT):
                with self.cluster.mutex:
                    self._abort_silently(reason="lock-timeout")
                raise TransactionAborted(
                    f"lock wait timed out on {node_id}", reason="lock-timeout"
                )

    def commit(self) -> None:
        with self.cluster.mutex:
            super().commit()

    def abort(self) -> None:
        with self.cluster.mutex:
            super().abort()


class ThreadedDmvCluster(SyncDmvCluster):
    """Master + N slaves served by application threads."""

    def __init__(
        self,
        schemas: Sequence[TableSchema],
        num_slaves: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__(schemas, num_slaves=num_slaves, seed=seed)
        #: Serialises every protocol step (begin, one statement attempt,
        #: commit with its broadcast, abort) across application threads.
        self.mutex = threading.RLock()

    def connect(self) -> ThreadedConnection:
        return ThreadedConnection(self)

    def bulk_load(self, table: str, rows) -> int:
        with self.mutex:
            return super().bulk_load(table, rows)

    # -- convenience -----------------------------------------------------------------------
    def run_read(self, sql: str, params: Sequence = (), tables: Sequence[str] = ()) -> ResultSet:
        conn = self.connect()
        conn.begin_read(list(tables) or [s.name for s in self.schemas])
        result = conn.query(sql, params)
        conn.commit()
        return result

    def run_update(self, statements: Sequence[Tuple[str, Sequence]], tables: Sequence[str]) -> None:
        conn = self.connect()
        conn.begin_update(list(tables))
        for sql, params in statements:
            conn.query(sql, params)
        conn.commit()
