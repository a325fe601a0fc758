"""Threaded live cluster: real threads, real blocking, same protocol.

The simulation proves timing behaviour; this deployment proves the
protocol under genuine preemptive interleaving.  Each node is guarded by a
mutex (the engine's internal structures are not thread-safe); page-lock
conflicts block the calling thread on the lock-manager grant exactly the
way a database session thread would.  Replication stays synchronous at
commit (eager, as in the paper: acks precede the commit response).

Python's GIL caps parallel speedup — use the simulation for performance
questions and this class when embedding the system under a threaded
application.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.counters import Counters
from repro.common.errors import NodeUnavailable, TransactionAborted
from repro.common.rng import RngStream
from repro.core.conflictclass import ConflictClassMap
from repro.core.master import MasterReplica
from repro.core.slave import SlaveReplica
from repro.engine.engine import HeapEngine, LockWait, TwoPhaseLocking, bulk_load_replicas
from repro.engine.schema import TableSchema
from repro.scheduler.versionaware import VersionAwareScheduler
from repro.sql.executor import ResultSet, SqlExecutor

#: Give up on a blocked statement after this long (likely a dead embedder).
LOCK_WAIT_TIMEOUT = 10.0


class ThreadedNode:
    """One replica plus the mutex serialising access to its engine."""

    def __init__(self, node_id: str, schemas: Sequence[TableSchema]) -> None:
        self.node_id = node_id
        self.mutex = threading.RLock()
        self.counters = Counters()
        self.engine = HeapEngine(counters=self.counters, name=node_id)
        for schema in schemas:
            self.engine.create_table(schema)
        self.sql = SqlExecutor(self.engine)
        self.master: Optional[MasterReplica] = None
        self.slave: Optional[SlaveReplica] = None

    def execute_blocking(self, txn, sql: str, params: Sequence) -> ResultSet:
        """Execute one statement, blocking the thread on page-lock waits."""
        while True:
            with self.mutex:
                savepoint = txn.savepoint()
                try:
                    return self.sql.execute(txn, sql, tuple(params))
                except LockWait as wait:
                    self.engine.rollback_to(txn, savepoint)
                    granted = threading.Event()
                    wait.request.on_grant(lambda _r: granted.set())
            # Wait OUTSIDE the node mutex: the lock holder needs it to
            # commit/abort and thereby release the page lock.
            if not granted.wait(LOCK_WAIT_TIMEOUT):
                with self.mutex:
                    self.engine.abort(txn, reason="lock-timeout")
                raise TransactionAborted(
                    f"lock wait timed out on {self.node_id}", reason="lock-timeout"
                )


class ThreadedConnection:
    """One session; safe for use by exactly one thread at a time."""

    def __init__(self, cluster: "ThreadedDmvCluster") -> None:
        self.cluster = cluster
        self._node: Optional[ThreadedNode] = None
        self._txn = None
        self._is_update = False
        self._queries: List[Tuple[str, Tuple]] = []

    # -- transaction control ----------------------------------------------------
    def begin_read(self, tables: Sequence[str]) -> None:
        if self._txn is not None:
            raise RuntimeError("transaction already open")
        with self.cluster.sched_mutex:
            routed = self.cluster.scheduler.route_read(list(tables))
        node = self.cluster.node(routed.node_id)
        with node.mutex:
            self._txn = node.slave.begin_read_only(routed.tag)
        self._node = node
        self._is_update = False

    def begin_update(self, tables: Sequence[str]) -> None:
        if self._txn is not None:
            raise RuntimeError("transaction already open")
        with self.cluster.sched_mutex:
            master_id = self.cluster.scheduler.route_update(list(tables))
        node = self.cluster.node(master_id)
        with node.mutex:
            self._txn = node.master.begin_update(write_tables=tables)
        self._node = node
        self._is_update = True
        self._queries = []

    def query(self, sql: str, params: Sequence = ()) -> ResultSet:
        if self._txn is None:
            raise RuntimeError("no open transaction")
        try:
            result = self._node.execute_blocking(self._txn, sql, params)
        except TransactionAborted:
            # Deadlock victim / timeout: roll back so locks are released.
            node, txn = self._node, self._txn
            self._forget()
            with node.mutex:
                node.engine.abort(txn)
            if not self._is_update:
                with self.cluster.sched_mutex:
                    self.cluster.scheduler.note_read_done(node.node_id)
            raise
        if self._is_update and not sql.lstrip().lower().startswith("select"):
            self._queries.append((sql, tuple(params)))
        return result

    def commit(self) -> None:
        node, txn = self._node, self._txn
        if txn is None:
            raise RuntimeError("no open transaction")
        self._node = self._txn = None
        if not self._is_update:
            with node.mutex:
                node.engine.commit(txn)
            with self.cluster.sched_mutex:
                self.cluster.scheduler.note_read_done(node.node_id)
            return
        self.cluster.commit_update(node, txn, self._queries)
        self._queries = []

    def abort(self) -> None:
        node, txn = self._node, self._txn
        self._forget()
        if txn is None:
            return
        with node.mutex:
            node.engine.abort(txn)
        if not self._is_update:
            with self.cluster.sched_mutex:
                self.cluster.scheduler.note_read_done(node.node_id)

    def _forget(self) -> None:
        self._node = self._txn = None


class ThreadedDmvCluster:
    """Master + N slaves served by application threads."""

    def __init__(
        self,
        schemas: Sequence[TableSchema],
        num_slaves: int = 2,
        seed: int = 0,
    ) -> None:
        self.schemas = list(schemas)
        table_names = [s.name for s in self.schemas]
        conflict_map = ConflictClassMap.single_class(table_names)
        conflict_map.assign_masters(["m0"])
        self.scheduler = VersionAwareScheduler(
            "sched0", conflict_map, rng=RngStream(seed, "threaded-sched")
        )
        self.sched_mutex = threading.Lock()
        #: Serialises the pre-commit broadcast so per-table write-set
        #: versions reach every slave's queues in commit order.
        self.commit_mutex = threading.Lock()
        self.nodes: Dict[str, ThreadedNode] = {}
        master = ThreadedNode("m0", self.schemas)
        master.engine.set_controller(TwoPhaseLocking())
        master.master = MasterReplica("m0", engine=master.engine, counters=master.counters)
        self.nodes["m0"] = master
        for i in range(num_slaves):
            node = ThreadedNode(f"s{i}", self.schemas)
            node.slave = SlaveReplica(f"s{i}", engine=node.engine, counters=node.counters)
            self.nodes[node.node_id] = node
            self.scheduler.add_slave(node.node_id)

    def node(self, node_id: str) -> ThreadedNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise NodeUnavailable(f"no node {node_id}")
        return node

    def connect(self) -> ThreadedConnection:
        return ThreadedConnection(self)

    def bulk_load(self, table: str, rows) -> int:
        with contextlib.ExitStack() as held:
            for node in self.nodes.values():
                held.enter_context(node.mutex)
            engines = [node.engine for node in self.nodes.values()]
            return bulk_load_replicas(engines, table, rows)

    # -- replication -------------------------------------------------------------------
    def commit_update(self, node: ThreadedNode, txn, queries) -> None:
        """Pre-commit + synchronous eager broadcast, in commit order."""
        with self.commit_mutex:
            with node.mutex:
                write_set = node.master.pre_commit(txn)
            if write_set is not None:
                for target in self.nodes.values():
                    if target.slave is None:
                        continue
                    with target.mutex:
                        target.slave.receive(write_set)
                with self.sched_mutex:
                    self.scheduler.on_master_commit(
                        node.node_id, write_set.versions, queries, txn.txn_id
                    )
                with node.mutex:
                    node.master.finalize(txn)

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
        try:
            for sql, params in statements:
                conn.query(sql, params)
        except TransactionAborted:
            raise
        conn.commit()
