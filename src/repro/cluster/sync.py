"""Embedded synchronous DMV cluster — the library's front door.

Everything runs in-process with replication performed inline at commit
time: a faithful, timing-free execution of the protocol.  Use it to embed
the system, to prototype workloads, and to drive the TPC-W interactions
without the simulator::

    cluster = SyncDmvCluster(schemas=TPCW_SCHEMAS, num_slaves=4)
    cluster.load(TpcwDataGenerator(TpcwScale(num_items=100)))
    conn = cluster.connect()
    result = run_sync(interactions.home(conn, ctx))
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.counters import Counters
from repro.common.errors import NodeUnavailable, TransactionAborted
from repro.common.rng import RngStream
from repro.common.versions import VersionVector
from repro.cluster.interest import InterestRegistry
from repro.cluster.node import ReplicaNode
from repro.cluster.protocol import (
    account_batch,
    assign_masters,
    assign_roles,
    cleanup_scope,
    fan_out,
    inherited_tables,
    promote,
    rejoin_support,
    successor_candidates,
)
from repro.core.conflictclass import ConflictClassMap
from repro.disk.database import DiskDatabase
from repro.engine.engine import LockWait, bulk_load_replicas
from repro.engine.schema import TableSchema
from repro.failover.recovery import cleanup_after_master_failure, elect_new_master
from repro.failover.reintegration import integrate_stale_node, restore_from_checkpoint
from repro.scheduler.versionaware import VersionAwareScheduler
from repro.sql.executor import ResultSet, is_write_statement
from repro.storage.checkpoint import FuzzyCheckpointer, StableStore
from repro.tpcw.connection import Connection, Immediate
from repro.tpcw.datagen import datagen_tables


class SyncConnection(Connection):
    """A connection whose effects resolve immediately (see run_sync)."""

    def __init__(self, cluster: "SyncDmvCluster") -> None:
        self.cluster = cluster
        self._node: Optional[ReplicaNode] = None
        self._txn = None
        self._is_update = False
        self._queries: List[Tuple[str, Tuple]] = []

    # -- effect-producing methods ----------------------------------------------------
    def begin_read(self, tables: Sequence[str]) -> Immediate:
        if self._txn is not None:
            raise RuntimeError("transaction already open on this connection")
        routed = self.cluster.scheduler.route_read(list(tables))
        node = self.cluster.node(routed.node_id)
        self._node = node
        self._is_update = False
        # The router's master fallback (no slave to serve the read): the
        # master's engine is current by construction.
        self._txn = (
            node.slave.begin_read_only(routed.tag)
            if node.slave is not None
            else node.master.begin_read_only()
        )
        return Immediate(None)

    def begin_update(self, tables: Sequence[str]) -> Immediate:
        if self._txn is not None:
            raise RuntimeError("transaction already open on this connection")
        master_id = self.cluster.scheduler.route_update(list(tables))
        node = self.cluster.node(master_id)
        self._node = node
        self._is_update = True
        self._queries = []
        self._txn = node.master.begin_update(write_tables=tables)
        return Immediate(None)

    def _execute(self, sql: str, params: Sequence) -> ResultSet:
        """One statement attempt.  A page-lock conflict undoes the attempt
        and raises :class:`LockWait`; any other abort rolls the whole
        transaction back so its locks are released."""
        if self._txn is None:
            raise RuntimeError("no open transaction")
        self._raise_if_aborted()
        savepoint = self._txn.savepoint()
        try:
            result = self._node.sql.execute(self._txn, sql, tuple(params))
        except LockWait:
            self._node.engine.rollback_to(self._txn, savepoint)
            raise
        except TransactionAborted:
            self._abort_silently()
            raise
        if self._is_update and is_write_statement(sql):
            self._queries.append((sql, tuple(params)))
        return result

    def query(self, sql: str, params: Sequence = ()) -> Immediate:
        try:
            return Immediate(self._execute(sql, params))
        except LockWait:
            # Synchronous mode cannot suspend: surface as a retriable abort.
            self._abort_silently()
            raise TransactionAborted(
                "lock conflict in embedded mode (another connection holds the page)",
                reason="lock-wait",
            )

    def commit(self) -> Immediate:
        if self._txn is None:
            raise RuntimeError("no open transaction")
        self._raise_if_aborted()
        node, txn = self._node, self._txn
        self._node = self._txn = None
        if not self._is_update:
            node.engine.commit(txn)
            self.cluster.scheduler.note_read_done(node.node_id)
            return Immediate(None)
        try:
            write_set = node.master.pre_commit(txn)
        except TransactionAborted as exc:
            # OCC read-set validation failed: the transaction is still
            # ACTIVE and already detached from this connection — roll it
            # back here so its X locks are released before the retry.
            node.engine.abort(txn, reason=exc.reason)
            raise
        if write_set is not None:
            self.cluster.broadcast(write_set, exclude=node.node_id)
            self.cluster.scheduler.on_master_commit(
                node.node_id, write_set.versions, self._queries, txn.txn_id
            )
            node.master.finalize(txn)
        self._queries = []
        if write_set is not None:
            # Persistence is asynchronous in the paper: the commit response
            # returns once the queries are logged; disk replicas catch up
            # from the log and a transient failure there must never wedge
            # the in-memory tier.
            self.cluster.persist()
        return Immediate(None)

    def abort(self) -> Immediate:
        self._abort_silently()
        return Immediate(None)

    def _raise_if_aborted(self) -> None:
        """A transaction aborted under this connection (e.g. by a master
        failover) fails its next call with the abort's reason and leaves
        the connection free."""
        reason = self._txn.abort_reason
        if reason is not None:
            txn_id = self._txn.txn_id
            self._abort_silently()
            raise TransactionAborted(f"txn {txn_id} was aborted: {reason}", reason=reason)

    def _abort_silently(self, reason: str = "abort") -> None:
        if self._txn is None:
            return
        node, txn = self._node, self._txn
        self._node = self._txn = None
        node.engine.abort(txn, reason=reason)
        if not self._is_update:
            self.cluster.scheduler.note_read_done(node.node_id)


class SyncDmvCluster:
    """Master + N slaves (+ spares) + scheduler + optional disk backends."""

    def __init__(
        self,
        schemas: Sequence[TableSchema],
        num_slaves: int = 2,
        num_spares: int = 0,
        conflict_map: Optional[ConflictClassMap] = None,
        multi_master: bool = False,
        num_disk_backends: int = 0,
        seed: int = 0,
        now: Optional[Callable[[], float]] = None,
    ) -> None:
        # Embedded replication is inline, so there is no ack to wait for and
        # no ack policy to choose: a demoted slave is skipped entirely and
        # must re-integrate via data migration (:meth:`rejoin_slave`).
        self.counters = Counters()
        self.schemas = list(schemas)
        # Embedded clusters default to wall-clock time so date-ordered
        # application queries (e.g. "most recent order") behave naturally.
        self.now = now if now is not None else time.time
        table_names = [s.name for s in self.schemas]
        if conflict_map is None:
            conflict_map = ConflictClassMap.single_class(table_names)
        self.conflict_map = conflict_map
        master_ids = assign_masters(conflict_map, multi_master)
        self.scheduler = VersionAwareScheduler(
            "sched0", conflict_map, rng=RngStream(seed, "scheduler")
        )
        #: Interest sets are a simulated-cluster feature; embedded replicas
        #: all subscribe to everything.
        self.interest = InterestRegistry()
        self.nodes: Dict[str, ReplicaNode] = assign_roles(
            conflict_map, table_names, master_ids, num_slaves, num_spares,
            lambda node_id, _role: ReplicaNode(node_id, self.schemas, now=self.now),
            [self.scheduler],
        )
        self.disk_backends: List[DiskDatabase] = []
        for i in range(num_disk_backends):
            db = DiskDatabase(f"disk{i}", now=self.now)
            for schema in self.schemas:
                db.create_table(schema)
            self.disk_backends.append(db)
            self.scheduler.query_log.set_cursor(db.node_id, 0)

    # -- data loading -------------------------------------------------------------------
    def bulk_load(self, table: str, rows) -> int:
        engines = [handle.engine for handle in self.nodes.values()]
        engines += [db.engine for db in self.disk_backends]
        return bulk_load_replicas(engines, table, rows)

    def load(self, datagen) -> Dict[str, int]:
        """Populate every replica identically from a data generator."""
        counts: Dict[str, int] = {}
        for table, rows in datagen_tables(datagen):
            counts[table] = self.bulk_load(table, rows)
        return counts

    # -- connections ---------------------------------------------------------------------
    def connect(self) -> SyncConnection:
        return SyncConnection(self)

    def node(self, node_id: str) -> ReplicaNode:
        handle = self.nodes.get(node_id)
        if handle is None or not handle.alive:
            raise NodeUnavailable(f"node {node_id} is unavailable")
        return handle

    # -- replication plumbing ---------------------------------------------------------------
    def broadcast(self, write_set, exclude: str) -> None:
        """Deliver one pre-commit write-set to every target the shared
        fan-out rule names (:func:`~repro.cluster.protocol.fan_out`).

        Embedded mode has no wire, but the accounting matches the simulated
        tier: one framed batch per slave per commit.
        """
        for target, frame in fan_out(self.nodes, exclude, write_set, self.interest):
            target.slave.receive(frame)
            target.counters.add("net.write_sets_sent")
            account_batch(target.counters, [frame])
        demoted = sum(1 for node in self.nodes.values() if self._is_demoted(node))
        if demoted:
            self.counters.add("net.acks_skipped_demoted", demoted)

    def persist(self) -> None:
        """Drain the scheduler's query log onto the on-disk backends.

        Cursor-based and best-effort: a replica that cannot apply right now
        (e.g. a lock held by an embedding application) simply stays behind
        and catches up on the next drain — mirroring the paper's
        asynchronous persistence tier.
        """
        log = self.scheduler.query_log
        for db in self.disk_backends:
            for entry in log.pending_for(db.node_id):
                try:
                    db.apply_logged_update(entry)
                except (LockWait, TransactionAborted):
                    break
                log.advance(db.node_id, 1)

    # -- convenience one-shot helpers --------------------------------------------------------
    def run_read(self, sql: str, params: Sequence = (), tables: Sequence[str] = ()) -> ResultSet:
        conn = self.connect()
        conn.begin_read(list(tables) or [s.name for s in self.schemas])
        result = conn.query(sql, params).value
        conn.commit()
        return result

    def run_update(self, statements: Sequence[Tuple[str, Sequence]], tables: Sequence[str]) -> None:
        conn = self.connect()
        conn.begin_update(list(tables))
        try:
            for sql, params in statements:
                conn.query(sql, params)
            conn.commit()
        except TransactionAborted:
            conn.abort()
            raise

    # -- failure injection & reconfiguration ---------------------------------------------------
    def kill_slave(self, node_id: str) -> None:
        handle = self.node(node_id)
        if handle.slave is None or handle.master is not None:
            raise NodeUnavailable(f"{node_id} is not a slave")
        handle.alive = False
        handle.engine.abort_all_active(reason="node-failure")
        self.scheduler.remove_node(node_id)

    def kill_master(self, master_id: str) -> str:
        """Kill a master and run the §4.2 recovery; returns the new master id."""
        handle = self.node(master_id)
        if handle.master is None:
            raise NodeUnavailable(f"{master_id} is not a master")
        handle.alive = False
        handle.engine.abort_all_active(reason="node-failure")
        confirmed = self.scheduler.latest.copy()
        cleanup_vector, failed_tables = cleanup_scope(
            self.conflict_map, master_id, confirmed
        )
        survivors = [n for n in self.nodes.values() if n.alive and n.slave is not None]
        cleanup_after_master_failure(
            [n.slave for n in survivors if n.subscribed], cleanup_vector
        )
        new_slave = elect_new_master(
            successor_candidates(survivors, failed_tables, self.interest, self._is_spare)
        )
        promote(
            self.nodes[new_slave.node_id],
            confirmed,
            inherited_tables(self.nodes, self.conflict_map, master_id),
        )
        self.scheduler.on_master_failure(master_id, new_slave.node_id)
        return new_slave.node_id

    def _is_spare(self, node_id: str) -> bool:
        state = self.scheduler.slaves.get(node_id)
        return bool(state and state.spare)

    def promote_spare(self, node_id: str) -> None:
        self.scheduler.promote_spare(node_id)

    # -- laggard demotion (operator-driven in embedded mode) -----------------------------------
    def demote_slave(self, node_id: str) -> None:
        """Exclude a pure slave from replication and fresh-version routing.

        Embedded mode has no latency signal, so demotion is an operator
        decision (e.g. the host process noticed the replica's thread pool
        is saturated).  Buffered-but-unconfirmed write-sets are discarded
        so everything the demoted node holds is confirmed history; it
        stops receiving broadcasts and must come back via
        :meth:`rejoin_slave`'s data migration.
        """
        handle = self.node(node_id)
        if handle.slave is None or handle.master is not None:
            raise NodeUnavailable(f"{node_id} is not a pure slave")
        if not handle.subscribed:
            return
        if not any(
            h.node_id != node_id
            and h.master is None
            and h.alive
            and h.slave is not None
            and h.subscribed
            for h in self.nodes.values()
        ):
            raise NodeUnavailable(f"cannot demote {node_id}: no other slave remains")
        handle.slave.discard_above(self.scheduler.latest)
        handle.subscribed = False
        self.scheduler.set_demoted(node_id, True)
        self.counters.add("slave.demotions")

    @staticmethod
    def _is_demoted(node: ReplicaNode) -> bool:
        """Embedded replicas have no stale-backup role: an alive slave that
        is unsubscribed is a demoted one."""
        return node.alive and node.slave is not None and not node.subscribed

    def _migration_source(self, support_id: Optional[str], joiner_id: str) -> ReplicaNode:
        """The named support, else the shared rule's ``all`` pick: inline
        replication leaves every subscribed slave holding every commit."""
        if support_id is not None:
            return self.node(support_id)
        support = rejoin_support(self.nodes, joiner_id, self.interest, "all")
        if support is None:
            raise NodeUnavailable(f"no replica can feed {joiner_id}'s data migration")
        return support

    def rejoin_slave(self, node_id: str, support_id: Optional[str] = None) -> None:
        """Re-integrate a demoted slave via §4.4 data migration."""
        handle = self.node(node_id)
        if not self._is_demoted(handle):
            return
        support = self._migration_source(support_id, node_id)
        handle.subscribed = True
        handle.slave.catching_up = True
        integrate_stale_node(handle.slave, support.slave)
        self.scheduler.set_demoted(node_id, False)
        self.counters.add("slave.rejoins")

    def reintegrate(self, node_id: str, support_id: Optional[str] = None, spare: bool = False):
        """Bring a failed node back as a slave via data migration."""
        handle = self.nodes[node_id]
        support = self._migration_source(support_id, node_id)
        handle.alive = True
        # Reboot: fresh engine state rebuilt from the node's checkpoint.
        handle.make_slave()
        handle.subscribed = True
        restore_from_checkpoint(handle.slave, handle.stable)
        stats = integrate_stale_node(handle.slave, support.slave)
        self.scheduler.add_slave(node_id, spare=spare)
        return stats

    # -- checkpoint persistence ------------------------------------------------------------------
    def save_node_checkpoint(self, node_id: str, path: str) -> int:
        """Checkpoint a node and persist the images to ``path`` (JSON lines).

        Gives embedded deployments a durable per-node restart image; pair
        with :meth:`reintegrate_from_file` after a process restart.
        """
        handle = self.node(node_id)
        handle.checkpoint()
        return handle.stable.save_to(path)

    def reintegrate_from_file(self, node_id: str, path: str, support_id: Optional[str] = None):
        """Reintegrate a node whose checkpoint was saved with
        :meth:`save_node_checkpoint` (possibly by a previous process)."""
        handle = self.nodes[node_id]
        handle.stable = StableStore.load_from(path)
        handle.checkpointer = FuzzyCheckpointer(handle.engine.store, handle.stable)
        return self.reintegrate(node_id, support_id=support_id)

    # -- introspection ------------------------------------------------------------------------
    def latest_versions(self) -> VersionVector:
        return self.scheduler.latest.copy()

    def master_ids(self) -> List[str]:
        return sorted(h.node_id for h in self.nodes.values() if h.master is not None and h.alive)

    def slave_ids(self) -> List[str]:
        return sorted(
            h.node_id
            for h in self.nodes.values()
            if h.slave is not None and h.master is None and h.alive
        )

