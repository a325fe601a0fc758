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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.counters import Counters
from repro.common.errors import NodeUnavailable, TransactionAborted
from repro.common.rng import RngStream
from repro.common.versions import VersionVector
from repro.core.conflictclass import ConflictClassMap
from repro.core.dual import DualController
from repro.core.master import MasterReplica
from repro.core.slave import SlaveReplica
from repro.disk.database import DiskDatabase
from repro.engine.engine import HeapEngine, LockWait, bulk_load_replicas, make_update_controller
from repro.engine.schema import TableSchema
from repro.failover.recovery import (
    cleanup_after_master_failure,
    elect_new_master,
    promote_slave_to_master,
)
from repro.failover.reintegration import integrate_stale_node
from repro.scheduler.versionaware import VersionAwareScheduler
from repro.sql.executor import ResultSet, SqlExecutor
from repro.storage.checkpoint import FuzzyCheckpointer, StableStore
from repro.tpcw.connection import Connection, Immediate


class NodeHandle:
    """One in-memory replica: engine + optional master/slave roles."""

    def __init__(self, node_id: str, schemas: Sequence[TableSchema], now: Callable[[], float]) -> None:
        self.node_id = node_id
        self.counters = Counters()
        self.engine = HeapEngine(counters=self.counters, name=node_id)
        for schema in schemas:
            self.engine.create_table(schema)
        self.sql = SqlExecutor(self.engine, now=now)
        self.master: Optional[MasterReplica] = None
        self.slave: Optional[SlaveReplica] = None
        self.stable = StableStore(self.counters)
        self.checkpointer = FuzzyCheckpointer(self.engine.store, self.stable)
        self.alive = True

    def checkpoint(self) -> int:
        """Run one full fuzzy checkpoint (skipping uncommitted pages)."""
        return self.checkpointer.full_checkpoint(self.engine.page_is_dirty)


class SyncConnection(Connection):
    """A connection whose effects resolve immediately (see run_sync)."""

    def __init__(self, cluster: "SyncDmvCluster") -> None:
        self.cluster = cluster
        self._node: Optional[NodeHandle] = None
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
        if node.slave is not None:
            self._txn = node.slave.begin_read_only(routed.tag)
        else:  # read allowed on a master outside its conflict classes
            self._txn = node.master.begin_read_only()
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

    def query(self, sql: str, params: Sequence = ()) -> Immediate:
        if self._txn is None:
            raise RuntimeError("no open transaction")
        try:
            result = self._node.sql.execute(self._txn, sql, tuple(params))
        except LockWait:
            # Synchronous mode cannot suspend: surface as a retriable abort.
            self._abort_silently()
            raise TransactionAborted(
                "lock conflict in embedded mode (another connection holds the page)",
                reason="lock-wait",
            )
        except TransactionAborted:
            self._abort_silently()
            raise
        if self._is_update and not sql.lstrip().lower().startswith("select"):
            self._queries.append((sql, tuple(params)))
        return Immediate(result)

    def commit(self) -> Immediate:
        if self._txn is None:
            raise RuntimeError("no open transaction")
        node, txn = self._node, self._txn
        self._node = self._txn = None
        if not self._is_update:
            node.engine.commit(txn)
            self.cluster.scheduler.note_read_done(node.node_id)
            return Immediate(None)
        write_set = node.master.pre_commit(txn)
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

    def _abort_silently(self) -> None:
        if self._txn is None:
            return
        node, txn = self._node, self._txn
        self._node = self._txn = None
        node.engine.abort(txn)
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
        ack_policy: str = "all",
        quorum_k: int = 1,
        read_concurrency: str = "2pl",
    ) -> None:
        if ack_policy not in ("all", "quorum", "all-healthy"):
            raise ValueError(f"unknown ack policy {ack_policy!r}")
        #: Update-path concurrency control.  The synchronous trampoline has
        #: no statement-retry loop around pre-commit aborts, so the legacy
        #: blocking 2PL path stays the default here; the simulated cluster
        #: (where the perf matters) defaults to OCC via its cost config.
        self.read_concurrency = read_concurrency
        #: Pre-commit acknowledgement policy.  Embedded replication is
        #: inline (there is no ack to wait for), so the policy governs the
        #: *membership* semantics: under ``all`` a demoted slave still
        #: receives every write-set; under ``quorum``/``all-healthy`` a
        #: demoted slave is skipped entirely and must re-integrate via
        #: data migration (:meth:`rejoin_slave`).
        self.ack_policy = ack_policy
        self.quorum_k = max(1, quorum_k)
        self.counters = Counters()
        self._demoted: set = set()
        self.schemas = list(schemas)
        # Embedded clusters default to wall-clock time so date-ordered
        # application queries (e.g. "most recent order") behave naturally.
        import time

        self.now = now if now is not None else time.time
        self.nodes: Dict[str, NodeHandle] = {}
        table_names = [s.name for s in self.schemas]
        if conflict_map is None:
            conflict_map = ConflictClassMap.single_class(table_names)
        self.conflict_map = conflict_map
        num_masters = min(conflict_map.num_classes, 2) if multi_master else 1
        master_ids = [f"m{i}" for i in range(num_masters)]
        conflict_map.assign_masters(master_ids)
        self.scheduler = VersionAwareScheduler(
            "sched0", conflict_map, rng=RngStream(seed, "scheduler")
        )
        for master_id in master_ids:
            handle = NodeHandle(master_id, self.schemas, self.now)
            owned = {
                t for t in table_names
                if conflict_map.master_of_class(conflict_map.class_of(t)) == master_id
            }
            if multi_master and len(master_ids) > 1:
                slave = SlaveReplica(master_id, engine=handle.engine, counters=handle.counters)
                handle.engine.set_controller(
                    DualController(owned, slave, read_concurrency=read_concurrency)
                )
                handle.slave = slave
            else:
                handle.engine.set_controller(make_update_controller(read_concurrency))
            handle.master = MasterReplica(master_id, engine=handle.engine, counters=handle.counters)
            self.nodes[master_id] = handle
        for i in range(num_slaves):
            self._add_slave(f"s{i}", spare=False)
        for i in range(num_spares):
            self._add_slave(f"spare{i}", spare=True)
        self.disk_backends: List[DiskDatabase] = []
        for i in range(num_disk_backends):
            db = DiskDatabase(f"disk{i}", now=self.now)
            for schema in self.schemas:
                db.create_table(schema)
            self.disk_backends.append(db)

    def _add_slave(self, node_id: str, spare: bool) -> NodeHandle:
        handle = NodeHandle(node_id, self.schemas, self.now)
        handle.slave = SlaveReplica(node_id, engine=handle.engine, counters=handle.counters)
        self.nodes[node_id] = handle
        self.scheduler.add_slave(node_id, spare=spare)
        return handle

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

    def node(self, node_id: str) -> NodeHandle:
        handle = self.nodes.get(node_id)
        if handle is None or not handle.alive:
            raise NodeUnavailable(f"node {node_id} is unavailable")
        return handle

    # -- replication plumbing ---------------------------------------------------------------
    def broadcast(self, write_set, exclude: str) -> None:
        """Deliver one pre-commit write-set to every live slave.

        Embedded mode has no wire, but the accounting matches the simulated
        tier: one framed batch per slave per commit, with the (memoized)
        write-set size computed once for the whole broadcast rather than
        re-encoded per hop.
        """
        size = write_set.byte_size()
        saved = write_set.bytes_saved()
        for handle in self.nodes.values():
            if handle.node_id == exclude or not handle.alive or handle.slave is None:
                continue
            if handle.node_id in self._demoted:
                self.counters.add("net.acks_skipped_demoted")
                continue
            handle.slave.receive(write_set)
            handle.counters.add("net.batches")
            handle.counters.add("net.write_sets_sent")
            handle.counters.add("net.bytes_shipped", size)
            if saved:
                handle.counters.add("net.bytes_saved_delta", saved)

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
        try:
            result = conn.query(sql, params).value
            conn.commit()
            return result
        except TransactionAborted:
            raise

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
        survivors = [
            h.slave
            for h in self.nodes.values()
            if h.alive and h.slave is not None and h.master is None
            and not self._is_spare(h.node_id)
            and h.node_id not in self._demoted
        ]
        confirmed = self.scheduler.latest.copy()
        cleanup_after_master_failure(
            [
                h.slave
                for h in self.nodes.values()
                if h.alive and h.slave is not None
                and h.node_id not in self._demoted
            ],
            confirmed,
        )
        new_slave = elect_new_master(survivors)
        new_handle = self.nodes[new_slave.node_id]
        new_handle.master = promote_slave_to_master(
            new_slave, confirmed, read_concurrency=self.read_concurrency
        )
        new_handle.slave = None
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
        if node_id in self._demoted:
            return
        peers = [
            h
            for h in self.nodes.values()
            if h.alive and h.slave is not None and h.master is None
            and h.node_id != node_id and h.node_id not in self._demoted
        ]
        if not peers:
            raise NodeUnavailable(f"cannot demote {node_id}: no other slave remains")
        handle.slave.discard_above(self.scheduler.latest)
        self._demoted.add(node_id)
        self.scheduler.set_demoted(node_id, True)
        self.counters.add("slave.demotions")

    def rejoin_slave(self, node_id: str, support_id: Optional[str] = None) -> None:
        """Re-integrate a demoted slave via §4.4 data migration."""
        handle = self.node(node_id)
        if node_id not in self._demoted:
            return
        if support_id is None:
            support_id = next(
                h.node_id
                for h in self.nodes.values()
                if h.alive and h.slave is not None and h.node_id != node_id
                and h.node_id not in self._demoted
            )
        support = self.node(support_id)
        self._demoted.discard(node_id)
        handle.slave.catching_up = True
        integrate_stale_node(handle.slave, support.slave)
        self.scheduler.set_demoted(node_id, False)
        self.counters.add("slave.rejoins")

    def reintegrate(self, node_id: str, support_id: Optional[str] = None, spare: bool = False):
        """Bring a failed node back as a slave via data migration."""
        handle = self.nodes[node_id]
        if support_id is None:
            support_id = next(
                h.node_id
                for h in self.nodes.values()
                if h.alive and h.slave is not None and h.node_id != node_id
            )
        support = self.node(support_id)
        handle.alive = True
        # Reboot: fresh engine state rebuilt from the node's checkpoint.
        slave = SlaveReplica(node_id, engine=handle.engine, counters=handle.counters)
        handle.slave = slave
        handle.master = None
        from repro.failover.reintegration import restore_from_checkpoint

        restore_from_checkpoint(slave, handle.stable)
        stats = integrate_stale_node(slave, support.slave)
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
        from repro.storage.checkpoint import StableStore

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


def datagen_tables(datagen):
    """Yield (table, rows-iterable) pairs from a TPC-W data generator."""
    yield ("country", list(datagen.countries()))
    yield ("author", list(datagen.authors()))
    yield ("address", list(datagen.addresses()))
    yield ("customer", list(datagen.customers()))
    yield ("item", list(datagen.items()))
    yield ("orders", list(datagen.orders()))
    yield ("order_line", list(datagen.order_lines()))
    yield ("cc_xacts", list(datagen.cc_xacts()))
    yield ("shopping_cart", [])
    yield ("shopping_cart_line", [])
