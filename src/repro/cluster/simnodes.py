"""Simulated cluster nodes: CPUs, caches, disks, failure semantics.

Every node owns a capacity-``cores`` CPU resource; statement execution runs
the *real* engine code and then holds the CPU for the service time the cost
model derives from the instrumented work.  One statement loop
(:meth:`SimNode.exec_statement`) serves both tiers; each tier only says what
a statement's counter delta costs (:meth:`~SimNode.statement_cost`).
In-memory nodes pay page-fault time for cache misses on the core; on-disk
nodes pay their I/O afterwards on a capacity-1 disk resource.

Failure injection marks the node dead, interrupts its in-flight jobs
(delivered to clients as :class:`NodeUnavailable`) and — for in-memory
nodes — models memory loss at reintegration time via the checkpoint-restore
path.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.common.errors import NodeUnavailable, TransactionAborted
from repro.cluster.costs import COST_COUNTERS, CostModel
from repro.cluster.node import ReplicaNode
from repro.core.writeset import WriteSet
from repro.disk.database import DiskDatabase
from repro.disk.wal import WAL_FSYNC_TIME, WriteAheadLog
from repro.engine.engine import LockWait
from repro.engine.schema import TableSchema
from repro.obs import NULL_SPAN, NULL_TRACER, Tracer
from repro.sim.kernel import Interrupt, Process, Simulator
from repro.sim.resources import Resource


class SimNode:
    """Base: CPU resource, liveness, tracked jobs."""

    def __init__(self, sim: Simulator, node_id: str, cost: CostModel) -> None:
        self.sim = sim
        self.node_id = node_id
        self.cost = cost
        self.cpu = Resource(sim, cost.config.cores_per_node)
        self.alive = True
        #: Service-time inflation factor (chaos ``slowdown`` fault).  1.0
        #: is a healthy node; a straggler's statement and replication
        #: charges are multiplied by this, which keeps heartbeats alive —
        #: a gray failure, not a fail-stop one.
        self.slowdown = 1.0
        self._jobs: Dict[Process, None] = {}

    def run_job(self, gen):
        """``result = yield from node.run_job(gen)``: timed work on this node in
        the calling process, started and handed back where a job process of
        its own would have been (DESIGN.md §11.6): at once if that is the
        very next dispatch, else behind what is queued."""
        if not self.alive:
            raise NodeUnavailable(f"node {self.node_id} is down")
        sim = self.sim
        if not sim.idle():
            yield sim.succeeded
        try:
            result = yield from self._guard(gen)
        except Exception:
            if not sim.idle():
                yield sim.succeeded
            raise
        if not sim.idle():
            yield sim.succeeded
        return result

    def job(self, gen, name: str = "job") -> Process:
        """``gen`` in a job process of its own (a fan-out branch); unawaited, it fails quietly."""
        if not self.alive:
            raise NodeUnavailable(f"node {self.node_id} is down")
        process = self.sim.spawn(self._guard(gen), name=f"{self.node_id}/{name}")
        process.defused = True
        return process

    def _guard(self, gen):
        """``gen`` as a job of :attr:`Simulator.active`: :meth:`fail` interrupts it."""
        process = self.sim.active
        self._jobs[process] = None
        try:
            return (yield from gen)
        except Interrupt:
            raise NodeUnavailable(f"node {self.node_id} failed mid-request")
        finally:
            self._jobs.pop(process, None)

    def fail(self) -> None:
        """Fail-stop: kill in-flight work, stop accepting jobs.

        Rolling in-flight transactions back keeps the (reused) Python
        objects consistent for reintegration.
        """
        self.alive = False
        for process in list(self._jobs):
            process.interrupt("node-failure")
        self._jobs.clear()
        self.engine.abort_all_active(reason="node-failure")

    def restart_resources(self) -> None:
        """Fresh CPU after a reboot (old grants died with the node)."""
        self.cpu = Resource(self.sim, self.cost.config.cores_per_node)
        self.alive = True

    # -- the statement step ---------------------------------------------------------------
    def statement_cost(self, delta: Mapping[str, float]) -> Tuple[float, float]:
        """``(cpu_seconds, disk_seconds)`` the counter ``delta`` of one step costs.

        The CPU part is paid on the core that did the work (a statement's
        times :attr:`slowdown`); the disk part, if any, after that core is
        released.  The one place the two tiers differ.
        """
        raise NotImplementedError

    def exec_statement(self, txn, sql: str, params: Sequence):
        """Execute one statement: real work, then virtual service time.

        Lock waits release the CPU, wait for the grant and retry the
        statement from its savepoint — the blocking the paper's master
        experiences under the ordering mix.  A lock-wait attempt is charged
        its :meth:`CostModel.statement_cpu` only: no fault, disk or slowdown.

        When the transaction carries a trace root (``txn.obs_span``), every
        attempt gets its own ``execute`` span; the root is swapped to the
        attempt span for the duration of the engine call so ``apply`` spans
        raised by lazy version materialisation nest under the statement
        that triggered them.
        """
        root = getattr(txn, "obs_span", NULL_SPAN)
        attempt = 0
        while True:
            if not txn.active:
                # Node-side reconfiguration (e.g. promotion) rolled this
                # transaction back between statements/retries.
                raise TransactionAborted(
                    f"txn {txn.txn_id} aborted by reconfiguration", reason="node-failure"
                )
            yield from self.cpu.acquire()
            holding = True
            span = NULL_SPAN
            if root.recording:
                span = root.child(
                    "execute",
                    node=self.node_id,
                    verb=sql.split(None, 1)[0].upper() if sql else "",
                    attempt=attempt,
                )
            attempt += 1
            try:
                before = self.counters.tally(COST_COUNTERS)
                savepoint = txn.savepoint()
                try:
                    if span.recording:
                        txn.obs_span = span
                    try:
                        result = self.sql.execute(txn, sql, tuple(params))
                    finally:
                        if span.recording:
                            txn.obs_span = root
                except LockWait as wait:
                    self.engine.rollback_to(txn, savepoint)
                    delta = self.counters.delta_of(COST_COUNTERS, before)
                    yield self.sim.timeout(self.cost.statement_cpu(delta))
                    span.finish(status="lock-wait")
                    holding = False
                    self.cpu.release()
                    granted = self.sim.event()
                    wait.request.on_grant(
                        lambda _r: None if granted.triggered else granted.succeed(None)
                    )
                    yield granted
                    continue
                cpu, disk = self.statement_cost(self.counters.delta_of(COST_COUNTERS, before))
                yield self.sim.timeout(cpu * self.slowdown)
                holding = False
                self.cpu.release()
                if disk > 0:
                    yield from self.disk.hold(disk)
                span.finish(status="ok")
                return result
            finally:
                if holding:
                    self.cpu.release()
                if not span.closed:
                    span.finish(status="interrupted")


#: Resident-page budget of a node without hot/cold tiering: larger than any
#: dataset, so its LRU cache never evicts.
ALL_RESIDENT = 1 << 30


class InMemoryDbNode(SimNode, ReplicaNode):
    """One replica of the in-memory DMV tier: a :class:`ReplicaNode` with a
    CPU, a cache model, a durable log and failure semantics."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        cost: CostModel,
        schemas: Sequence[TableSchema],
        cache_pages: int = ALL_RESIDENT,
        rows_per_page: int = 64,
        tracer: Tracer = NULL_TRACER,
        durable: bool = False,
    ) -> None:
        SimNode.__init__(self, sim, node_id, cost)
        ReplicaNode.__init__(
            self, node_id, schemas, now=sim.now, cache_pages=cache_pages,
            rows_per_page=rows_per_page,
        )
        self.tracer = tracer
        #: Durable-WAL mode: write-sets this node broadcasts or receives are
        #: appended to a local content-carrying redo log and forced before
        #: the ack, enabling restart-from-own-disk recovery.  The log object
        #: always exists (it moves no counters until used) so fault hooks
        #: and recovery helpers need no None checks.
        self.durable = durable
        self.wal = WriteAheadLog(self.counters, tracer=tracer)
        #: Set by the cluster's failure injection (for timeline reporting).
        self.failed_at: Optional[float] = None

    def statement_cost(self, delta: Mapping[str, float]) -> Tuple[float, float]:
        """CPU plus page-fault time, all on the core."""
        return self.cost.statement_cpu(delta) + self.cost.fault_time(delta), 0.0

    def deliver_write_set(self, write_set: WriteSet) -> str:
        """Synchronous receive bookkeeping: returns ``ok``/``dup``/``dead``.

        Split from the timed job so the replication channel can account the
        outcome exactly even if the node dies while the receive CPU charge
        is still elapsing: once this returns ``ok`` the write-set *is*
        buffered (and deduplicated), whatever happens to the ack.
        """
        if not self.alive or self.slave is None:
            return "dead"
        if self.slave.is_duplicate(write_set):
            self.counters.add("net.dups_ignored")
            return "dup"
        self.slave.receive_new(write_set)
        self.log_write_set(write_set)
        return "ok"

    def log_write_set(self, write_set: WriteSet) -> None:
        """Durable mode: append one write-set to the local WAL and force it.

        No-op unless the node is durable — the legacy tier must move no
        WAL counters.  Dup-filtered deliveries never reach this point, so
        each write-set is logged at most once per node.
        """
        if not self.durable:
            return
        self.wal.append_commit(
            write_set.txn_id,
            write_set.ops,
            versions=write_set.versions,
            master_id=write_set.master_id,
            seq=write_set.seq,
        )
        self.wal.fsync()

    def crash_durable_state(self) -> list:
        """Apply the WAL crash loss model; returns the lost records."""
        if not self.durable:
            return []
        return self.wal.crash()

    def receive_cost(self, op_count: int):
        """The replication thread's CPU charge for one received write-set.

        The replication thread interleaves with query execution rather than
        queueing behind whole statements — so the cost is charged as elapsed
        time without occupying a query core.  (Acks must return promptly or
        every master commit would stall behind the slowest slave's
        longest-running query.)
        """
        service = self.cost.receive_cpu(op_count) * self.slowdown
        if self.durable:
            service += WAL_FSYNC_TIME
        yield self.sim.timeout(service)

    def apply_cost(self, op_count: int):
        """CPU charge for eagerly applying buffered ops (forced drain)."""
        yield self.sim.timeout(self.cost.apply_cpu(op_count) * self.slowdown)

    # -- maintenance ----------------------------------------------------------------------
    def checkpoint(self) -> int:
        with self.tracer.span("flush", node=self.node_id, kind="checkpoint") as span:
            pages = self.checkpointer.full_checkpoint(self.engine.page_is_dirty)
            span.annotate(pages=pages)
        if self.durable and len(self.wal):
            self.wal.truncate_for_checkpoint(self.checkpoint_floor())
        return pages

    def copy_checkpoint_from(self, source: "InMemoryDbNode") -> int:
        """Take ``source``'s checkpoint of the identical database as this node's."""
        with self.tracer.span("flush", node=self.node_id, kind="checkpoint") as span:
            pages = self.checkpointer.copy_from(source.checkpointer)
            span.annotate(pages=pages)
        return pages

    def checkpoint_floor(self) -> Dict[str, int]:
        """Per-table version the checkpoint provably covers for every page.

        A WAL record at ``{table: v}`` is redundant only if *every* page it
        might touch is checkpointed at >= v, so the floor is the minimum
        image version per table — and 0 (covering nothing) for any table
        with a live page that has no checkpoint image at all.
        """
        floor: Dict[str, int] = {}
        for page_id, version in self.stable.version_map().items():
            current = floor.get(page_id.table)
            floor[page_id.table] = version if current is None else min(current, version)
        for page in self.engine.store.all_pages():
            if self.stable.load(page.page_id) is None:
                floor[page.page_id.table] = 0
        return floor


class DiskDbNode(SimNode):
    """One replica of the on-disk (InnoDB stand-in) tier."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        cost: CostModel,
        schemas: Sequence[TableSchema],
        pool_pages: int = 2048,
        rows_per_page: int = 64,
    ) -> None:
        super().__init__(sim, node_id, cost)
        self.db = DiskDatabase(
            node_id, pool_pages=pool_pages, now=sim.now, rows_per_page=rows_per_page
        )
        for schema in schemas:
            self.db.create_table(schema)
        self.counters = self.db.counters
        self.engine = self.db.engine
        self.sql = self.db.sql
        self.disk = Resource(sim, 1)
        #: Held from reading a backup's log cursor to advancing it
        #: (``SimDiskCluster._catch_up``), so no entry applies twice.
        self.replay_mutex = Resource(sim, 1)

    def statement_cost(self, delta: Mapping[str, float]) -> Tuple[float, float]:
        """CPU on the core, then random I/O, write-back and log forces on the disk."""
        return self.cost.statement_cpu(delta), self.cost.disk_time(delta)

    def commit_job(self, txn):
        """Commit: engine commit + WAL fsync through the disk resource.

        The commit's CPU is not charged, only its disk time.
        """
        yield from self.cpu.acquire()
        try:
            before = self.counters.tally(COST_COUNTERS)
            self.db.commit(txn)
            delta = self.counters.delta_of(COST_COUNTERS, before)
        finally:
            self.cpu.release()
        io_time = self.cost.disk_time(delta)
        if io_time > 0:
            yield from self.disk.hold(io_time)

    def replay(self, entries):
        """Replay logged updates in order (backup refresh, failover DB-update):
        read them off the log sequentially, then charge each like a statement.
        The caller holds :attr:`replay_mutex`."""
        yield from self.disk.hold(self.cost.sequential_disk(sum(e.byte_size() for e in entries)))
        for entry in entries:
            yield from self.cpu.acquire()
            try:
                before = self.counters.tally(COST_COUNTERS)
                self.db.apply_logged_update(entry)
                cpu, disk = self.statement_cost(self.counters.delta_of(COST_COUNTERS, before))
                yield self.sim.timeout(cpu)
            finally:
                self.cpu.release()
            if disk > 0:
                yield from self.disk.hold(disk)
