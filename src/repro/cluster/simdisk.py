"""The simulated on-disk baseline tier.

Two configurations, exactly as the paper evaluates them:

* **stand-alone** — one InnoDB-like node serving the whole workload with
  serializable 2PL, a bounded buffer pool and per-commit log forces
  (the Figure 3 baseline);
* **replicated** — two active replicas kept consistent by a conflict-aware
  scheduler (updates are ordered by the scheduler's coarse-grained
  concurrency control and applied write-all) plus one passive backup
  refreshed from the update log every ``refresh_interval`` (the Figures
  5(a,b)/6 baseline).  Failover promotes the backup after replaying its
  log lag — the long "DB update" phase.  Refresh and failover consume the
  backup's log cursor through one step, :meth:`SimDiskCluster._catch_up`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.counters import Counters
from repro.common.errors import NodeUnavailable
from repro.common.rng import RngStream
from repro.cluster.clients import BrowserPool, Metrics
from repro.cluster.costs import CostConfig, CostModel
from repro.cluster.failover import HEARTBEAT_INTERVAL, declare_failed
from repro.cluster.simnodes import DiskDbNode
from repro.engine.engine import bulk_load_replicas
from repro.engine.schema import TableSchema
from repro.scheduler.conflictaware import ConflictAwareScheduler
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource
from repro.sql import is_write_statement
from repro.tpcw.connection import Connection
from repro.tpcw.datagen import datagen_tables
from repro.tpcw.interactions import SharedSequences
from repro.tpcw.mixes import Mix
from repro.tpcw.schema import TpcwScale


class DiskConnection(Connection):
    """Read-one / write-all connection to the on-disk tier."""

    def __init__(self, cluster: "SimDiskCluster") -> None:
        self.cluster = cluster
        self._targets: List[DiskDbNode] = []
        self._txns: List = []
        self._is_update = False
        self._ticket_held = False
        self._queries: List[Tuple[str, Tuple]] = []

    def begin_read(self, tables: Sequence[str]):
        node_id = self.cluster.scheduler.route_read()
        node = self.cluster.node(node_id)
        self._targets = [node]
        self._txns = [node.db.begin(read_only=True)]
        self._is_update = False
        return self.cluster.sim.timeout(self.cluster.cost.config.rtt())

    def begin_update(self, tables: Sequence[str]):
        self._is_update = True

        def effect():
            # Conflict-aware schedulers serialise conflicting update
            # transactions (coarse-grained concurrency control — the very
            # reason the paper's baseline scales poorly on writes).
            if self.cluster.update_ticket is not None:
                yield from self.cluster.update_ticket.acquire()
                self._ticket_held = True
            ids = self.cluster.scheduler.update_targets()
            if not ids:
                raise NodeUnavailable("no active on-disk replicas")
            self._targets = [self.cluster.node(i) for i in ids]
            self._txns = [node.db.begin(write_tables=tables) for node in self._targets]
            yield self.cluster.sim.timeout(self.cluster.cost.config.rtt())
            return None

        return self.cluster.sim.spawn(effect(), name="disk-begin")

    def query(self, sql: str, params: Sequence = ()):
        targets, txns = self._targets, self._txns
        cfg = self.cluster.cost.config
        if any(not node.alive or not txn.active for node, txn in zip(targets, txns)):
            raise NodeUnavailable("replica failed mid-transaction")
        if self._is_update and is_write_statement(sql):
            self._queries.append((sql, tuple(params)))

        def effect():
            yield self.cluster.sim.timeout(cfg.rtt())
            jobs = [
                node.job(node.exec_statement(txn, sql, params), "stmt")
                for node, txn in zip(targets, txns)
            ]
            results = yield self.cluster.sim.all_of(jobs)
            return results[0]

        return self.cluster.sim.spawn(effect(), name="disk-query")

    def commit(self):
        targets, txns = self._targets, self._txns
        self._targets, self._txns = [], []
        is_update = self._is_update
        queries, self._queries = self._queries, []

        def effect():
            try:
                if any(not node.alive or not txn.active for node, txn in zip(targets, txns)):
                    if not is_update:
                        self.cluster.scheduler.note_read_done(targets[0].node_id)
                    raise NodeUnavailable("replica failed before commit")
                if not is_update:
                    targets[0].db.engine.commit(txns[0])
                    self.cluster.scheduler.note_read_done(targets[0].node_id)
                else:
                    jobs = [
                        node.job(node.commit_job(txn), "commit")
                        for node, txn in zip(targets, txns)
                    ]
                    yield self.cluster.sim.all_of(jobs)
                    if queries:
                        self.cluster.scheduler.log_update(queries)
                yield self.cluster.sim.timeout(self.cluster.cost.config.rtt())
            finally:
                self._release_ticket()
            return None

        return self.cluster.sim.spawn(effect(), name="disk-commit")

    def abort(self):
        self.cleanup()
        return self.cluster.sim.timeout(self.cluster.cost.config.rtt())

    def cleanup(self) -> None:
        targets, txns = self._targets, self._txns
        self._targets, self._txns = [], []
        for node, txn in zip(targets, txns):
            if node.alive:
                node.db.abort(txn)
            if not self._is_update:
                self.cluster.scheduler.note_read_done(node.node_id)
        self._release_ticket()

    def _release_ticket(self) -> None:
        if self._ticket_held:
            self._ticket_held = False
            self.cluster.update_ticket.release()


@dataclass
class DiskFailoverTimeline:
    failure_time: float = 0.0
    detection_time: float = 0.0
    replay_entries: int = 0
    replay_done: float = 0.0
    #: The backup promoted; None when every passive one died first.
    promoted: Optional[str] = None

    def db_update_duration(self) -> float:
        return max(0.0, self.replay_done - self.detection_time)


class SimDiskCluster:
    """Stand-alone or replicated on-disk tier under the event kernel."""

    def __init__(
        self,
        schemas: Sequence[TableSchema],
        num_active: int = 1,
        num_passive: int = 0,
        pool_pages: int = 2048,
        rows_per_page: int = 64,
        cost_config: Optional[CostConfig] = None,
        seed: int = 0,
        refresh_interval: float = 1800.0,
    ) -> None:
        self.sim = Simulator()
        self.schemas = list(schemas)
        self.cost = CostModel(cost_config if cost_config is not None else CostConfig())
        self.rng = RngStream(seed, "diskcluster")
        self.scheduler = ConflictAwareScheduler("ca0")
        self.nodes: Dict[str, DiskDbNode] = {}
        self.rows_per_page = rows_per_page
        for i in range(num_active):
            self._add_node(f"d{i}", passive=False, pool_pages=pool_pages)
        for i in range(num_passive):
            self._add_node(f"backup{i}", passive=True, pool_pages=pool_pages)
        #: Replicated tiers serialise update transactions (see
        #: :meth:`DiskConnection.begin_update`); a stand-alone node needs no ticket.
        self.update_ticket = Resource(self.sim, 1) if num_active + num_passive > 1 else None
        self.refresh_interval = refresh_interval
        self.metrics = Metrics()
        #: Cluster-level counters (client retry-budget exhaustion).
        self.counters = Counters()
        self.timelines: List[DiskFailoverTimeline] = []
        self._handled_failures: set = set()
        self.clients = BrowserPool(
            self.sim, self.rng, self.cost.config, self.metrics, self.counters,
            connect=partial(DiskConnection, self),
        )
        self.sim.spawn(self._failure_detector(), name="disk-failure-detector")
        if num_passive:
            self.sim.spawn(self._refresh_daemon(), name="backup-refresh")

    def _add_node(self, node_id: str, passive: bool, pool_pages: int) -> None:
        node = DiskDbNode(
            self.sim, node_id, self.cost, self.schemas, pool_pages, self.rows_per_page
        )
        self.nodes[node_id] = node
        self.scheduler.add_replica(node_id, passive=passive)

    def node(self, node_id: str) -> DiskDbNode:
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            raise NodeUnavailable(f"disk node {node_id} unavailable")
        return node

    # -- loading ------------------------------------------------------------------------
    def load(self, datagen) -> None:
        self.load_tables(datagen_tables(datagen))

    def load_tables(self, tables) -> None:
        """:meth:`load` from ``(table, rows)`` pairs already generated."""
        engines = [node.db.engine for node in self.nodes.values()]
        for table, rows in tables:
            bulk_load_replicas(engines, table, rows)
        for node in self.nodes.values():
            node.db.sql.invalidate_plans()

    def content_digest(self, node_id: str) -> str:
        """Hash of the rows ``node_id`` holds per table, wherever they sit."""
        pages = self.nodes[node_id].db.engine.store.all_pages()
        rows = sorted((p.page_id.table, repr(row)) for p in pages for _slot, row in p.iter_live())
        return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]

    def settle(self, until: float) -> Dict[str, str]:
        """Stop the clients and run to ``until`` so every update in flight
        lands; then each live replica's :meth:`content_digest`."""
        self.clients.stop()
        self.run(until=until)
        return {i: self.content_digest(i) for i, node in self.nodes.items() if node.alive}

    # -- the backup's log cursor ----------------------------------------------------------------
    def _catch_up(self, backup: DiskDbNode):
        """The one consumer of a backup's log cursor: replay what is pending,
        then advance past it, under the backup's ``replay_mutex`` throughout.
        Returns the entries applied; none once the backup is promoted or
        retired, or if it fails mid-replay (the detector retires it)."""
        log = self.scheduler.query_log
        yield from backup.replay_mutex.acquire()
        try:
            state = self.scheduler.replicas.get(backup.node_id)
            if state is None or not state.passive:
                return 0
            batch = log.pending_for(backup.node_id)
            if batch:
                try:
                    yield from backup.run_job(backup.replay(batch))
                except NodeUnavailable:
                    return 0
                log.advance(backup.node_id, len(batch))
            return len(batch)
        finally:
            backup.replay_mutex.release()

    def _refresh_daemon(self):
        """The paper's periodic refresh: every ``refresh_interval``, each live
        backup replays the batch pending when its refresh starts."""
        while True:
            yield self.sim.timeout(self.refresh_interval)
            for state in self.scheduler.passive_replicas():
                node = self.nodes[state.node_id]
                if node.alive:
                    yield from self._catch_up(node)

    def _failure_detector(self):
        missed: Dict[str, int] = {}
        while True:
            yield self.sim.timeout(HEARTBEAT_INTERVAL)
            for node_id, node in list(self.nodes.items()):
                if declare_failed(missed, self._handled_failures, node_id, node.alive):
                    state = self.scheduler.replicas.get(node_id)
                    if state is not None and state.passive:
                        self.scheduler.remove_replica(node_id)  # a backup: retire it
                    else:
                        self.sim.spawn(self._failover(node_id), name="disk-failover")

    def _failover(self, failed_id: str):
        """Promote a passive backup once it has replayed its log lag: the
        first that lives through its catch-up, or none."""
        failed = self.nodes[failed_id]
        timeline = DiskFailoverTimeline(
            failure_time=failed.failed_at or self.sim.now(),
            detection_time=self.sim.now(),
        )
        self.timelines.append(timeline)
        self.scheduler.remove_replica(failed_id)
        for state in self.scheduler.passive_replicas():
            backup = self.nodes[state.node_id]
            # Catch up until nothing is pending; commits keep flowing on the
            # surviving active meanwhile.
            while applied := (yield from self._catch_up(backup)):
                timeline.replay_entries += applied
            # An update in flight now targets the survivor alone and logs
            # after the promotion has dropped the backup's cursor, so the
            # backup would never see it: promote with no update in flight.
            yield from self.update_ticket.acquire()
            try:
                timeline.replay_entries += yield from self._catch_up(backup)
                if backup.alive:
                    self.scheduler.promote_backup(backup.node_id)
                    timeline.promoted = backup.node_id
                    break
            finally:
                self.update_ticket.release()
        timeline.replay_done = self.sim.now()

    # -- failure injection ---------------------------------------------------------------------------
    def kill_node(self, node_id: str) -> None:
        node = self.nodes[node_id]
        node.failed_at = self.sim.now()
        node.fail()

    def kill_node_at(self, node_id: str, when: float) -> None:
        self.sim.schedule(max(0.0, when - self.sim.now()), self.kill_node, node_id)

    # -- client driving ---------------------------------------------------------------------------------
    def start_browsers(
        self,
        count: int,
        mix: Mix,
        scale: TpcwScale,
        sequences: Optional[SharedSequences] = None,
        think_time_mean: float = 7.0,
        max_retries: int = 8,
    ) -> None:
        self.clients.start(count, mix, scale, sequences, think_time_mean, max_retries)

    def run(self, until: float) -> float:
        return self.sim.run(until=until)
