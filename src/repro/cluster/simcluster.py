"""The simulated DMV cluster: composition root and public facade.

Assembles scheduler(s) + nodes + clients under the event kernel and wires
the components that run the protocol in virtual time, each owning its own
state:

* :mod:`~repro.cluster.commit` — epochs, replication channels, gap-replay log;
* :mod:`~repro.cluster.routing` — update admission: one queue per conflict class;
* :mod:`~repro.cluster.failover` — failure detection, reconfiguration,
  scheduler takeover, crash bookkeeping;
* :mod:`~repro.cluster.migration` — data migration, reintegration, restart;
* :mod:`~repro.cluster.straggler` — laggard demotion, probing, rejoin;
* :mod:`~repro.cluster.rehome` — the forced conflict-class re-home;
* :mod:`~repro.cluster.clients` — connection, metrics, browser pool.

What stays here is the topology, the housekeeping daemons, the run records
several components append to (``metrics``, ``counters``, ``timelines``,
``commit_log``) and the entry points experiments, chaos plans and tests
call.  Timing of every phase (cleanup, data migration, cache warm-up) is
recorded so Figure 6's breakdown can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.network import NetworkModel
from repro.common.counters import Counters
from repro.common.errors import ConfigError, NodeUnavailable
from repro.common.rng import RngStream
from repro.common.versions import VersionVector
from repro.cluster.clients import BrowserPool, Metrics, SimConnection
from repro.cluster.commit import CommitPipeline
from repro.cluster.costs import CostConfig, CostModel
from repro.cluster.failover import FailureManager
from repro.cluster.interest import InterestRegistry, InterestSet
from repro.cluster.migration import FailoverTimeline, Migrator
from repro.cluster.protocol import assign_masters, assign_roles
from repro.cluster.rehome import Rehomer
from repro.cluster.routing import UpdateRouter
from repro.cluster.simnodes import ALL_RESIDENT, InMemoryDbNode
from repro.cluster.straggler import LaggardMonitor
from repro.core.conflictclass import ConflictClassMap
from repro.engine.engine import bulk_load_replicas
from repro.engine.schema import TableSchema
from repro.obs import Tracer
from repro.scheduler.versionaware import VersionAwareScheduler
from repro.sim.kernel import Simulator
from repro.tpcw.datagen import datagen_tables
from repro.tpcw.interactions import SharedSequences
from repro.tpcw.mixes import Mix
from repro.tpcw.schema import TpcwScale
from repro.tpcw.session import EmulatedBrowser


@dataclass
class SchedulerAgent:
    """One peer scheduler: tiny replicable state + liveness (paper §4.1)."""

    agent_id: str
    scheduler: VersionAwareScheduler
    alive: bool = True
    ready: bool = True  # False while a takeover is resynchronising


class SimDmvCluster:
    """Scheduler(s) + master + slaves (+ spares) under the event kernel."""

    def __init__(
        self,
        schemas: Sequence[TableSchema],
        num_slaves: int = 2,
        num_spares: int = 0,
        num_schedulers: int = 1,
        conflict_map: Optional[ConflictClassMap] = None,
        multi_master: bool = False,
        num_masters: Optional[int] = None,
        cost_config: Optional[CostConfig] = None,
        rows_per_page: int = 64,
        seed: int = 0,
        spare_read_fraction: float = 0.0,
        checkpoint_period: float = 0.0,
        pageid_ship_every: float = 0.0,
        gc_period: float = 60.0,
        trace: bool = False,
        ack_policy: str = "all",
        interest_sets: Optional[Dict[str, Optional[Sequence[str]]]] = None,
        min_replication_factor: int = 1,
        slave_cache_pages: Optional[int] = None,
    ) -> None:
        if ack_policy not in ("all", "quorum"):
            raise ValueError(f"unknown ack policy {ack_policy!r}")
        #: Pre-commit acknowledgement policy: ``all`` (paper behaviour —
        #: every subscribed slave must ack) or ``quorum`` (the first
        #: positive slave ack suffices).  Read by the ack barrier, the
        #: laggard monitor (demotion runs only under ``quorum``) and the
        #: rejoin-support choice.
        self.ack_policy = ack_policy
        self.sim = Simulator()
        #: Transaction-lifecycle tracer on the virtual clock.  Disabled by
        #: default: the null fast path adds no events to the kernel, so a
        #: traced run and an untraced run of the same seed are identical
        #: (same interleaving, same counters, same fingerprint).
        self.tracer = Tracer(now=self.sim.now, enabled=trace)
        self.schemas = list(schemas)
        self.cost = CostModel(cost_config if cost_config is not None else CostConfig())
        # ``RngStream.child`` consumes a parent draw, so the order of the
        # child() calls below (net, sched<i>, the conditional storage, then
        # one per browser) is part of every seeded fingerprint.
        self.rng = RngStream(seed, "simcluster")
        #: Lossy-network model (clean unless a fault plan touches it).
        self.net = NetworkModel(self.rng.child("net"))
        #: Cluster-level counters (scheduler queueing, suspicions, RPC loss).
        self.counters = Counters()
        table_names = [s.name for s in self.schemas]
        if conflict_map is None:
            conflict_map = ConflictClassMap.single_class(table_names)
        master_ids = assign_masters(conflict_map, multi_master, num_masters)
        self.conflict_map = conflict_map
        self.schedulers: List[SchedulerAgent] = [
            SchedulerAgent(
                f"sched{i}",
                VersionAwareScheduler(
                    f"sched{i}",
                    conflict_map,
                    rng=self.rng.child(f"sched{i}"),
                    spare_read_fraction=spare_read_fraction,
                ),
            )
            for i in range(max(1, num_schedulers))
        ]
        for agent in self.schedulers:
            agent.scheduler.tracer = self.tracer
            # Coverage rejects and master fallbacks feed the cluster's
            # fingerprinted set.
            agent.scheduler.cluster_counters = self.counters
        self.rows_per_page = rows_per_page
        self.spare_ids: set = set()
        # ``slave_cache_pages`` is the resident-page budget for non-spare
        # slaves (hot/cold tiering): a slave may subscribe to more pages
        # than it keeps hot; the cold remainder spills through the LRU
        # cache and is re-faulted from the disk-tier model on access
        # (``cache.evictions`` / ``cache.misses`` + per-statement fault time).
        if slave_cache_pages is None:
            slave_cache_pages = ALL_RESIDENT

        def make_node(node_id: str, role: str) -> InMemoryDbNode:
            if role == "spare":
                self.spare_ids.add(node_id)
            return InMemoryDbNode(
                self.sim, node_id, self.cost, self.schemas,
                slave_cache_pages if role == "slave" else ALL_RESIDENT,
                rows_per_page, tracer=self.tracer, durable=self.cost.config.durable_wal,
            )

        self.nodes: Dict[str, InMemoryDbNode] = assign_roles(
            conflict_map, table_names, master_ids, num_slaves, num_spares, make_node,
            [agent.scheduler for agent in self.schedulers],
        )
        #: Interest registry (partial replication); every node is full
        #: unless ``interest_sets`` says otherwise.
        self.interest = InterestRegistry()
        self.min_replication_factor = max(1, min_replication_factor)
        if interest_sets:
            for node_id, tables in interest_sets.items():
                if node_id not in self.nodes:
                    raise ConfigError(f"interest set for unknown node {node_id!r}")
                if self.nodes[node_id].master is not None and tables is not None:
                    raise ConfigError(f"master {node_id!r} must keep full interest")
                iset = (
                    InterestSet.full() if tables is None else InterestSet.of(*tables)
                )
                self.interest.declare(node_id, iset)
            self._declare_interest_to_schedulers()
        self.metrics = Metrics()
        self.timelines: List[FailoverTimeline] = []
        #: Confirmed commits (master, txn, versions) — the browser-acked
        #: history the chaos durability invariant checks against survivors.
        self.commit_log: List[Tuple[str, int, Dict[str, int]]] = []
        #: Attached by an :class:`~repro.traffic.engine.OpenLoopEngine` when
        #: one drives this cluster (the overload invariants key off it).
        self.traffic_stats = None
        #: Chooses the bit a storage fault flips.  Drawn only when nodes keep
        #: durable WALs: ``RngStream.child`` consumes a parent draw, so an
        #: unconditional child would shift every later (browser) stream.
        self.storage_rng = (
            self.rng.child("storage") if self.cost.config.durable_wal else None
        )
        # The components construct no events and draw no randomness; each
        # reaches its siblings through this root when it runs.
        self.pipeline = CommitPipeline(self)
        self.router = UpdateRouter(self)
        self.failover = FailureManager(self)
        self.migration = Migrator(self)
        self.stragglers = LaggardMonitor(self)
        self.rehomer = Rehomer(self)
        self.clients = BrowserPool(
            self.sim, self.rng, self.cost.config, self.metrics, self.counters,
            connect=partial(SimConnection, self),
        )
        # Daemon spawn order is behaviour: the kernel fires same-time
        # events in schedule order.
        self.sim.spawn(self.failover.detector_loop(), name="failure-detector")
        self.stragglers.start()
        if checkpoint_period > 0:
            self.sim.spawn(self._checkpoint_daemon(checkpoint_period), name="checkpointer")
        if pageid_ship_every > 0:
            self.sim.spawn(self._pageid_shipper(pageid_ship_every), name="pageid-shipper")
        if gc_period > 0:
            self.sim.spawn(self._gc_daemon(gc_period), name="version-gc")

    # -- scheduler group -----------------------------------------------------------------
    @property
    def scheduler(self) -> VersionAwareScheduler:
        """The primary scheduler (lowest-id alive, ready agent)."""
        for agent in self.schedulers:
            if agent.alive and agent.ready:
                return agent.scheduler
        raise NodeUnavailable("no scheduler available")

    def alive_scheduler_agents(self) -> List[SchedulerAgent]:
        return [a for a in self.schedulers if a.alive]

    def _declare_interest_to_schedulers(self) -> None:
        """Push every node's interest set to every scheduler agent."""
        for node_id in self.nodes:
            tables = self.interest.get(node_id).tables
            for agent in self.schedulers:
                agent.scheduler.set_interest(node_id, tables)

    def kill_scheduler(self, agent_id: str) -> None:
        for agent in self.schedulers:
            if agent.agent_id == agent_id:
                agent.alive = False
                return
        raise NodeUnavailable(f"no scheduler {agent_id}")

    def kill_scheduler_at(self, agent_id: str, when: float) -> None:
        self.sim.schedule(max(0.0, when - self.sim.now()), self.kill_scheduler, agent_id)

    # -- topology ------------------------------------------------------------------------
    def node(self, node_id: str) -> InMemoryDbNode:
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            raise NodeUnavailable(f"node {node_id} unavailable")
        return node

    def is_spare(self, node_id: str) -> bool:
        state = self.scheduler.slaves.get(node_id)
        return bool(state and state.spare)

    def confirmed_vector(self) -> VersionVector:
        """The cluster-confirmed per-table versions (scheduler's view)."""
        try:
            return self.scheduler.latest.copy()
        except NodeUnavailable:
            vector = VersionVector()
            for _master, _txn, versions in self.commit_log:
                for table, version in versions.items():
                    if version > vector.get(table):
                        vector.set(table, version)
            return vector

    def load(self, datagen) -> None:
        """Populate every node identically (instant: pre-experiment setup)."""
        self.load_tables(datagen_tables(datagen))

    def load_tables(self, tables) -> None:
        """:meth:`load` from ``(table, rows)`` pairs already generated.

        The nodes start as replicas of one image — the paper's "mmap an
        on-disk database" — so it is built once: the first node loads the
        rows and checkpoints them into its stable store (which is what
        bounds worst-case migration to the modifications made since the run
        began); every other node copies its tables and its checkpoint.
        """
        first, *rest = self.nodes.values()
        engines = [node.engine for node in self.nodes.values()]
        for table, rows in tables:
            bulk_load_replicas(engines, table, rows)
        first.sql.invalidate_plans()
        first.checkpoint()
        for node in rest:
            node.sql.invalidate_plans()
            node.copy_checkpoint_from(first)

    def make_stale_backup(self, node_id: str) -> None:
        """Unsubscribe a spare from replication (the Figure 5 stale backup)."""
        self.nodes[node_id].subscribed = False

    def warm_all_caches(self) -> None:
        """Make every node's resident set complete (post-load steady state)."""
        for node in self.nodes.values():
            node.cache.warm(p.page_id for p in node.engine.store.all_pages())

    def chill_cache(self, node_id: str) -> None:
        self.nodes[node_id].cache.invalidate_all()

    # -- entry points into the components ------------------------------------------------
    def kill_node(self, node_id: str) -> None:
        self.failover.kill_node(node_id)

    def kill_node_at(self, node_id: str, when: float) -> None:
        self.sim.schedule(max(0.0, when - self.sim.now()), self.kill_node, node_id)

    def reintegrate(self, node_id: str, support_id: Optional[str] = None, spare: bool = False):
        """Spawn the reintegration process; returns it (wait or observe)."""
        return self.migration.reintegrate(node_id, support_id, spare)

    def restart_node_at(self, node_id: str, when: float) -> None:
        """Restart ``node_id`` from its own disk (durable WAL) at time ``when``."""
        self.sim.schedule(
            max(0.0, when - self.sim.now()), self.migration.restart_node, node_id
        )

    def is_demoted(self, node_id: str) -> bool:
        return self.stragglers.is_demoted(node_id)

    def demote_slave(self, node_id: str, reason: str = "laggard") -> bool:
        """Demote a laggard slave to catch-up mode (see :meth:`LaggardMonitor.demote`)."""
        return self.stragglers.demote(node_id, reason)

    def rehome_table_to(self, table: str, dst_id: str):
        """Spawn a re-home of ``table``'s class onto ``dst_id`` (chaos hook)."""
        return self.rehomer.rehome_table_to(table, dst_id)

    # -- node-level fault hooks (chaos events) ---------------------------------------------------
    def set_slowdown(self, node_id: str, factor: float) -> None:
        """Chaos ``slowdown`` fault: inflate one node's service times."""
        node = self.nodes.get(node_id)
        if node is not None:
            node.slowdown = max(1.0, factor)

    def arm_torn_write(self, node_id: str) -> None:
        node = self.nodes.get(node_id)
        if node is not None and node.durable:
            node.wal.arm_torn_write()

    def set_fsync_lie(self, node_id: str, lying: bool) -> None:
        node = self.nodes.get(node_id)
        if node is not None and node.durable:
            node.wal.set_fsync_lies(lying)

    def inject_bitflip(self, node_id: str, target: str = "wal") -> None:
        """Flip a bit in one durable record/page, chosen by the storage RNG."""
        node = self.nodes.get(node_id)
        if node is None or not node.durable or self.storage_rng is None:
            return
        if target == "checkpoint":
            page_ids = sorted(node.stable.version_map())
            if not page_ids:
                return
            victim = page_ids[self.storage_rng.randint(0, len(page_ids) - 1)]
            if node.stable.corrupt_page(victim):
                node.counters.add("checkpoint.bitflips")
        else:
            if len(node.wal) == 0:
                return
            node.wal.corrupt_record(self.storage_rng.randint(0, len(node.wal) - 1))

    # -- background daemons -------------------------------------------------------------------------
    def _gc_daemon(self, period: float):
        """Periodic version GC on every slave (bounded index growth)."""
        while True:
            yield self.sim.timeout(period)
            try:
                latest = self.scheduler.latest
            except NodeUnavailable:
                continue
            for node in self.nodes.values():
                if node.alive and node.slave is not None and not node.slave.catching_up:
                    node.slave.gc_versions(latest)

    def _checkpoint_daemon(self, period: float):
        while True:
            yield self.sim.timeout(period)
            for node in self.nodes.values():
                has_role = node.slave is not None or (
                    # Durable masters checkpoint too: their WALs hold their
                    # own pre-commit records and need the checkpoint floor
                    # to advance for truncation.
                    node.durable and node.master is not None
                )
                if node.alive and has_role:
                    node.checkpoint()

    def _pageid_shipper(self, period: float):
        """Ship hot page ids from an active slave to every spare (Fig. 9)."""
        cfg = self.cost.config
        while True:
            yield self.sim.timeout(period)
            actives = [
                self.nodes[s.node_id]
                for s in self.scheduler.active_slaves()
                if self.nodes[s.node_id].alive
            ]
            spares = [
                self.nodes[s.node_id]
                for s in self.scheduler.spare_slaves()
                if self.nodes[s.node_id].alive
            ]
            if not actives or not spares:
                continue
            source = actives[0]
            ids = source.cache.hottest(source.cache.resident_count())
            for spare in spares:
                yield self.sim.timeout(cfg.net_delay(8 * len(ids)))
                if spare.alive:
                    spare.cache.warm(reversed(ids))

    # -- client driving --------------------------------------------------------------------------------
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

    def flash_crowd(self, count: int) -> None:
        """Add ``count`` browsers mid-run with the last started profile."""
        self.clients.flash_crowd(count)

    def stop_browsers(self) -> None:
        """Ask every browser loop to exit at its next interaction boundary."""
        self.clients.stop()

    @property
    def _browsers(self) -> List[EmulatedBrowser]:
        return self.clients.browsers

    # -- experiment control ------------------------------------------------------------------------------
    def run(self, until: float) -> float:
        return self.sim.run(until=until)
