"""The simulated DMV cluster and the on-disk baseline cluster.

Assembles scheduler + nodes + clients under the event kernel and provides
the failure-injection and reconfiguration machinery the failover
experiments exercise.  Timing of every phase (cleanup, data migration,
cache warm-up) is recorded so Figure 6's breakdown can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.network import NetworkModel
from repro.common.counters import Counters
from repro.common.errors import ConfigError, NodeUnavailable, TransactionAborted
from repro.common.rng import RngStream
from repro.common.versions import VersionVector
from repro.cluster.costs import CostConfig, CostModel
from repro.cluster.interest import InterestRegistry, InterestSet
from repro.cluster.simnodes import DiskDbNode, InMemoryDbNode, SimNode
from repro.cluster.straggler import ClassWriteRates, LaggardDetector
from repro.cluster.sync import datagen_tables
from repro.core.conflictclass import ConflictClassMap
from repro.core.dual import DualController
from repro.engine.engine import bulk_load_replicas
from repro.engine.schema import TableSchema
from repro.engine.txn import TxnMode
from repro.sim.resources import Resource
from repro.failover.recovery import (
    cleanup_after_master_failure,
    elect_new_master,
    ghost_wal_records,
    promote_slave_to_master,
)
from repro.failover.reintegration import (
    integrate_stale_node,
    recover_from_local_disk,
    restore_from_checkpoint,
)
from repro.obs import NULL_SPAN, Tracer
from repro.storage.page import Page
from repro.scheduler.admission import AdmissionController
from repro.scheduler.conflictaware import ConflictAwareScheduler
from repro.scheduler.versionaware import VersionAwareScheduler
from repro.sim.kernel import Simulator
from repro.sim.stats import Histogram, TimeSeries, WindowedRate
from repro.tpcw.connection import Connection
from repro.tpcw.interactions import INTERACTIONS, SharedSequences
from repro.tpcw.mixes import Mix
from repro.tpcw.schema import TpcwScale
from repro.tpcw.session import EmulatedBrowser
from repro.traffic.budget import RetryBudget


@dataclass
class Metrics:
    """Client-perceived measurements of one experiment run."""

    wips: WindowedRate = field(default_factory=lambda: WindowedRate(window=20.0, name="wips"))
    latency: Histogram = field(default_factory=lambda: Histogram("latency"))
    latency_series: TimeSeries = field(default_factory=lambda: TimeSeries("latency"))
    #: Commit-path latency of replicated update commits (pre-commit through
    #: ack barrier) — the distribution a straggler slave distorts under
    #: all-slave acks and a quorum protects.
    commit_latency: Histogram = field(default_factory=lambda: Histogram("commit"))
    completed: int = 0
    retried: int = 0
    failed: int = 0
    aborts_by_reason: Dict[str, int] = field(default_factory=dict)

    def record_completion(self, time: float, latency: float) -> None:
        self.completed += 1
        self.wips.mark(time)
        self.latency.record(latency)
        self.latency_series.record(time, latency)

    def record_retry(self, reason: str) -> None:
        self.retried += 1
        self.aborts_by_reason[reason] = self.aborts_by_reason.get(reason, 0) + 1

    def abort_rate(self) -> float:
        total = self.completed + self.retried
        return self.retried / total if total else 0.0


class SimConnection(Connection):
    """Connection whose effects are kernel events (driven by browsers)."""

    def __init__(self, cluster: "SimDmvCluster") -> None:
        self.cluster = cluster
        #: Tenant label for per-tenant admission control (open-loop traffic
        #: sets it; the closed-loop browsers keep the default).
        self.tenant = "default"
        #: Absolute virtual-clock deadline stamped at arrival, or None.
        #: Propagated through routing, execution and commit: each stage
        #: cancels doomed work instead of finishing it.
        self.deadline: Optional[float] = None
        self._node: Optional[InMemoryDbNode] = None
        self._txn = None
        self._is_update = False
        self._queries: List[Tuple[str, Tuple]] = []
        #: Update-admission slot held while an update executes
        #: (``update_mpl > 0`` only); ownership moves to ``commit_update``
        #: at commit, otherwise :meth:`cleanup` releases it.
        self._mpl_slot: Optional[Resource] = None
        #: Root span of the current transaction attempt.  Ownership moves
        #: to :meth:`SimDmvCluster.commit_update` for update commits; any
        #: span still held here is closed as aborted by :meth:`cleanup`.
        self._root = NULL_SPAN

    def _deadline_expired(self) -> bool:
        return self.deadline is not None and self.cluster.sim.now() >= self.deadline

    def begin_read(self, tables: Sequence[str]):
        # Admission + deadline gates run before any span or routing state
        # exists, so a rejection leaves the connection untouched.
        self.cluster.admission_check("read", self.tenant)
        if self._deadline_expired():
            raise self.cluster.deadline_cancel("read-begin")
        root = self._root = self.cluster.tracer.span(
            "txn", kind="read", tables=",".join(tables)
        )
        with root.child("schedule", kind="read") as sched:
            routed = self.cluster.scheduler.route_read(list(tables))
            sched.annotate(node=routed.node_id, status="routed")
        node = self.cluster.node(routed.node_id)
        self._node = node
        self._is_update = False
        if node.slave is not None:
            self._txn = node.slave.begin_read_only(routed.tag)
        else:
            # Coverage fallback routed this read to a pure master (partial
            # replication, no fresh covering slave): the master's engine
            # is current by construction, so no version tag is needed.
            self._txn = node.master.begin_read_only()
        if root.recording:
            self._txn.obs_span = root
            # The txn id exists only now; stamp it on the already-closed
            # schedule span too so the whole tree shares it.
            root.txn_id = sched.txn_id = self._txn.txn_id
            root.annotate(node=node.node_id, tag=routed.tag.as_dict())
        return self.cluster.sim.timeout(self.cluster.cost.config.rtt())

    def begin_update(self, tables: Sequence[str]):
        self._is_update = True
        self._queries = []
        self._root = self.cluster.tracer.span(
            "txn", kind="update", tables=",".join(tables)
        )
        return self.cluster.sim.spawn(self._begin_update(list(tables)), name="begin-update")

    def _begin_update(self, tables: List[str]):
        root = self._root
        sched = root.child("schedule", kind="update")
        try:
            node, self._mpl_slot = yield from self.cluster.admit_update(
                tables, tenant=self.tenant, deadline=self.deadline
            )
        except BaseException as exc:
            sched.finish(status="error", error=type(exc).__name__)
            raise
        sched.finish(node=node.node_id, status="routed")
        self._node = node
        self._txn = node.master.begin_update(write_tables=tables)
        if root.recording:
            self._txn.obs_span = root
            root.txn_id = sched.txn_id = self._txn.txn_id
            root.annotate(
                node=node.node_id,
                conflict_class=self.cluster.conflict_map.class_of(tables[0])
                if tables
                else -1,
            )
        yield self.cluster.sim.timeout(self.cluster.cost.config.rtt())

    def query(self, sql: str, params: Sequence = ()):
        node, txn = self._node, self._txn
        if txn is None:
            raise RuntimeError("no open transaction")
        if not node.alive or not txn.active:
            # The node died between statements; its engine already rolled
            # the transaction back.
            self._node = self._txn = None
            raise NodeUnavailable(f"node {node.node_id} failed mid-transaction")
        if self._deadline_expired():
            # Doomed mid-transaction: stop executing statements for it.
            # State stays attached so ``cleanup`` rolls the txn back.
            raise self.cluster.deadline_cancel("execute")
        if self._is_update and not sql.lstrip().lower().startswith("select"):
            self._queries.append((sql, tuple(params)))
        cfg = self.cluster.cost.config

        def effect():
            yield self.cluster.sim.timeout(cfg.rtt())
            result = yield node.job(node.exec_statement(txn, sql, params), "stmt")
            return result

        return self.cluster.sim.spawn(effect(), name="query")

    def commit(self):
        node, txn = self._node, self._txn
        if txn is None:
            raise RuntimeError("no open transaction")
        self._node = self._txn = None
        if not node.alive or not txn.active:
            self._release_mpl_slot()
            if not self._is_update:
                self.cluster.scheduler.note_read_done(node.node_id)
            raise NodeUnavailable(f"node {node.node_id} failed before commit")
        if not self._is_update:
            node.engine.commit(txn)
            self.cluster.scheduler.note_read_done(node.node_id)
            root, self._root = self._root, NULL_SPAN
            root.finish(status="committed")
            return self.cluster.sim.timeout(self.cluster.cost.config.rtt())
        queries, self._queries = self._queries, []
        # Root-span ownership moves to commit_update, which closes it when
        # the replication pipeline resolves (committed or aborted).  So
        # does the admission slot: commit_update holds it through the
        # replication pipeline and releases it on any exit path.
        self._root = NULL_SPAN
        slot, self._mpl_slot = self._mpl_slot, None
        return self.cluster.sim.spawn(
            self.cluster.commit_update(
                node, txn, queries, mpl_slot=slot, deadline=self.deadline
            ),
            name="commit",
        )

    def abort(self):
        self.cleanup()
        return self.cluster.sim.timeout(self.cluster.cost.config.rtt())

    def _release_mpl_slot(self) -> None:
        slot, self._mpl_slot = self._mpl_slot, None
        if slot is not None:
            slot.release()

    def cleanup(self) -> None:
        """Roll back whatever is still open (safe to call repeatedly)."""
        self._release_mpl_slot()
        node, txn = self._node, self._txn
        self._node = self._txn = None
        root, self._root = self._root, NULL_SPAN
        root.finish(status="aborted")
        if txn is None or node is None:
            return
        if node.alive:
            node.engine.abort(txn)
        if not self._is_update:
            self.cluster.scheduler.note_read_done(node.node_id)


@dataclass
class FailoverTimeline:
    """Timestamps/durations of one reconfiguration (Figure 6 breakdown)."""

    failure_time: float = 0.0
    detection_time: float = 0.0
    recovery_done: float = 0.0       # cleanup + master promotion
    migration_done: float = 0.0      # data migration (DB update)
    migration_pages: int = 0
    migration_bytes: int = 0

    def recovery_duration(self) -> float:
        return max(0.0, self.recovery_done - self.detection_time)

    def migration_duration(self) -> float:
        return max(0.0, self.migration_done - max(self.recovery_done, self.detection_time))


@dataclass
class SchedulerAgent:
    """One peer scheduler: tiny replicable state + liveness (paper §4.1)."""

    agent_id: str
    scheduler: VersionAwareScheduler
    alive: bool = True
    ready: bool = True  # False while a takeover is resynchronising


class PendingSend:
    """One write-set in flight on a replication channel (ack + attempt count)."""

    __slots__ = ("write_set", "ack", "attempts", "span", "retry_span", "enqueued_at")

    def __init__(self, write_set, ack, span=NULL_SPAN, enqueued_at=0.0) -> None:
        self.write_set = write_set
        self.ack = ack
        self.attempts = 0
        #: ``broadcast`` span covering first transmission through ack (or
        #: final failure); retransmission attempts nest under it.
        self.span = span
        self.retry_span = NULL_SPAN
        #: Virtual enqueue time — the laggard detector's ack-latency samples
        #: measure enqueue-to-ack, which is what a committing master waits.
        self.enqueued_at = enqueued_at


class ReplicationChannel:
    """Outbound master->slave link with group-commit broadcast batching.

    Pre-commit broadcasts issued while a transfer to the same slave is in
    flight are framed into ONE batched network message: the batch pays one
    ``net_latency`` (plus bandwidth for every byte) instead of a latency
    charge per write-set, and the per-write-set acks come back piggybacked
    on a single ack frame.  Under a loaded master this is classic group
    commit — the deeper the commit concurrency, the bigger the batches.

    When the chaos layer makes the link lossy, the channel adds the
    reliability sub-protocol: a per-write-set ack timeout with bounded
    exponential-backoff retransmission (lost data frames AND lost ack
    frames both trigger it), and fail-stop suspicion of the target after
    ``retransmit_limit`` attempts.  Slaves deduplicate by write-set
    identity, so retransmission is idempotent.  On a clean link none of
    this machinery runs and the timing is identical to the fast path.
    """

    def __init__(
        self, cluster: "SimDmvCluster", source_id: str, target: "InMemoryDbNode"
    ) -> None:
        self.cluster = cluster
        self.source_id = source_id
        self.target = target
        self._outbox: List[PendingSend] = []
        self._busy = False
        #: Every send not yet acked or failed, in enqueue (= version) order.
        #: The drain loop moves frames out of ``_outbox`` while they are in
        #: transit or waiting out a retransmission backoff, so this is the
        #: only complete view of what the target may still be missing —
        #: reintegration's in-flight catch-up reads it.
        self._unacked: List[PendingSend] = []

    def send(self, write_set, parent_span=NULL_SPAN):
        """Queue one write-set; returns the event its ack will trigger.

        ``parent_span`` (the committing transaction's root span) makes the
        per-target ``broadcast`` span a child of the transaction, so the
        trace shows which commit paid for which network traffic.
        """
        span = parent_span.child(
            "broadcast",
            node=self.source_id,
            target=self.target.node_id,
            seq=write_set.seq,
            bytes=write_set.byte_size(),
        )
        pending = PendingSend(
            write_set, self.cluster.sim.event(), span,
            enqueued_at=self.cluster.sim.now(),
        )
        self._outbox.append(pending)
        self._unacked.append(pending)
        ops = len(write_set.ops)
        if ops > self.cluster._max_ws_ops:
            self.cluster._max_ws_ops = ops
        if self.cluster.straggler_active:
            # Backlog watermark: an outbox this deep means the target is not
            # keeping up with the broadcast rate — demote it rather than let
            # the unacked queue (and every commit's ack wait) grow unbounded.
            entries = len(self._outbox)
            nbytes = sum(p.write_set.byte_size() for p in self._outbox)
            if self.cluster.laggard.backlog_verdict(entries, nbytes):
                self.cluster.demote_slave(self.target.node_id, reason="backlog")
        self._kick()
        return pending.ack

    def unacked_write_sets(self):
        """Write-sets sent but not yet acked (nor failed), oldest first.

        Covers the outbox, the batch currently in transit, and frames
        waiting out a retransmission backoff.  Acked/failed entries are
        pruned lazily here rather than in :meth:`_finish` so the hot ack
        path stays allocation-free.
        """
        self._unacked = [p for p in self._unacked if not p.ack.triggered]
        return [p.write_set for p in self._unacked]

    def _kick(self) -> None:
        if not self._busy:
            self._busy = True
            self.cluster.sim.spawn(
                self._drain(), name=f"repl:{self.source_id}->{self.target.node_id}"
            )

    @staticmethod
    def _finish(pending: PendingSend, ok: bool) -> None:
        if not pending.ack.triggered:
            pending.ack.succeed(ok)
        pending.retry_span.finish(status="acked" if ok else "failed")
        pending.span.finish(status="acked" if ok else "failed",
                            attempts=pending.attempts + 1)

    def _drop(self, pending: PendingSend, counters) -> None:
        counters.add("net.drops")
        counters.add("net.bytes_dropped", pending.write_set.byte_size())

    def _drain(self):
        cluster = self.cluster
        cfg = cluster.cost.config
        sim = cluster.sim
        target = self.target
        counters = target.counters
        try:
            while self._outbox:
                batch, self._outbox = self._outbox, []
                if (
                    not target.alive
                    or target.slave is None
                    or cluster.is_demoted(target.node_id)
                ):
                    # Fail fast on a dead (or promoted, or demoted) target:
                    # no payload bytes and no batch delay are charged — the
                    # attempts count as sent-and-dropped so conservation
                    # holds.  A demoted laggard catches up via page
                    # migration at rejoin, not via this stream.
                    demoted_alive = (
                        target.alive and cluster.is_demoted(target.node_id)
                    )
                    restartable_dead = (
                        cluster.durability_active and not target.alive
                    )
                    for pending in batch:
                        counters.add("net.write_sets_sent")
                        if demoted_alive or restartable_dead:
                            # Enqueued before the demotion (or crash): the
                            # broadcast site never logged it, so retain it
                            # here or the rejoin/restart gap replay would
                            # miss it.
                            cluster._replay_log[
                                pending.write_set.dedup_key()
                            ] = pending.write_set
                        self._drop(pending, counters)
                        self._finish(pending, False)
                    continue
                link = cluster.net.link(self.source_id, target.node_id)
                back = cluster.net.link(target.node_id, self.source_id)
                lossy = link.lossy or back.lossy
                payload = sum(p.write_set.byte_size() for p in batch)
                counters.add("net.batches")
                counters.add("net.bytes_shipped", cfg.batch_bytes(payload, len(batch)))
                saved = sum(p.write_set.bytes_saved() for p in batch)
                if saved:
                    counters.add("net.bytes_saved_delta", saved)
                delay = cfg.batch_delay(payload, len(batch))
                if lossy:
                    delay += link.extra_delay()
                yield sim.timeout(delay)
                delivered: List[PendingSend] = []
                requeue: List[PendingSend] = []
                for idx, pending in enumerate(batch):
                    counters.add("net.write_sets_sent")
                    if cluster.is_demoted(target.node_id):
                        # Demoted mid-batch (buffer cap tripped on an
                        # earlier frame): the remainder fast-fails, but is
                        # retained for the rejoin gap replay.
                        if target.alive:
                            cluster._replay_log[
                                pending.write_set.dedup_key()
                            ] = pending.write_set
                        self._drop(pending, counters)
                        self._finish(pending, False)
                        continue
                    if lossy and link.drops():
                        # Data frame lost in flight.  Slaves apply write-sets
                        # (and maintain indexes) strictly in version order,
                        # so the stream truncates here: the lost frame AND
                        # everything queued behind it go back for in-order
                        # retransmission (go-back-N, not selective repeat).
                        self._drop(pending, counters)
                        requeue = batch[idx:]
                        break
                    outcome = target.deliver_write_set(pending.write_set)
                    if outcome == "dead":
                        if cluster.durability_active and not target.alive:
                            # Crashed mid-batch: retain for restart gap replay.
                            cluster._replay_log[
                                pending.write_set.dedup_key()
                            ] = pending.write_set
                        self._drop(pending, counters)
                        self._finish(pending, False)
                        continue
                    if lossy and link.duplicates():
                        # The network duplicated the frame: the extra copy
                        # is a real transmission the slave must filter.
                        counters.add("net.write_sets_sent")
                        target.deliver_write_set(pending.write_set)
                    if outcome == "ok":
                        if (
                            cluster.straggler_active
                            and cfg.slave_buffer_max_ops
                            and target.slave is not None
                            and target.slave.pending_ops > cfg.slave_buffer_max_ops
                        ):
                            # Slave-side buffer cap: the write-set IS
                            # buffered (counted received), but crossing the
                            # high watermark demotes the replica so the
                            # backlog stops growing here.
                            cluster.demote_slave(target.node_id, reason="buffer-cap")
                            if (
                                not cluster.is_demoted(target.node_id)
                                and not target.slave.catching_up
                                and target.slave.pending_ops
                                > cfg.slave_buffer_max_ops
                            ):
                                # Demotion vetoed (last subscribed slave):
                                # shed load by eagerly applying the
                                # confirmed prefix instead of buffering
                                # deeper.  The residue is the unconfirmed
                                # in-flight tail, which cannot be applied.
                                try:
                                    confirmed = cluster.scheduler.latest
                                except NodeUnavailable:
                                    confirmed = None
                                if confirmed is not None:
                                    drained = target.slave.drain_to(confirmed)
                                    if drained:
                                        counters.add(
                                            "slave.forced_drains"
                                        )
                                        counters.add(
                                            "slave.ops_force_drained", drained
                                        )
                                        yield target.job(
                                            target.apply_cost(drained), "drain"
                                        )
                        try:
                            yield target.job(
                                target.receive_cost(len(pending.write_set.ops)), "recv"
                            )
                        except (NodeUnavailable, TransactionAborted):
                            # Died during the receive charge; the write-set
                            # was buffered (counted received) but the ack is
                            # lost with the node.
                            self._finish(pending, False)
                            continue
                    delivered.append(pending)
                if delivered:
                    ack_lost = lossy and back.drops()
                    ack_delay = cfg.net_delay(cfg.net_ack_bytes)
                    if lossy:
                        ack_delay += back.extra_delay()
                    yield sim.timeout(ack_delay)
                    if ack_lost:
                        # Piggybacked ack frame lost: the master times out
                        # and retransmits; the slave's duplicate filter
                        # absorbs the re-deliveries.  The unacked frames
                        # precede any lost tail in stream order.
                        requeue = delivered + requeue
                    else:
                        for pending in delivered:
                            self._finish(pending, True)
                        if cluster.straggler_active:
                            now = sim.now()
                            detector = cluster.laggard
                            for pending in delivered:
                                detector.observe_ack(
                                    target.node_id, now - pending.enqueued_at
                                )
                            if detector.ack_latency_verdict(target.node_id):
                                cluster.demote_slave(
                                    target.node_id, reason="ack-latency"
                                )
                if requeue:
                    yield from self._backoff_and_requeue(requeue)
        finally:
            self._busy = False

    # -- ack timeout + retransmission -------------------------------------------------
    def _ack_timeout(self, attempts: int) -> float:
        cfg = self.cluster.cost.config
        return min(cfg.ack_timeout_base * (2 ** (attempts - 1)), cfg.retransmit_backoff_cap)

    def _backoff_and_requeue(self, requeue: List[PendingSend]):
        """Wait the ack timeout, then retransmit ``requeue`` ahead of the
        outbox (stream order preserved).  Runs inside the drain process, so
        sends issued while backing off queue up behind the retransmissions.
        """
        cluster = self.cluster
        cfg = cluster.cost.config
        for pending in requeue:
            pending.attempts += 1
        if any(p.attempts >= cfg.retransmit_limit for p in requeue):
            # Retransmission budget exhausted: declare the target failed
            # (fail-stop suspicion) so reconfiguration takes over.
            for pending in requeue:
                self._finish(pending, False)
            cluster.suspect_node(self.target.node_id)
            return
        yield cluster.sim.timeout(
            self._ack_timeout(max(p.attempts for p in requeue))
        )
        source = cluster.nodes.get(self.source_id)
        if source is None or not source.alive:
            # The sending master died while the timer was pending; its
            # commits are failing anyway.
            for pending in requeue:
                self._finish(pending, False)
            return
        live = [p for p in requeue if not p.ack.triggered]
        if live:
            self.target.counters.add("net.retransmits", len(live))
            for pending in live:
                # Close the previous attempt's span (if any) and open the
                # next one, nested under the write-set's broadcast span.
                pending.retry_span.finish(status="retransmitted")
                pending.retry_span = pending.span.child(
                    "retransmit",
                    node=self.source_id,
                    target=self.target.node_id,
                    attempt=pending.attempts,
                )
            self._outbox[:0] = live


class _CommitEpoch:
    """One commit epoch on one master — the unit of every update commit.

    Members join while the epoch is open (per-txn OCC validation, shared
    per-table epoch versions, page locks released at join); the epoch
    seals when it is full or its timer fires, publishing one concatenated
    write-set through one broadcast + ack barrier.  ``done`` resolves True
    once the epoch is confirmed to the scheduler, False if the master died
    first.
    """

    __slots__ = ("ops", "versions", "members", "done", "sealed")

    def __init__(self, done) -> None:
        self.ops: List = []
        #: table -> version reserved for this epoch (one advance per table).
        self.versions: Dict[str, int] = {}
        #: (txn_id, commit_versions, queries, root_span) per member.
        self.members: List[Tuple] = []
        self.done = done
        self.sealed = False


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
        cache_pages: int = 1 << 30,
        rows_per_page: int = 64,
        seed: int = 0,
        spare_read_fraction: float = 0.0,
        heartbeat_interval: float = 1.0,
        heartbeat_misses: int = 2,
        checkpoint_period: float = 0.0,
        pageid_ship_every: float = 0.0,
        gc_period: float = 60.0,
        trace: bool = False,
        trace_capacity: int = 1 << 16,
        ack_policy: str = "all",
        quorum_k: int = 1,
        interest_sets: Optional[Dict[str, Optional[Sequence[str]]]] = None,
        min_replication_factor: int = 1,
        slave_cache_pages: Optional[int] = None,
    ) -> None:
        if ack_policy not in ("all", "quorum", "all-healthy"):
            raise ValueError(f"unknown ack policy {ack_policy!r}")
        #: Pre-commit acknowledgement policy: ``all`` (paper behaviour —
        #: every subscribed slave must ack), ``quorum`` (any ``quorum_k``
        #: slave acks suffice) or ``all-healthy`` (all non-demoted slaves).
        #: Laggard demotion runs only under the non-default policies, so an
        #: ``all`` cluster is event-for-event identical to the seed.
        self.ack_policy = ack_policy
        self.quorum_k = max(1, quorum_k)
        self.sim = Simulator()
        #: Transaction-lifecycle tracer on the virtual clock.  Disabled by
        #: default: the null fast path adds no events to the kernel, so a
        #: traced run and an untraced run of the same seed are identical
        #: (same interleaving, same counters, same fingerprint).
        self.tracer = Tracer(now=self.sim.now, capacity=trace_capacity, enabled=trace)
        self.schemas = list(schemas)
        self.cost = CostModel(cost_config if cost_config is not None else CostConfig())
        self.rng = RngStream(seed, "simcluster")
        #: Lossy-network model (clean unless a fault plan touches it).
        self.net = NetworkModel(self.rng.child("net"))
        #: Cluster-level counters (scheduler queueing, suspicions, RPC loss).
        self.counters = Counters()
        table_names = [s.name for s in self.schemas]
        if conflict_map is None:
            conflict_map = ConflictClassMap.single_class(table_names)
        if num_masters is None:
            # Legacy shape: one master, or (historic multi-master tests)
            # one per conflict class capped at two.
            num_masters = min(conflict_map.num_classes, 2) if multi_master else 1
        num_masters = max(1, num_masters)
        master_ids = [f"m{i}" for i in range(num_masters)]
        conflict_map.assign_masters(master_ids)
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
            # Partial-routing counters feed the cluster's fingerprinted
            # set (they never fire under full replication).
            agent.scheduler.partial_counters = self.counters
        self.nodes: Dict[str, InMemoryDbNode] = {}
        self.rows_per_page = rows_per_page
        for master_id in master_ids:
            master = InMemoryDbNode(
                self.sim, master_id, self.cost, self.schemas, cache_pages, rows_per_page,
                tracer=self.tracer, durable=self.cost.config.durable_wal,
            )
            if len(master_ids) > 1:
                master.make_dual_master(
                    {
                        t for t in table_names
                        if conflict_map.master_of_class(conflict_map.class_of(t)) == master_id
                    },
                    read_concurrency=self.cost.config.read_concurrency,
                )
            else:
                master.make_master(self.cost.config.read_concurrency)
            self.nodes[master_id] = master
        self._spare_ids: set = set()
        #: Interest registry (partial replication).  All-full — the default
        #: — is indistinguishable from no registry: no filtering, no new
        #: counters, no routing changes, bit-identical fingerprints.
        self.interest = InterestRegistry()
        self.min_replication_factor = max(1, min_replication_factor)
        #: Resident-page budget for non-spare slaves (hot/cold tiering):
        #: a slave may subscribe to more pages than it keeps hot; the cold
        #: remainder spills through the LRU cache and is re-faulted from
        #: the disk-tier model on access (``cache.evictions`` /
        #: ``cache.misses`` + per-statement fault time).
        self._slave_cache_pages = (
            slave_cache_pages if slave_cache_pages is not None else cache_pages
        )
        for i in range(num_slaves):
            self._add_slave(f"s{i}", self._slave_cache_pages, spare=False)
        for i in range(num_spares):
            self._add_slave(f"spare{i}", cache_pages, spare=True)
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
        #: Per-(master, slave) outbound replication channels (group-commit
        #: batching + lossy-link retransmission).
        self._channels: Dict[Tuple[str, str], ReplicationChannel] = {}
        self.timelines: List[FailoverTimeline] = []
        self.scheduler_takeovers: List[Tuple[float, float]] = []  # (detected, done)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self._handled_failures: set = set()
        #: Failure-detector miss counts; cleared when a node reintegrates so
        #: a second failure of the same node is re-detected.
        self._missed: Dict[str, int] = {}
        #: Masters currently mid-reconfiguration (graceful-degradation
        #: window) and masters whose reconfiguration found no successor.
        self._reconfiguring: set = set()
        self._reconfig_dead_ends: set = set()
        self._update_waiters: List = []
        #: Confirmed commits (master, txn, versions) — the browser-acked
        #: history the chaos durability invariant checks against survivors.
        self.commit_log: List[Tuple[str, int, Dict[str, int]]] = []
        self._browsers: List = []
        self._stop_browsers = False
        #: Laggard bookkeeping.  The detector is pure state (no events, no
        #: counters), so constructing it never perturbs a seeded run; the
        #: monitor daemon that acts on it is spawned only for non-default
        #: ack policies to keep the ``all`` event stream bit-identical.
        self.laggard = LaggardDetector(self.cost.config)
        #: Overload-robustness state.  The admission controller is a pure
        #: state machine (no events, no RNG, no counters until it rejects),
        #: created only when its knobs are on so default runs stay
        #: bit-identical.  ``retry_budget`` backs the closed-loop browser
        #: pool's retry cap; the open-loop engine keeps per-tenant budgets
        #: of its own.  ``traffic_stats`` is attached by an
        #: :class:`~repro.traffic.engine.OpenLoopEngine` when one drives
        #: this cluster (the overload invariants key off it).
        self.admission = (
            AdmissionController(self.cost.config) if self.overload_active else None
        )
        self.retry_budget = (
            RetryBudget(
                self.cost.config.retry_budget_rate, self.cost.config.retry_budget_burst
            )
            if self.cost.config.retry_budget_rate > 0
            else None
        )
        self.traffic_stats = None
        #: node_id -> open ``demote`` span for currently demoted slaves.
        self._demoted: Dict[str, object] = {}
        #: Every node that was ever demoted (rejoin-convergence invariant).
        self._ever_demoted: set = set()
        #: Write-sets retained while any node is demoted, keyed by dedup
        #: identity.  A demoted node's channel drops broadcasts, and the
        #: migration support for its rejoin may not have received them yet
        #: either (quorum acks confirm commits before every slave has the
        #: data) — replaying this log at rejoin closes that gap.  Cleared
        #: as soon as no node is demoted.
        self._replay_log: Dict[Tuple, "WriteSet"] = {}
        #: Largest write-set (ops) ever broadcast — the slack the buffer
        #: bound invariant allows above the configured cap.
        self._max_ws_ops = 0
        #: Durable-WAL mode state.  The storage RNG child is created only
        #: when the mode is on: ``RngStream.child`` consumes a parent draw,
        #: so an unconditional child would shift every later stream (the
        #: browsers') and break legacy seeded fingerprints.
        self.storage_rng = self.rng.child("storage") if self.durability_active else None
        #: (dedup_key, master_id, txn_id) of WAL records that were above the
        #: confirmed vector when their node crashed — ghost candidates for
        #: the no-ghost-commits invariant.
        self._ghosts: List[Tuple[Tuple, str, int]] = []
        #: Confirmed version vector snapshotted at each durable crash,
        #: consumed by the restart path and the durable-prefix invariant.
        self._crash_confirmed: Dict[str, VersionVector] = {}
        #: (node_id, crash_time, confirmed-at-crash dict) per completed
        #: restart-from-own-disk recovery.
        self._restart_audits: List[Tuple[str, float, Dict[str, int]]] = []
        #: Latest commit epoch per master (open, or sealed and awaiting its
        #: successor).
        self._epochs: Dict[str, _CommitEpoch] = {}
        #: Per-master update-admission semaphores (``update_mpl > 0`` only;
        #: created lazily so the legacy configuration allocates nothing).
        self._update_slots: Dict[str, Resource] = {}
        #: Conflict classes mid-re-home: updates routed to one of these park
        #: on the waiter queue until the ownership flip (drain barrier).
        self._rehoming_classes: set = set()
        #: Per-class commit counts since the last rebalancer tick, and the
        #: write-rate EWMAs fed from them.  Pure bookkeeping (no events, no
        #: RNG, no counters), so constructing them never perturbs a seeded
        #: run; the rebalancer daemon that acts on them is spawned only when
        #: dynamic classes are enabled.
        self._class_commits: Dict[int, int] = {}
        self.class_rates = ClassWriteRates(self.cost.config.class_rate_alpha)
        self._last_rehome_at = float("-inf")
        #: Last stored browser-pool profile (mix, scale, sequences, think,
        #: retries) so chaos flash-crowd events can add load mid-run.
        self._browser_profile = None
        self.sim.spawn(self._failure_detector(), name="failure-detector")
        if self.straggler_active:
            self.sim.spawn(self._laggard_monitor(), name="laggard-monitor")
        if self.rebalancer_active:
            self.sim.spawn(self._rebalancer_loop(), name="class-rebalancer")
        if checkpoint_period > 0:
            self.sim.spawn(self._checkpoint_daemon(checkpoint_period), name="checkpointer")
        if pageid_ship_every > 0:
            self.sim.spawn(self._pageid_shipper(pageid_ship_every), name="pageid-shipper")
        if gc_period > 0:
            self.sim.spawn(self._gc_daemon(gc_period), name="version-gc")

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

    # -- scheduler group -----------------------------------------------------------------
    @property
    def scheduler(self) -> VersionAwareScheduler:
        """The primary scheduler (lowest-id alive, ready agent)."""
        for agent in self.schedulers:
            if agent.alive and agent.ready:
                return agent.scheduler
        raise NodeUnavailable("no scheduler available")

    def _alive_scheduler_agents(self) -> List[SchedulerAgent]:
        return [a for a in self.schedulers if a.alive]

    # -- partial replication -------------------------------------------------------------
    @property
    def partial_active(self) -> bool:
        return self.interest.partial_active

    def _declare_interest_to_schedulers(self) -> None:
        """Push every node's interest set to every scheduler agent."""
        for node_id in self.nodes:
            tables = self.interest.get(node_id).tables
            for agent in self.schedulers:
                agent.scheduler.set_interest(node_id, tables)

    def _note_partial_freshness(self, sends) -> None:
        """Mark acked write-set versions known-fresh on every scheduler.

        Runs synchronously after the ack barrier, in the same event as the
        scheduler's version-vector merge, so there is no window in which a
        read tagged with the new versions could be routed to a slave whose
        ack has not been recorded yet.  Targets that died or were demoted
        during the barrier are skipped — their acks never arrived.
        """
        agents = self._alive_scheduler_agents()
        for target, frame, _ack in sends:
            if (
                target.alive
                and target.subscribed
                and target.node_id not in self._demoted
            ):
                for agent in agents:
                    agent.scheduler.note_slave_versions(target.node_id, frame.versions)

    def _broadcast_write_set(self, source: InMemoryDbNode, write_set, parent_span=NULL_SPAN):
        """Send one write-set to every subscribed slave, interest-filtered.

        Returns ``(target, frame, ack)`` triples for the frames actually
        sent.  With full replication (the default) every target gets the
        original object — same iteration order, same channel calls, same
        fingerprints as the historical inline loop.  Under partial
        replication each frame is restricted to the target's interest:
        fully filtered frames are never sent at all, and the per-target
        wire savings land under ``net.bytes_saved_partial``.
        """
        partial = self.interest.partial_active
        sends = []
        for target in self.nodes.values():
            if (
                target.node_id == source.node_id
                or not target.alive
                or target.slave is None
                or not target.subscribed
            ):
                continue
            frame = write_set
            if partial:
                frame = self.interest.restrict(target.node_id, write_set)
                if frame is None:
                    target.counters.add("net.write_sets_filtered")
                    target.counters.add("net.bytes_saved_partial", write_set.byte_size())
                    continue
                if frame is not write_set:
                    target.counters.add(
                        "net.bytes_saved_partial",
                        write_set.byte_size() - frame.byte_size(),
                    )
            ack = self._channel(source.node_id, target).send(frame, parent_span=parent_span)
            sends.append((target, frame, ack))
        return sends

    def _replicate_scheduler_state(self, source: VersionAwareScheduler) -> None:
        """Replicate the version vector to peer schedulers (one-way delay).

        These RPCs traverse the chaos network too, but they are fire-and-
        forget best effort (the next commit re-sends a superset vector), so
        losses land under ``net.sched_state_drops`` — NOT ``net.drops``,
        which is reserved for the write-set conservation invariant.
        """
        state = source.export_state()
        for agent in self.schedulers:
            if agent.alive and agent.scheduler is not source:
                link = self.net.link(source.scheduler_id, agent.agent_id)
                if link.lossy and link.drops():
                    self.counters.add("net.sched_state_drops")
                    continue
                delay = self.cost.config.net_latency
                if link.lossy:
                    delay += link.extra_delay()
                self.sim.schedule(delay, agent.scheduler.import_state, state)

    def kill_scheduler(self, agent_id: str) -> None:
        for agent in self.schedulers:
            if agent.agent_id == agent_id:
                agent.alive = False
                return
        raise NodeUnavailable(f"no scheduler {agent_id}")

    def kill_scheduler_at(self, agent_id: str, when: float) -> None:
        self.sim.schedule(max(0.0, when - self.sim.now()), self.kill_scheduler, agent_id)

    def _scheduler_takeover(self, successor: SchedulerAgent):
        """§4.1: a peer takes over after the primary scheduler fails."""
        detected = self.sim.now()
        successor.ready = False
        cfg = self.cost.config
        # Ask the masters to abort uncommitted transactions and report
        # their highest produced versions (one RPC round).
        yield self.sim.timeout(cfg.rtt())
        for node in self.nodes.values():
            if node.alive and node.master is not None:
                node.engine.abort_all_active(reason="scheduler-failure")
                successor.scheduler.import_state(node.master.current_versions().as_dict())
        # Rebuild the topology from ground truth and broadcast it.
        sched = successor.scheduler
        sched.slaves.clear()
        sched.masters = {
            n.node_id for n in self.nodes.values() if n.alive and n.master is not None
        }
        for node in self.nodes.values():
            if node.alive and node.slave is not None and node.subscribed:
                sched.add_slave(node.node_id, spare=node.node_id in self._spare_ids)
        yield self.sim.timeout(cfg.rtt())
        successor.ready = True
        self.scheduler_takeovers.append((detected, self.sim.now()))
        self._wake_update_waiters()

    # -- topology ------------------------------------------------------------------------
    def _add_slave(self, node_id: str, cache_pages: int, spare: bool) -> InMemoryDbNode:
        node = InMemoryDbNode(
            self.sim, node_id, self.cost, self.schemas, cache_pages, self.rows_per_page,
            tracer=self.tracer, durable=self.cost.config.durable_wal,
        )
        node.make_slave()
        self.nodes[node_id] = node
        if spare:
            self._spare_ids.add(node_id)
        for agent in self._alive_scheduler_agents():
            agent.scheduler.add_slave(node_id, spare=spare)
        return node

    def node(self, node_id: str) -> InMemoryDbNode:
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            raise NodeUnavailable(f"node {node_id} unavailable")
        return node

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

    # -- update admission (graceful degradation) ---------------------------------------------
    def acquire_master(self, tables: Sequence[str]):
        """Route an update to its master, queueing through reconfigurations.

        While the master of the tables' conflict class is being failed over,
        the update does not bounce with ``NodeUnavailable``: it is parked on
        a waiter event (counted under ``sched.queued_updates``) and released
        when a reconfiguration step completes.  The wait is bounded by one
        absolute deadline of ``update_queue_deadline`` seconds; expiry
        counts a ``sched.deadline_rejects`` and fails with reason
        ``reconfig-deadline``.  Unrecoverable situations (no scheduler, a
        recorded dead-end master, no conceivable successor) fail fast.
        """
        deadline = self.sim.now() + self.cost.config.update_queue_deadline
        queued = False
        while True:
            if self._rehoming_classes and tables:
                # Drain barrier of an in-flight class re-home: updates for
                # the moving class park here until the ownership flip, so no
                # transaction ever straddles old and new owner.
                try:
                    moving = self.conflict_map.class_of_tables(list(tables))
                except ConfigError:
                    moving = None
                if moving is not None and moving in self._rehoming_classes:
                    if not queued:
                        queued = True
                        self.counters.add("sched.queued_updates")
                    remaining = deadline - self.sim.now()
                    if remaining <= 0:
                        self.counters.add("sched.deadline_rejects")
                        expired = NodeUnavailable(
                            "update queue deadline expired during class re-home"
                        )
                        expired.reason = "reconfig-deadline"
                        raise expired
                    waiter = self.sim.event()
                    self._update_waiters.append(waiter)
                    yield self.sim.any_of([waiter, self.sim.timeout(remaining)])
                    continue
            master_id: Optional[str] = None
            try:
                master_id = self.scheduler.route_update(list(tables))
                node = self.nodes.get(master_id)
                if node is not None and node.alive and node.master is not None:
                    return node
                unavailable = NodeUnavailable(f"{master_id} is not serving as master yet")
            except NodeUnavailable as exc:
                unavailable = exc
            if not self._may_recover(master_id):
                raise unavailable
            if not queued:
                limit = self.cost.config.update_queue_limit
                if limit and len(self._update_waiters) >= limit:
                    # Bounded waiter queue: beyond the cap new arrivals are
                    # shed immediately with a retryable rejection instead of
                    # parking — the browser backs off and retries, and the
                    # queue cannot grow without bound through a long
                    # reconfiguration.
                    self.counters.add("sched.shed_requests")
                    shed = NodeUnavailable(
                        "update admission queue full during reconfiguration"
                    )
                    shed.reason = "queue-shed"
                    raise shed
                queued = True
                self.counters.add("sched.queued_updates")
            remaining = deadline - self.sim.now()
            if remaining <= 0:
                self.counters.add("sched.deadline_rejects")
                expired = NodeUnavailable(
                    "update queue deadline expired during reconfiguration"
                )
                expired.reason = "reconfig-deadline"
                raise expired
            waiter = self.sim.event()
            self._update_waiters.append(waiter)
            yield self.sim.any_of([waiter, self.sim.timeout(remaining)])

    def _may_recover(self, master_id: Optional[str]) -> bool:
        """Could a queued update for ``master_id`` plausibly be served later?"""
        if master_id is not None and master_id in self._reconfig_dead_ends:
            return False
        if not self._alive_scheduler_agents():
            return False
        if self._reconfiguring:
            return True
        if any(not a.ready for a in self._alive_scheduler_agents()):
            return True  # scheduler takeover in flight
        # Not mid-reconfiguration: recovery is conceivable only if the
        # failure has not been detected yet and a successor candidate exists.
        return any(
            n.alive and n.slave is not None and n.subscribed and n.master is None
            for n in self.nodes.values()
        )

    def _wake_update_waiters(self) -> None:
        """Release every queued update to re-route (topology changed)."""
        waiters, self._update_waiters = self._update_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed(None)

    def _update_slot(self, node_id: str) -> Resource:
        slot = self._update_slots.get(node_id)
        if slot is None:
            slot = self._update_slots[node_id] = Resource(
                self.sim, self.cost.config.update_mpl
            )
        return slot

    def admit_update(
        self,
        tables: Sequence[str],
        tenant: str = "default",
        deadline: Optional[float] = None,
    ):
        """Route an update to its master and, when ``update_mpl`` bounds the
        per-master multiprogramming level, wait for an admission slot.

        Returns ``(node, slot)``; ``slot`` is ``None`` when admission is
        unbounded (legacy).  The slot is re-validated after the wait: the
        master may have died or the class re-homed while queued, in which
        case the update re-routes rather than executing against a stale
        owner.

        With the overload defenses on, the per-tenant admission gate runs
        first (shedding at the door is the cheapest outcome), an expired
        ``deadline`` cancels the update both before routing and after any
        slot wait (queued work whose client has given up is pure waste),
        and the observed routing+slot queueing delay feeds the admission
        controller's watermark EWMA.
        """
        self.admission_check("update", tenant)
        entered = self.sim.now()
        while True:
            if deadline is not None and self.sim.now() >= deadline:
                raise self.deadline_cancel("admit")
            node = yield from self.acquire_master(tables)
            if self.cost.config.update_mpl <= 0:
                self._observe_admission_delay(entered)
                return node, None
            slot = self._update_slot(node.node_id)
            yield from slot.acquire()
            if deadline is not None and self.sim.now() >= deadline:
                slot.release()
                raise self.deadline_cancel("mpl-queue")
            stale = not node.alive or node.master is None
            if not stale and tables:
                try:
                    stale = self.conflict_map.master_for_tables(tables) != node.node_id
                except ConfigError:
                    stale = True
            if not stale:
                self._observe_admission_delay(entered)
                return node, slot
            slot.release()

    # -- straggler tolerance (laggard demotion + rejoin) ---------------------------------------
    @property
    def straggler_active(self) -> bool:
        """True when laggard demotion machinery may act (non-``all`` policy)."""
        return self.ack_policy != "all"

    @property
    def rebalancer_active(self) -> bool:
        """True when the dynamic conflict-class rebalancer daemon runs."""
        cfg = self.cost.config
        return cfg.dynamic_classes and cfg.rebalance_interval > 0

    @property
    def durability_active(self) -> bool:
        """True when nodes keep durable WALs (restart-from-own-disk mode)."""
        return self.cost.config.durable_wal

    @property
    def overload_active(self) -> bool:
        """True when scheduler-side admission control may shed requests."""
        cfg = self.cost.config
        return cfg.admission_rate > 0 or cfg.admission_queue_watermark > 0

    # -- overload defenses (admission + deadline propagation) ----------------------------------
    def admission_check(self, kind: str, tenant: str) -> None:
        """Shed ``kind`` (``read``/``update``) at the door, or admit it.

        Raises a retryable-looking :class:`NodeUnavailable` with reason
        ``admission-reject``; well-behaved clients treat it as a shed (no
        immediate retry) — that is the whole point of rejecting cheaply.
        """
        if self.admission is None:
            return
        cause = self.admission.admit(kind, tenant, self.sim.now())
        if cause is not None:
            self.counters.add("sched.admission_rejects")
            shed = NodeUnavailable(f"admission rejected {kind} ({cause})")
            shed.reason = "admission-reject"
            raise shed

    def deadline_cancel(self, stage: str) -> NodeUnavailable:
        """Build (and count) the terminal error for an expired deadline."""
        self.counters.add("sched.deadline_cancels")
        expired = NodeUnavailable(f"request deadline expired at {stage}")
        expired.reason = "deadline"
        return expired

    def _observe_admission_delay(self, entered: float) -> None:
        if self.admission is not None:
            now = self.sim.now()
            self.admission.observe_queue_delay(now - entered, now)

    def is_demoted(self, node_id: str) -> bool:
        return node_id in self._demoted

    def set_slowdown(self, node_id: str, factor: float) -> None:
        """Chaos ``slowdown`` fault: inflate one node's service times."""
        node = self.nodes.get(node_id)
        if node is not None:
            node.slowdown = max(1.0, factor)

    def demote_slave(self, node_id: str, reason: str = "laggard") -> bool:
        """Demote a laggard slave to catch-up mode (out of the ack set).

        The demoted replica stays alive and keeps answering heartbeats —
        this is the gray-failure path, distinct from fail-stop.  Its
        buffered-but-unconfirmed tail is discarded (rejoin re-fetches
        everything via page migration), it is unsubscribed from the
        broadcast, and the scheduler stops routing fresh-version reads to
        it.  Refused when it is the last subscribed slave: the cluster
        must always keep a failover candidate.
        """
        node = self.nodes.get(node_id)
        if (
            node is None
            or not node.alive
            or node.slave is None
            or node.master is not None
            or node_id in self._demoted
            or node.slave.catching_up
            or not node.subscribed
        ):
            return False
        others = [
            n
            for n in self.nodes.values()
            if n.node_id != node_id
            and n.alive
            and n.slave is not None
            and n.master is None
            and n.subscribed
            and not n.slave.catching_up
        ]
        if not others:
            self.counters.add("slave.demotions_vetoed")
            return False
        try:
            confirmed = self.scheduler.latest
        except NodeUnavailable:
            return False
        # Everything left buffered after this is confirmed history, so a
        # later rejoin can safely apply it; the unconfirmed tail returns
        # via migrated pages instead.
        node.slave.discard_above(confirmed)
        node.subscribed = False
        for agent in self._alive_scheduler_agents():
            agent.scheduler.set_demoted(node_id, True)
        self.laggard.forget(node_id)
        self._demoted[node_id] = self.tracer.span(
            "demote", node=node_id, reason=reason
        )
        self._ever_demoted.add(node_id)
        self.counters.add("slave.demotions")
        return True

    def _laggard_monitor(self):
        """Probe demoted slaves and re-integrate the ones that recovered.

        Each period every demoted, still-alive slave gets one synthetic
        receive-sized health probe; its service time reflects the node's
        current degradation.  ``rejoin_probes`` consecutive healthy probes
        trigger rejoin through a drain barrier + data migration.
        """
        cfg = self.cost.config
        healthy: Dict[str, int] = {}
        while True:
            yield self.sim.timeout(cfg.laggard_probe_interval)
            for node_id in list(self._demoted):
                node = self.nodes.get(node_id)
                if node is None or not node.alive or node.slave is None:
                    # Crashed (or promoted) while demoted: the heartbeat
                    # detector owns it now.
                    healthy.pop(node_id, None)
                    continue
                baseline = self.cost.receive_cpu(cfg.laggard_probe_ops)
                start = self.sim.now()
                try:
                    yield node.job(node.receive_cost(cfg.laggard_probe_ops), "probe")
                except (NodeUnavailable, TransactionAborted):
                    healthy.pop(node_id, None)
                    continue
                took = self.sim.now() - start
                if took <= baseline * cfg.rejoin_health_factor:
                    healthy[node_id] = healthy.get(node_id, 0) + 1
                else:
                    healthy[node_id] = 0
                if healthy.get(node_id, 0) >= cfg.rejoin_probes:
                    healthy.pop(node_id, None)
                    yield from self._rejoin_demoted(node_id)

    def _rejoin_demoted(self, node_id: str):
        """Re-integrate a recovered laggard: drain barrier + migration."""
        node = self.nodes.get(node_id)
        if (
            node is None
            or not node.alive
            or node.slave is None
            or node_id not in self._demoted
        ):
            return
        # Drain barrier: while demoted the channels to this node fast-fail,
        # so their outboxes empty quickly; wait for them to go idle so no
        # stale pre-demotion send can land behind the catch-up stream.
        while any(
            (channel._busy or channel._outbox)
            for (_src, target_id), channel in self._channels.items()
            if target_id == node_id
        ):
            yield self.sim.timeout(self.cost.config.laggard_probe_interval)
        if not node.alive or node.slave is None:
            return
        timeline = FailoverTimeline(
            failure_time=self.sim.now(), detection_time=self.sim.now()
        )
        # No yield between leaving the demoted set and subscribing in
        # catch-up mode (_timed_migration's synchronous prefix), so there
        # is no window where a broadcast could slip past both states.
        span = self._demoted.pop(node_id)
        yield from self._timed_migration(node, timeline)
        timeline.migration_done = self.sim.now()
        self.timelines.append(timeline)
        for agent in self._alive_scheduler_agents():
            agent.scheduler.set_demoted(node_id, False)
        self.counters.add("slave.rejoins")
        span.finish(status="rejoined")

    # -- replication ------------------------------------------------------------------------
    def commit_update(
        self, node: InMemoryDbNode, txn, queries, mpl_slot=None, deadline=None
    ):
        """Master pre-commit (Figure 2): join an epoch, seal it, wait for it.

        Every update commit is a member of a commit epoch; the default
        ``epoch_max_txns=1`` is simply the smallest one.  OCC validation
        runs per transaction at epoch *join*, and the member's page locks
        are released there (safe because OCC page stamps advance at write
        time, and an unpublished epoch only dies with the whole master),
        while the version-vector advance, the WAL force, the broadcast and
        the ack barrier are paid once per sealed epoch.

        This job owns the transaction's root span from the moment the
        connection spawns it: whatever path the commit takes (success,
        master death mid-broadcast, interrupt), the root is closed here
        with a terminal ``status`` tag.  It also owns the update-admission
        slot (``update_mpl > 0``), released on every exit path.
        """
        cfg = self.cost.config
        root = getattr(txn, "obs_span", NULL_SPAN)
        committed = False
        started = self.sim.now()
        try:
            if not node.alive or not txn.active:
                raise NodeUnavailable(f"master {node.node_id} failed before commit")
            if deadline is not None and self.sim.now() >= deadline:
                # The client has already given up: abort instead of paying
                # for pre-commit, WAL force and a full broadcast barrier.
                node.engine.abort(txn, reason="deadline")
                self.counters.add("sched.deadline_cancels")
                raise TransactionAborted(
                    "request deadline expired at commit", reason="deadline"
                )
            yield from node.cpu.acquire()
            pre = (
                root.child("precommit", node=node.node_id)
                if root.recording
                else NULL_SPAN
            )
            epoch = self._open_epoch(node)
            ops = None
            try:
                if pre.recording:
                    # join_epoch annotates txn.obs_span with the commit
                    # version vector and dirtied page ids (see MasterReplica).
                    txn.obs_span = pre
                try:
                    ops, commit_versions = node.master.join_epoch(txn, epoch.versions)
                except TransactionAborted as exc:
                    # OCC read-set validation failed: the transaction is
                    # still ACTIVE and revertible, and the connection has
                    # already detached it — roll it back here so the
                    # browser's retry starts from clean state.
                    if node.alive and txn.active:
                        node.engine.abort(txn, reason=getattr(exc, "reason", "abort"))
                    raise
                finally:
                    if pre.recording:
                        txn.obs_span = root
                if ops is not None:
                    node.master.finalize(txn)
                    epoch.ops.extend(ops)
                    epoch.members.append((txn.txn_id, commit_versions, queries, root))
                    yield self.sim.timeout(self.cost.precommit_cpu(len(ops)))
            finally:
                node.cpu.release()
                if ops is not None:
                    pre.finish(
                        status="ok", ops=len(ops), epoch_members=len(epoch.members)
                    )
                else:
                    pre.finish(status="read-only")
            if ops is not None:
                if len(epoch.members) >= cfg.epoch_max_txns or cfg.epoch_ms <= 0:
                    yield from self._seal_epoch(node, epoch)
                yield epoch.done
                if not epoch.done.value:
                    # Master died before the epoch was confirmed to the
                    # scheduler: recovery discards these partially
                    # propagated modifications (paper §4.2).
                    raise NodeUnavailable(
                        f"master {node.node_id} failed during commit"
                    )
            yield self.sim.timeout(cfg.rtt())
            committed = True
            if ops is not None:
                self.metrics.commit_latency.record(self.sim.now() - started)
            return None
        finally:
            if mpl_slot is not None:
                mpl_slot.release()
            root.finish(status="committed" if committed else "aborted")

    def _note_class_commits(self, versions, count: int) -> None:
        """Feed per-class commit counts to the rebalancer's rate tracker."""
        if not versions:
            return
        try:
            cls = self.conflict_map.class_of(next(iter(versions)))
        except ConfigError:
            return
        self._class_commits[cls] = self._class_commits.get(cls, 0) + count

    def _open_epoch(self, node: InMemoryDbNode) -> _CommitEpoch:
        epoch = self._epochs.get(node.node_id)
        if epoch is None or epoch.sealed:
            epoch = _CommitEpoch(self.sim.event())
            self._epochs[node.node_id] = epoch
            if self.cost.config.epoch_ms > 0:
                self.sim.spawn(self._epoch_timer(node, epoch), name="epoch-timer")
        return epoch

    def _epoch_timer(self, node: InMemoryDbNode, epoch: _CommitEpoch):
        """Seal an open epoch after ``epoch_ms`` even if it never filled."""
        yield self.sim.timeout(self.cost.config.epoch_ms / 1000.0)
        if epoch.sealed:
            return
        if node.alive and node.master is not None:
            yield from self._seal_epoch(node, epoch)
        else:
            # The master died with the epoch open: fail every member (the
            # browsers retry), exactly like a mid-broadcast master crash.
            epoch.sealed = True
            if not epoch.done.triggered:
                epoch.done.succeed(False)

    def _seal_epoch(self, node: InMemoryDbNode, epoch: _CommitEpoch):
        """Close one epoch: one write-set, one WAL force, one ack barrier.

        Runs in the sealing member's (or the timer's) process.  ``done``
        always resolves — in a ``finally`` — so joined members can never
        hang; it carries False unless the epoch was fully published.
        """
        if epoch.sealed:
            return
        epoch.sealed = True
        cfg = self.cost.config
        ok = False
        try:
            if not node.alive or not epoch.members:
                return
            # The first member names the write-set, so its root span is
            # the parent of the broadcast (and retransmit) spans.
            first_txn_id, _versions, _queries, first_root = epoch.members[0]
            write_set = node.master.seal_epoch(first_txn_id, epoch.ops, epoch.versions)
            # Durable mode: the write-set is on the master's own log before
            # any ack can exist (write-ahead rule); one group force covers
            # every member.
            node.log_write_set(write_set)
            if node.durable:
                yield self.sim.timeout(cfg.wal_fsync_time)
            retain = (self.straggler_active and self._demoted) or (
                self.durability_active and self._any_node_down()
            )
            if retain:
                # Demoted (or crashed-but-restartable) nodes miss this
                # broadcast entirely; retain it for gap replay at their
                # rejoin/restart.
                self._replay_log[write_set.dedup_key()] = write_set
            elif self._replay_log:
                self._replay_log.clear()
            sends = self._broadcast_write_set(node, write_set, parent_span=first_root)
            acks = [ack for _target, _frame, ack in sends]
            if self.straggler_active and self._demoted:
                excluded = sum(
                    1
                    for node_id in self._demoted
                    if (peer := self.nodes.get(node_id)) is not None and peer.alive
                )
                if excluded:
                    self.counters.add("net.acks_skipped_demoted", excluded)
            if acks:
                # Every member waits out the same barrier, so each root
                # gets its own ``ack`` span over it.
                ack_spans = (
                    [
                        root.child(
                            "ack",
                            node=node.node_id,
                            seq=write_set.seq,
                            replicas=len(acks),
                        )
                        for _txn_id, _versions, _queries, root in epoch.members
                    ]
                    if self.tracer.enabled
                    else ()
                )
                try:
                    yield from self._ack_barrier(acks)
                finally:
                    if ack_spans:
                        acked = sum(1 for a in acks if a.triggered and a.value)
                        for span in ack_spans:
                            span.finish(acked=acked)
            if not node.alive:
                return
            primary = self.scheduler
            for txn_id, versions, queries, _root in epoch.members:
                primary.on_master_commit(node.node_id, versions, queries, txn_id)
                # Scheduler-confirmed == fully replicated: this is the durable
                # history the chaos durability invariant audits survivors for.
                self.commit_log.append((node.node_id, txn_id, dict(versions)))
            if self.interest.partial_active:
                self._note_partial_freshness(sends)
            self._replicate_scheduler_state(primary)
            if self.rebalancer_active:
                self._note_class_commits(epoch.versions, len(epoch.members))
            ok = True
        finally:
            if not epoch.done.triggered:
                epoch.done.succeed(ok)

    # -- dynamic conflict-class sharding (rebalancer + re-home handoff) ------------------------
    def _class_masters(self) -> List[InMemoryDbNode]:
        """Alive nodes able to own conflict classes (dual master+slave)."""
        return [
            node
            for _, node in sorted(self.nodes.items())
            if node.alive
            and node.master is not None
            and node.slave is not None
            and isinstance(node.engine.controller, DualController)
        ]

    def _rebalancer_loop(self):
        """Load-driven split/merge/re-home of conflict classes.

        Samples per-class commit counts every ``rebalance_interval``
        seconds into write-rate EWMAs, folds cold split-products back
        together, and moves (splitting first if necessary) the hottest
        movable class from the most- to the least-loaded master when the
        imbalance crosses ``rebalance_imbalance``.
        """
        cfg = self.cost.config
        while True:
            yield self.sim.timeout(cfg.rebalance_interval)
            counts, self._class_commits = self._class_commits, {}
            self.class_rates.observe_tick(counts, cfg.rebalance_interval)
            if self.sim.now() - self._last_rehome_at < cfg.rebalance_cooldown:
                continue
            if self._reconfiguring or self._rehoming_classes:
                continue
            self._maybe_merge()
            plan = self._plan_rebalance()
            if plan is None:
                continue
            class_id, dst_id = plan
            self._last_rehome_at = self.sim.now()
            yield from self._rehome_class(class_id, dst_id)

    def _plan_rebalance(self) -> Optional[Tuple[int, str]]:
        """Pick ``(class_id, destination_master)`` to move, or ``None``.

        Deterministic: candidates are iterated in sorted order, so the
        same seed always yields the same re-home sequence.
        """
        cfg = self.cost.config
        masters = self._class_masters()
        if len(masters) < 2:
            return None
        rates = {c: self.class_rates.rate(c) for c in self.conflict_map.class_ids()}
        load: Dict[str, float] = {n.node_id: 0.0 for n in masters}
        for class_id, rate in sorted(rates.items()):
            owner = self.conflict_map.master_of_class(class_id)
            if owner in load:
                load[owner] += rate
        hot_id = max(sorted(load), key=lambda m: load[m])
        cool_id = min(sorted(load), key=lambda m: load[m])
        if hot_id == cool_id or load[hot_id] < cfg.rebalance_min_rate:
            return None
        if load[hot_id] < cfg.rebalance_imbalance * max(load[cool_id], 1e-9):
            return None
        hot_classes = sorted(
            (c for c in rates if self.conflict_map.master_of_class(c) == hot_id),
            key=lambda c: (-rates[c], c),
        )
        if not hot_classes:
            return None
        if len(hot_classes) > 1:
            # Shed the second-hottest class: the hot master keeps its head
            # of load, the destination picks up real (but smaller) work.
            return hot_classes[1], cool_id
        # One hot class owns the whole master: split it along atom
        # boundaries and move the colder half.  A single-atom class is the
        # floor (moving whole would just relocate the imbalance).
        new_id = self.conflict_map.split_class(hot_classes[0])
        if new_id is None:
            return None
        self.class_rates.migrate(hot_classes[0], new_id)
        self.counters.add("sched.class_splits")
        return new_id, cool_id

    def _maybe_merge(self) -> None:
        """Fold one cold class into a cold co-located sibling.

        Classes start at atom granularity, so merging is what *creates*
        multi-atom classes — and thereby the classes a later hot-spot
        split can cut apart again.  Both candidates must be cold (below
        ``rebalance_min_rate``) and share an owner, so a merge never moves
        tables between masters and never couples a hot stream to anything.
        """
        cfg = self.cost.config
        for absorb in sorted(self.conflict_map.class_ids(), reverse=True):
            if self.class_rates.rate(absorb) >= cfg.rebalance_min_rate:
                continue
            owner = self.conflict_map.master_of_class(absorb)
            siblings = [
                c
                for c in self.conflict_map.class_ids()
                if c != absorb
                and self.conflict_map.master_of_class(c) == owner
                and self.class_rates.rate(c) < cfg.rebalance_min_rate
            ]
            if not siblings:
                continue
            self.conflict_map.merge_classes(min(siblings), absorb)
            self.class_rates.forget(absorb)
            self.counters.add("sched.class_merges")
            return

    def rehome_class_to(self, class_id: int, dst_id: str):
        """Spawn a re-home of ``class_id`` onto ``dst_id`` (chaos hook)."""
        return self.sim.spawn(
            self._rehome_class(class_id, dst_id), name=f"rehome-{class_id}"
        )

    def rehome_table_to(self, table: str, dst_id: str):
        """Spawn a re-home of ``table``'s class onto ``dst_id`` (chaos hook)."""
        return self.rehome_class_to(self.conflict_map.class_of(table), dst_id)

    def _class_quiescent(self, node: InMemoryDbNode, tables: set) -> bool:
        """No in-flight update on ``node`` touches ``tables``."""
        for txn in node.engine.active_transactions():
            if txn.mode is not TxnMode.UPDATE:
                continue
            if (set(txn.write_intent) | set(txn.tables_written)) & tables:
                return False
        epoch = self._epochs.get(node.node_id)
        if epoch is not None and not epoch.sealed and epoch.members:
            return False
        return True

    def _class_caught_up(self, src: InMemoryDbNode, dst: InMemoryDbNode, tables) -> bool:
        """``dst`` has received every write-set for ``tables`` that ``src``
        (their current master) ever published."""
        for table in tables:
            if dst.slave.received_versions.get(table) < src.engine.versions.get(table):
                return False
        return True

    def _rehome_class(self, class_id: int, dst_id: str):
        """Drain-barrier handoff of one conflict class to a new master.

        State machine (DESIGN.md §13): PARK new updates for the class →
        DRAIN in-flight transactions, the open epoch and the replication
        channels → ADOPT on the destination (apply buffered ops, continue
        the version sequences) → FLIP ownership atomically (conflict map
        epoch bump + dual-controller owned sets + scheduler table) → WAKE
        parked updates.  Every abort path leaves ownership untouched and
        wakes the parked updates, so a master kill mid-handoff degrades to
        the ordinary failover path.
        """
        cfg = self.cost.config
        try:
            src_id = self.conflict_map.master_of_class(class_id)
        except ConfigError:
            return
        if src_id == dst_id or class_id in self._rehoming_classes:
            return
        src = self.nodes.get(src_id)
        dst = self.nodes.get(dst_id)
        if (
            src is None
            or dst is None
            or not src.alive
            or not dst.alive
            or not isinstance(src.engine.controller, DualController)
            or dst.master is None
            or dst.slave is None
            or not isinstance(dst.engine.controller, DualController)
        ):
            self.counters.add("sched.rehome_aborts")
            return
        tables = set(self.conflict_map.tables_of_class(class_id))
        span = self.tracer.span(
            "rehome", kind="rehome", conflict_class=class_id, src=src_id, dst=dst_id
        )
        self._rehoming_classes.add(class_id)
        flipped = False
        try:
            deadline = self.sim.now() + cfg.rehome_drain_timeout
            while True:
                if not src.alive or not dst.alive or self._reconfiguring:
                    self.counters.add("sched.rehome_aborts")
                    return
                if self._class_quiescent(src, tables) and self._class_caught_up(
                    src, dst, tables
                ):
                    break
                if self.sim.now() >= deadline:
                    self.counters.add("sched.rehome_aborts")
                    return
                yield self.sim.timeout(cfg.laggard_probe_interval / 100.0)
            # Handoff cost: coordination overhead + per-table adoption +
            # applying whatever the destination still has buffered.
            pending = dst.slave.pending_op_count()
            yield self.sim.timeout(self.cost.rehome_cost(len(tables), pending))
            if not src.alive or not dst.alive or self._reconfiguring:
                self.counters.add("sched.rehome_aborts")
                return
            # -- atomic flip: no yields from here on ---------------------------
            latest = VersionVector(
                {t: src.engine.versions.get(t) for t in sorted(tables)}
            )
            # Materialise the destination's buffered prefix up to the
            # confirmed frontier (the moved tables are quiescent, so their
            # entire history is confirmed); unconfirmed ops of *other*
            # masters' in-flight commits stay queued.
            target = self._confirmed_vector()
            target.merge(latest)
            dst.slave.drain_to(target)
            for table in sorted(tables):
                version = latest.get(table)
                if dst.engine.versions.get(table) < version:
                    dst.engine.versions.set(table, version)
            # The old owner becomes an ordinary reader of the moved tables;
            # its pages are already at the final versions (it wrote them).
            src.slave.received_versions.merge(latest)
            src.engine.controller.owned -= tables
            dst.engine.controller.owned |= tables
            self.conflict_map.rehome_class(class_id, dst_id)
            for agent in self._alive_scheduler_agents():
                agent.scheduler.on_class_rehome(class_id, dst_id)
            self.counters.add("sched.class_rehomes")
            flipped = True
        finally:
            self._rehoming_classes.discard(class_id)
            self._wake_update_waiters()
            span.finish(status="flipped" if flipped else "aborted")

    def _ack_barrier(self, acks):
        """Wait out the pre-commit acks according to the ack policy.

        ``all`` and ``all-healthy`` both wait for every ack in the list —
        they differ upstream: under ``all-healthy`` demoted slaves never
        enter the list (they are unsubscribed), so the barrier covers
        exactly the healthy replicas.  ``quorum`` resolves as soon as
        ``quorum_k`` positive acks arrive; acks always trigger (success or
        failure), so the barrier also resolves when every ack is in — no
        deadlock even if the quorum is unreachable (the post-barrier
        liveness checks and reconfiguration take over then).
        """
        if self.ack_policy != "quorum":
            yield self.sim.all_of(acks)
            return
        self.counters.add("net.quorum_commits")
        need = min(len(acks), self.quorum_k)
        done = self.sim.event()
        state = [0, 0]  # positive acks, resolved acks

        def on_ack(event) -> None:
            state[1] += 1
            if event.value:
                state[0] += 1
            if not done.triggered and (state[0] >= need or state[1] == len(acks)):
                done.succeed(None)

        for ack in acks:
            ack.add_callback(on_ack)
        yield done
        if state[1] < len(acks):
            # The quorum released this commit while at least one ack was
            # still outstanding — the headline straggler win.
            self.counters.add("net.quorum_saves")

    def _channel(self, source_id: str, target: InMemoryDbNode) -> ReplicationChannel:
        key = (source_id, target.node_id)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = ReplicationChannel(self, source_id, target)
        return channel

    # -- failure injection & detection ---------------------------------------------------------
    def kill_node(self, node_id: str) -> None:
        node = self.nodes[node_id]
        was_alive = node.alive
        node.failed_at = self.sim.now()
        node.fail()
        if was_alive and self.durability_active and getattr(node, "durable", False):
            self._record_crash_state(node)

    def kill_node_at(self, node_id: str, when: float) -> None:
        self.sim.schedule(max(0.0, when - self.sim.now()), self.kill_node, node_id)

    def _any_node_down(self) -> bool:
        return any(not node.alive for node in self.nodes.values())

    def _confirmed_vector(self) -> VersionVector:
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

    def _record_crash_state(self, node: InMemoryDbNode) -> None:
        """Durable crash semantics: apply the WAL loss model, register ghosts.

        Snapshot the confirmed vector (the durable-prefix obligation for a
        later restart), lose the un-durable WAL tail (fsync-lie mode widens
        it past the believed-synced boundary), and record every WAL record
        above the confirmed vector — lost or surviving — as a ghost
        candidate: if its commit never confirms, nothing recovered from
        this disk may resurface it.
        """
        confirmed = self._confirmed_vector()
        self._crash_confirmed[node.node_id] = confirmed.copy()
        lost = node.crash_durable_state()
        # A torn record appears both in the lost tail and on disk; dedup by
        # LSN before classification.
        candidates = {r.lsn: r for r in list(lost) + node.wal.records_since(0)}
        for record in ghost_wal_records(candidates.values(), confirmed):
            self._ghosts.append((record.dedup_key(), record.master_id, record.txn_id))

    # -- storage-fault hooks (chaos events) ----------------------------------------------------
    def arm_torn_write(self, node_id: str) -> None:
        node = self.nodes.get(node_id)
        if node is not None and getattr(node, "durable", False):
            node.wal.arm_torn_write()

    def set_fsync_lie(self, node_id: str, lying: bool) -> None:
        node = self.nodes.get(node_id)
        if node is not None and getattr(node, "durable", False):
            node.wal.set_fsync_lies(lying)

    def inject_bitflip(self, node_id: str, target: str = "wal") -> None:
        """Flip a bit in one durable record/page, chosen by the storage RNG."""
        node = self.nodes.get(node_id)
        if node is None or not getattr(node, "durable", False) or self.storage_rng is None:
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

    def suspect_node(self, node_id: str) -> None:
        """Fail-stop suspicion: the retransmission budget for ``node_id``
        was exhausted, so the sender declares it failed (the paper's
        fail-stop model — an unreachable node IS a failed node).  The
        heartbeat detector then drives the normal reconfiguration."""
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return
        self.counters.add("net.suspicions")
        self.kill_node(node_id)

    def _failure_detector(self):
        missed = self._missed  # instance state: cleared per-node on reintegration
        while True:
            yield self.sim.timeout(self.heartbeat_interval)
            for node_id, node in list(self.nodes.items()):
                if node.alive:
                    missed[node_id] = 0
                    continue
                if node_id in self._handled_failures:
                    continue
                missed[node_id] = missed.get(node_id, 0) + 1
                if missed[node_id] >= self.heartbeat_misses:
                    self._handled_failures.add(node_id)
                    self.sim.spawn(self._reconfigure(node_id), name="reconfigure")
            # Peer schedulers watch each other (paper §4.1).
            for index, agent in enumerate(self.schedulers):
                if agent.alive:
                    missed[agent.agent_id] = 0
                    continue
                if agent.agent_id in self._handled_failures:
                    continue
                missed[agent.agent_id] = missed.get(agent.agent_id, 0) + 1
                if missed[agent.agent_id] >= self.heartbeat_misses:
                    self._handled_failures.add(agent.agent_id)
                    was_primary = all(not a.alive for a in self.schedulers[:index])
                    successor = next((a for a in self.schedulers if a.alive), None)
                    if was_primary and successor is not None:
                        self.sim.spawn(
                            self._scheduler_takeover(successor), name="sched-takeover"
                        )

    def _reconfigure(self, failed_id: str):
        """Timed failure reconfiguration (paper §4.1-4.5).

        While it runs, ``failed_id`` is in the graceful-degradation window:
        updates for its conflict classes queue (bounded by
        ``update_queue_deadline``) instead of failing immediately.  If no
        successor can be elected the master is recorded as a dead end and
        queued updates are released with a clean error — never a hang.
        """
        failed = self.nodes[failed_id]
        timeline = FailoverTimeline(
            failure_time=failed.failed_at or self.sim.now(),
            detection_time=self.sim.now(),
        )
        self.timelines.append(timeline)
        cfg = self.cost.config
        was_master = failed.master is not None
        if was_master:
            self._reconfiguring.add(failed_id)
        try:
            yield from self._reconfigure_body(failed, failed_id, timeline, cfg, was_master)
        finally:
            self._reconfiguring.discard(failed_id)
            self._wake_update_waiters()

    def _reconfigure_body(self, failed, failed_id: str, timeline, cfg, was_master: bool):
        for agent in self._alive_scheduler_agents():
            agent.scheduler.remove_node(failed_id)
        while True:
            if not self._alive_scheduler_agents():
                # Every scheduler agent is gone: no coordinator exists to
                # run the protocol.  Record the dead end so clients fail
                # cleanly instead of hanging.
                self._reconfig_dead_ends.add(failed_id)
                return
            if any(a.ready for a in self._alive_scheduler_agents()):
                break
            # A scheduler takeover is resynchronising; reconfiguration
            # needs its confirmed version vector, so wait it out.
            yield self.sim.timeout(self.heartbeat_interval)
        if was_master:
            confirmed = self.scheduler.latest.copy()
            # Phase 1 (Recovery): ask every replica to discard unconfirmed
            # write-sets; one RPC round plus the discard work, plus the
            # fixed abort/election/topology coordination overhead.  Only the
            # FAILED master's conflict classes are cleaned — other masters'
            # in-flight pre-commits are still live.
            cleanup_vector = confirmed.copy()
            failed_tables = []
            for table in self.conflict_map.tables:
                owner = self.conflict_map.master_of_class(self.conflict_map.class_of(table))
                if owner != failed_id:
                    cleanup_vector.set(table, 1 << 60)
                else:
                    failed_tables.append(table)
            survivors = [
                n for n in self.nodes.values() if n.alive and n.slave is not None
            ]
            yield self.sim.timeout(cfg.rtt())
            dropped = cleanup_after_master_failure(
                [n.slave for n in survivors if n.subscribed], cleanup_vector
            )
            if (self.straggler_active or self.durability_active) and self._replay_log:
                # The gap-replay log must not resurrect write-sets the
                # cleanup just discarded cluster-wide (unconfirmed commits
                # of the failed master).
                self._replay_log = {
                    key: write_set
                    for key, write_set in self._replay_log.items()
                    if all(
                        version <= cleanup_vector.get(table)
                        for table, version in key[2]
                    )
                }
            yield self.sim.timeout(self.cost.apply_cpu(dropped) + cfg.recovery_overhead)
            # Elect + promote the lowest-id active (non-spare) slave.
            pure_slaves = [n for n in survivors if n.master is None]
            if self.interest.partial_active:
                # Only a slave whose interest covers the failed master's
                # tables can serve as its successor: a non-covering replica
                # never received those tables' write-sets, so promoting it
                # would resurrect the version-0 base as current state.
                pure_slaves = [
                    n
                    for n in pure_slaves
                    if self.interest.covers(n.node_id, failed_tables)
                ]
            candidates = [
                n.slave for n in pure_slaves if not self._is_spare(n.node_id) and n.subscribed
            ] or [n.slave for n in pure_slaves if n.subscribed]
            try:
                new_slave = elect_new_master(candidates)
            except NodeUnavailable:
                # Zero surviving subscribed slaves: the failed master's
                # conflict classes cannot be re-homed.  Record the dead end
                # (updates for them fail cleanly until an operator restores
                # capacity) rather than crashing the reconfiguration job.
                self._reconfig_dead_ends.add(failed_id)
                timeline.recovery_done = self.sim.now()
                timeline.migration_done = self.sim.now()
                return
            # Stop routing reads to the promotee before promotion begins.
            for agent in self._alive_scheduler_agents():
                agent.scheduler.remove_node(new_slave.node_id)
            new_node = self.nodes[new_slave.node_id]
            # In multi-master mode the promotee inherits only the failed
            # master's conflict classes and stays a slave for the rest.
            other_masters_alive = any(
                n.alive and n.master is not None and n.node_id != failed_id
                for n in self.nodes.values()
            )
            owned = None
            if other_masters_alive:
                owned = {
                    t
                    for t in self.conflict_map.tables
                    if self.conflict_map.master_of_class(self.conflict_map.class_of(t))
                    == failed_id
                }
            yield new_node.job(self._promotion_job(new_node, confirmed, owned), "promote")
            for agent in self._alive_scheduler_agents():
                agent.scheduler.on_master_failure(failed_id, new_slave.node_id)
            if self.straggler_active:
                # Under quorum acks a survivor outside the quorum may be
                # missing confirmed commits of the failed master (its
                # truncated watermark sits below ``confirmed``).  Serving
                # fresh-version reads from it would violate the snapshot
                # contract, so it is demoted and re-fetches the gap via
                # page migration at rejoin.  Never fires under ``all``:
                # every survivor acked every confirmed commit.
                for peer in list(self.nodes.values()):
                    if (
                        peer.alive
                        and peer.slave is not None
                        and peer.master is None
                        and peer.subscribed
                        and not peer.slave.catching_up
                        and any(
                            peer.slave.received_versions.get(t) < confirmed.get(t)
                            for t in failed_tables
                        )
                    ):
                        self.demote_slave(peer.node_id, reason="stale-after-failover")
        timeline.recovery_done = self.sim.now()
        self._reconfig_dead_ends.discard(failed_id)
        # Spare promotion: backfill active capacity from the spare pool.
        try:
            spares = self.scheduler.spare_slaves()
            need_backfill = was_master or not self.scheduler.active_slaves()
        except NodeUnavailable:
            timeline.migration_done = self.sim.now()
            return
        if spares and need_backfill:
            spare_node = self.nodes[spares[0].node_id]
            if not spare_node.subscribed:
                # Stale backup: catch it up via data migration first.
                yield from self._timed_migration(spare_node, timeline)
            self._spare_ids.discard(spare_node.node_id)
            for agent in self._alive_scheduler_agents():
                if spare_node.node_id in agent.scheduler.slaves:
                    agent.scheduler.promote_spare(spare_node.node_id)
        timeline.migration_done = self.sim.now()

    def _promotion_job(self, node: InMemoryDbNode, confirmed, owned_tables=None):
        yield from node.cpu.acquire()
        try:
            pending = node.slave.pending_op_count()
            slave = node.slave
            read_concurrency = self.cost.config.read_concurrency
            node.master = promote_slave_to_master(
                slave, confirmed, read_concurrency=read_concurrency
            )
            if owned_tables is not None:
                # Multi-master: keep a slave role for non-owned classes.
                from repro.core.dual import DualController

                node.engine.set_controller(
                    DualController(set(owned_tables), slave, read_concurrency=read_concurrency)
                )
                node.slave = slave
            else:
                node.slave = None
            # Applying the buffered ops costs CPU proportional to their count.
            yield self.sim.timeout(self.cost.apply_cpu(pending))
        finally:
            node.cpu.release()

    def _is_spare(self, node_id: str) -> bool:
        state = self.scheduler.slaves.get(node_id)
        return bool(state and state.spare)

    def _timed_migration(
        self, node: InMemoryDbNode, timeline: FailoverTimeline, wanted=None
    ):
        """Version-aware page transfer into ``node`` with time charged.

        ``wanted`` overrides the page versions the joiner advertises to its
        support (see :func:`integrate_stale_node`) — the restart-from-disk
        path passes WAL-coverage versions so only the downtime gap moves.
        """
        cfg = self.cost.config
        joiner_interest = self.interest.get(node.node_id)
        candidates = [
            n
            for n in self.nodes.values()
            if n.alive and n.slave is not None and n.subscribed and n.node_id != node.node_id
        ]
        if self.interest.partial_active:
            # Partial replication: only a support whose interest covers the
            # joiner's can serve every page (and in-flight frame) the
            # joiner subscribes to.  With none, fall through to the
            # degenerate master-source branch — masters hold everything.
            candidates = [
                n
                for n in candidates
                if self.interest.get(n.node_id).superset_of(joiner_interest)
            ]
        if self.straggler_active and candidates:
            # Quorum acks: a commit confirms with k slave acks, so an
            # arbitrary subscribed slave may still be missing confirmed
            # write-sets (they are in flight / being retransmitted to it).
            # Channels deliver in global enqueue order, so per-slave
            # histories are nested prefixes and the slave with the highest
            # received total provably holds every confirmed commit —
            # migrate from it, or the joiner would permanently miss the
            # gap (it subscribed after those broadcasts went out).
            support_node = max(
                (n for n in candidates if not n.slave.catching_up),
                key=lambda n: (n.slave.received_versions.total(), n.node_id),
                default=None,
            )
        else:
            # All-slave acks: every subscribed slave has every confirmed
            # write-set, so the first candidate is as good as any (and
            # keeps the default path's schedule byte-stable).
            support_node = candidates[0] if candidates else None
        if support_node is None:
            master = next(n for n in self.nodes.values() if n.alive and n.master is not None)
            # Degenerate single-survivor case: migrate from the master's
            # engine state via a temporary slave view.
            node.subscribed = True
            node.slave.catching_up = True
            images = [
                page.snapshot()
                for page in master.engine.store.all_pages()
                if joiner_interest.covers_table(page.page_id.table)
            ]
            from repro.storage.checkpoint import PageImage

            for snap in images:
                node.slave.receive_page(PageImage(snap.page_id, snap.version, snap))
            node.slave.finish_catchup()
            nbytes = sum(i.byte_size() for i in images)
            yield self.sim.timeout(cfg.net_delay(nbytes))
            timeline.migration_pages += len(images)
            timeline.migration_bytes += nbytes
            return
        node.subscribed = True
        node.slave.catching_up = True
        replay_ops = 0
        replay_bytes = 0
        if (self.straggler_active or self.durability_active) and self._replay_log:
            # Gap replay: write-sets broadcast while this node was demoted
            # (or down, under durable restart) never entered its channel,
            # and the support may not hold them
            # all either (under quorum acks a commit confirms before every
            # slave has its data).  Re-deliver them in stream order; the
            # duplicate filter skips what the node already has, and any op
            # the support's page images do cover is pruned when those
            # images land (receive_page keeps only ops above each image's
            # version).
            replica = node.slave
            for write_set in sorted(
                self._replay_log.values(), key=lambda w: (w.master_id, w.seq)
            ):
                # The replay log holds full frames; a partial joiner is
                # replayed only the restriction to its own interest — the
                # same frames the live broadcast would have sent it, so
                # the dedup keys line up.  (Full interest — the default —
                # returns the original object untouched.)
                write_set = joiner_interest.restrict(write_set)
                if write_set is None:
                    continue
                # Cheap pre-filters keep repeat rejoins from re-shipping
                # the whole log: a frame the node has seen, or whose
                # versions its (gap-free, by induction) state already
                # covers, needs no transmission at all.
                if write_set.dedup_key() in replica._seen_write_sets or all(
                    version <= replica.received_versions.get(table)
                    for table, version in write_set.versions.items()
                ):
                    continue
                # Each replayed frame is a real (re-)transmission: count it
                # sent so counter conservation (sent == received + dups +
                # drops) keeps holding.
                node.counters.add("net.write_sets_sent")
                before = replica.pending_ops
                replica.receive(write_set)
                accepted = replica.pending_ops - before
                if accepted > 0:
                    replay_ops += accepted
                    replay_bytes += write_set.byte_size()
            if replay_ops:
                self.counters.add("slave.replay_write_sets")
                self.counters.add("slave.replay_ops", replay_ops)
        # In-flight catch-up: a write-set broadcast moments before this node
        # subscribed may still be in flight to the support slave (a lossy
        # link retransmits for seconds).  Such a frame is in neither the
        # support's migration snapshot (not received there yet) nor this
        # node's subscription stream (the broadcast enumerated only
        # then-subscribed slaves) — without re-delivery the joiner goes
        # active with a silent hole no later write-set fills, because the
        # per-table versions advance right past it.  Frames the support has
        # in fact received (ack lost / in the ack delay window) are covered
        # by its page images and pruned by receive_page.
        replica = node.slave
        for (_src, target_id), channel in self._channels.items():
            if target_id != support_node.node_id:
                continue
            for write_set in channel.unacked_write_sets():
                # In-flight frames were restricted for the *support*; a
                # partial joiner takes only its own restriction of them.
                write_set = joiner_interest.restrict(write_set)
                if write_set is None:
                    continue
                if write_set.dedup_key() in replica._seen_write_sets:
                    continue
                # A real transmission: count the send so counter
                # conservation (sent == received + dups + drops) holds.
                node.counters.add("net.write_sets_sent")
                replica.receive(write_set)
                self.counters.add("slave.inflight_replayed")
        page_filter = (
            None
            if joiner_interest.is_full
            else (lambda image: joiner_interest.covers_table(image.page_id.table))
        )
        stats = integrate_stale_node(
            node.slave, support_node.slave, wanted=wanted, page_filter=page_filter
        )
        work = stats.pages_sent + stats.ops_index_applied + replay_ops
        yield support_node.job(self._migration_cpu(support_node, work), "migrate-src")
        # Only the page images and replayed gap ops cross the wire here;
        # the index-applied ops (also in stats.bytes_sent) already
        # traversed the replication stream during catch-up buffering.
        yield self.sim.timeout(cfg.net_delay(stats.bytes_page_images + replay_bytes))
        yield node.job(self._migration_cpu(node, work), "migrate-dst")
        # Migrated pages were just written into memory: they are resident.
        node.cache.warm(stats.page_ids)
        timeline.migration_pages += stats.pages_sent
        timeline.migration_bytes += stats.bytes_page_images

    # -- reintegration (timed reboot + data migration) ---------------------------------------------
    def reintegrate(self, node_id: str, support_id: Optional[str] = None, spare: bool = False):
        """Spawn the reintegration process; returns it (wait or observe)."""
        return self.sim.spawn(self._reintegrate(node_id, support_id, spare), name="reintegrate")

    def _reintegrate(self, node_id: str, support_id: Optional[str], spare: bool):
        node = self.nodes[node_id]
        timeline = FailoverTimeline(
            failure_time=node.failed_at or self.sim.now(), detection_time=self.sim.now()
        )
        node.restart_resources()
        node.slowdown = 1.0
        node.make_slave()
        node.subscribed = True
        # A node that crashed while demoted re-enters through the normal
        # reintegration path: close out its demotion record.
        stale_span = self._demoted.pop(node_id, None)
        if stale_span is not None:
            stale_span.finish(status="crashed")
        for agent in self._alive_scheduler_agents():
            agent.scheduler.set_demoted(node_id, False)
        self._handled_failures.discard(node_id)
        # Reset the failure detector's miss count too, or a later second
        # failure of this node would be detected off stale counts.
        self._missed.pop(node_id, None)
        # Reboot: restore from the local fuzzy checkpoint (sequential read),
        # with a cold OS page cache.
        restore_from_checkpoint(node.slave, node.stable)
        node.cache.invalidate_all()
        restore_bytes = sum(
            image.page.byte_size() for image in node.stable._images.values()
        )
        yield self.sim.timeout(self.cost.sequential_disk(restore_bytes))
        timeline.recovery_done = self.sim.now()
        yield from self._timed_migration(node, timeline)
        timeline.migration_done = self.sim.now()
        self.timelines.append(timeline)
        if spare:
            self._spare_ids.add(node_id)
        for agent in self._alive_scheduler_agents():
            agent.scheduler.add_slave(node_id, spare=spare)
        self._wake_update_waiters()
        return timeline

    def _migration_cpu(self, node: InMemoryDbNode, work_units: int):
        yield from node.cpu.acquire()
        try:
            yield self.sim.timeout(self.cost.config.cpu_per_op_apply * work_units)
        finally:
            node.cpu.release()

    # -- restart from own disk (durable-WAL recovery) ---------------------------------------------
    def restart_node(self, node_id: str):
        """Spawn restart-from-own-disk recovery; returns the process."""
        return self.sim.spawn(self._restart_from_disk(node_id), name="restart")

    def restart_node_at(self, node_id: str, when: float) -> None:
        self.sim.schedule(max(0.0, when - self.sim.now()), self.restart_node, node_id)

    def _restart_from_disk(self, node_id: str):
        """Restart a crashed node from its own checkpoint + WAL suffix.

        Contrast with :meth:`_reintegrate`: the checkpoint restore is
        followed by a redo of the fsynced WAL suffix (torn tail truncated
        at the first bad checksum, ghosts filtered against the scheduler's
        confirmed history), so the subsequent migration only moves the
        pages this node actually missed while down — gap replay plus a far
        smaller page transfer instead of every page modified since the
        last checkpoint.
        """
        node = self.nodes[node_id]
        if node.alive:
            return None  # raced with reintegrate / double restart
        if not node.durable:
            # Without a durable WAL the local state cannot be trusted past
            # the checkpoint; fall back to the classic reboot path.
            result = yield from self._reintegrate(node_id, None, False)
            return result
        crash_time = node.failed_at or self.sim.now()
        crash_confirmed = self._crash_confirmed.pop(node_id, None)
        timeline = FailoverTimeline(
            failure_time=crash_time, detection_time=self.sim.now()
        )
        node.restart_resources()
        node.slowdown = 1.0
        node.make_slave()
        # Subscription starts with the migration phase, not here: local
        # redo must finish (and unconfirmed records be discarded) before
        # live broadcasts may buffer on this replica.
        node.subscribed = False
        stale_span = self._demoted.pop(node_id, None)
        if stale_span is not None:
            stale_span.finish(status="crashed")
        for agent in self._alive_scheduler_agents():
            agent.scheduler.set_demoted(node_id, False)
        self._handled_failures.discard(node_id)
        self._missed.pop(node_id, None)
        # Local phase: checksum-validated checkpoint restore (previous-
        # generation fallback per page) + WAL scan with torn-tail
        # truncation + redo of the confirmed suffix into catch-up buffers.
        confirmed_ids = {(m, t) for m, t, _versions in self.commit_log}
        recovery = recover_from_local_disk(
            node.slave,
            node.stable,
            node.wal,
            is_confirmed=lambda record: (record.master_id, record.txn_id)
            in confirmed_ids,
        )
        node.cache.invalidate_all()
        yield self.sim.timeout(
            self.cost.sequential_disk(recovery.checkpoint_bytes + recovery.wal_bytes)
        )
        if recovery.ops_buffered:
            yield node.job(self._migration_cpu(node, recovery.ops_buffered), "wal-redo")
        # Belt and braces: nothing above the cluster-confirmed vector may
        # survive the restart (the ghost filter above already skipped
        # unconfirmed records; this enforces the invariant structurally).
        ghost_ops = node.slave.discard_above(self._confirmed_vector())
        if ghost_ops:
            node.counters.add("wal.ghost_ops_discarded", ghost_ops)
        # A checkpoint page *above* the crash-time confirmed vector may
        # hold content that was applied but never acknowledged — and after
        # a failover those version numbers can belong to different
        # transactions, so a version comparison against the support would
        # wrongly skip the page.  Drop such pages; migration re-fetches.
        if crash_confirmed is not None:
            store = node.slave.engine.store
            for page in store.all_pages():
                if page.version > crash_confirmed.get(page.page_id.table):
                    page.load_from(Page(page.page_id, page.capacity))
                    queue = node.slave.pending.pop(page.page_id, None)
                    if queue:
                        node.slave.pending_ops -= len(queue)
                    node.counters.add("wal.suspect_pages_dropped")
        # Advertise WAL coverage (applied pages + contiguous redo buffers)
        # so the support ships only the pages touched while this node was
        # down — the gap, not everything since the last checkpoint.
        wanted = node.slave.page_versions()
        timeline.recovery_done = self.sim.now()
        yield from self._timed_migration(node, timeline, wanted=wanted)
        timeline.migration_done = self.sim.now()
        self.timelines.append(timeline)
        node.counters.add("disk.restart_recoveries")
        self._restart_audits.append(
            (
                node_id,
                crash_time,
                dict(crash_confirmed.items()) if crash_confirmed is not None else {},
            )
        )
        for agent in self._alive_scheduler_agents():
            agent.scheduler.add_slave(node_id, spare=False)
        self._wake_update_waiters()
        return timeline

    # -- background daemons -------------------------------------------------------------------------
    def _checkpoint_daemon(self, period: float):
        while True:
            yield self.sim.timeout(period)
            for node in self.nodes.values():
                has_role = node.slave is not None or (
                    # Durable mode checkpoints masters too: their WALs hold
                    # their own pre-commit records and need the checkpoint
                    # floor to advance for truncation.
                    self.durability_active and node.master is not None
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
        sequences = sequences if sequences is not None else SharedSequences(scale)
        self._browser_profile = (mix, scale, sequences, think_time_mean, max_retries)
        base = len(self._browsers)
        for i in range(count):
            browser = EmulatedBrowser(
                browser_id=base + i,
                mix=mix,
                scale=scale,
                sequences=sequences,
                rng=self.rng.child(f"eb{base + i}"),
                now=self.sim.now,
                think_time_mean=think_time_mean,
            )
            self._browsers.append(browser)
            self.sim.spawn(self._browser_loop(browser, max_retries), name=f"eb{base + i}")

    def flash_crowd(self, count: int) -> None:
        """Add ``count`` browsers mid-run with the last started profile.

        Chaos hook for flash write load: the extra browsers share the
        original pool's mix, scale and shared sequences, and exit with
        everyone else at :meth:`stop_browsers`.
        """
        if self._browser_profile is None:
            raise RuntimeError("flash_crowd before start_browsers")
        mix, scale, sequences, think, retries = self._browser_profile
        self.start_browsers(
            count, mix, scale, sequences=sequences,
            think_time_mean=think, max_retries=retries,
        )

    def stop_browsers(self) -> None:
        """Ask every browser loop to exit at its next interaction boundary.

        Used by the chaos harness to quiesce the workload before running
        invariant checks: in-flight interactions finish (or exhaust their
        retries), then the cluster drains to a stable state.
        """
        self._stop_browsers = True

    def _browser_loop(self, browser: EmulatedBrowser, max_retries: int):
        cfg = self.cost.config
        while not self._stop_browsers:
            name = browser.pick()
            start = self.sim.now()
            # Latency is measured from ``start`` — the moment this browser
            # *wanted* the interaction — across all retries.  Closed-loop
            # clients still under-report overload (they stop offering load
            # while stalled: coordinated omission); the open-loop
            # :class:`~repro.traffic.engine.OpenLoopEngine` measures from
            # the scheduled arrival instead.
            deadline = start + cfg.request_deadline if cfg.request_deadline > 0 else None
            attempts = 0
            while True:
                conn = SimConnection(self)
                conn.deadline = deadline
                gen = browser.start(name, conn)
                try:
                    yield from self._drive(gen, conn)
                    self.metrics.record_completion(self.sim.now(), self.sim.now() - start)
                    break
                except (TransactionAborted, NodeUnavailable) as exc:
                    gen.close()
                    conn.cleanup()
                    reason = getattr(exc, "reason", "node-failure")
                    self.metrics.record_retry(reason)
                    attempts += 1
                    if reason == "deadline":
                        # The whole request is past its deadline; retrying
                        # the doomed interaction would only amplify load.
                        self.metrics.failed += 1
                        break
                    if attempts > max_retries:
                        self.metrics.failed += 1
                        break
                    if self.retry_budget is not None and not self.retry_budget.try_spend(
                        self.sim.now()
                    ):
                        # Budget drained (e.g. a shed storm of
                        # ``sched.shed_requests`` rejections): give up
                        # instead of retrying in lock-step with every other
                        # browser — the retry storm is what turns a burst
                        # into a metastable outage.
                        self.counters.add("bench.retries_exhausted")
                        self.metrics.failed += 1
                        break
                    # Jittered exponential backoff from the browser's own
                    # stream: a mass failure does not resynchronise every
                    # browser into retry waves hitting the recovering node.
                    yield self.sim.timeout(
                        browser.retry_backoff(
                            attempts, cfg.browser_backoff_base, cfg.browser_backoff_cap
                        )
                    )
            yield self.sim.timeout(browser.think_time())

    def _drive(self, gen, conn: SimConnection):
        value = None
        while True:
            try:
                effect = gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield effect

    # -- experiment control ------------------------------------------------------------------------------
    def run(self, until: float) -> float:
        return self.sim.run(until=until)

    def abort_counts(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for node in self.nodes.values():
            for key, value in node.counters.snapshot().items():
                if key.startswith("engine.aborts.") or key == "slave.version_aborts":
                    out[key] = out.get(key, 0) + value
        return out
