"""Failure detection and reconfiguration for the simulated cluster.

The heartbeat detector, the timed master/slave reconfiguration of paper
§4.1-4.5 (cleanup, election, promotion, spare backfill), peer-scheduler
takeover, and the crash bookkeeping of durable nodes.  What to clean up,
whom to elect and how to promote is decided by the driver-independent
functions of :mod:`repro.cluster.protocol`; this module adds when.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.common.errors import NodeUnavailable
from repro.common.versions import VersionVector
from repro.cluster.migration import FailoverTimeline
from repro.cluster.protocol import (
    cleanup_scope,
    inherited_tables,
    promote,
    successor_candidates,
)
from repro.failover.recovery import (
    cleanup_after_master_failure,
    elect_new_master,
    ghost_wal_records,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simcluster import SchedulerAgent, SimDmvCluster
    from repro.cluster.simnodes import InMemoryDbNode

#: Failure-detector period (virtual seconds) of both simulated tiers.
HEARTBEAT_INTERVAL = 1.0
#: Consecutive missed heartbeats after which a node is declared failed.
HEARTBEAT_MISSES = 2


def declare_failed(missed: Dict[str, int], handled: set, name: str, alive: bool) -> bool:
    """One heartbeat of ``name``: True on the ``HEARTBEAT_MISSES``-th miss in
    a row, which adds it to ``handled`` (whose failures count no misses)."""
    if alive:
        missed[name] = 0
    elif name not in handled:
        missed[name] = missed.get(name, 0) + 1
        if missed[name] >= HEARTBEAT_MISSES:
            handled.add(name)
            return True
    return False


class FailureManager:
    """Detects fail-stop failures and reconfigures the cluster around them."""

    def __init__(self, cluster: "SimDmvCluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.cost = cluster.cost
        self.counters = cluster.counters
        self.conflict_map = cluster.conflict_map
        self.handled_failures: set = set()
        #: Failure-detector miss counts; cleared when a node reintegrates so
        #: a second failure of the same node is re-detected.
        self._missed: Dict[str, int] = {}
        #: Masters currently mid-reconfiguration (graceful-degradation
        #: window) and masters whose reconfiguration found no successor.
        self.reconfiguring: set = set()
        self.dead_ends: set = set()
        self.scheduler_takeovers: List[Tuple[float, float]] = []  # (detected, done)
        #: (dedup_key, master_id, txn_id) of WAL records that were above the
        #: confirmed vector when their node crashed — ghost candidates for
        #: the no-ghost-commits invariant.
        self.ghosts: List[Tuple[Tuple, str, int]] = []
        #: Confirmed version vector snapshotted at each durable crash,
        #: consumed by the restart path and the durable-prefix invariant.
        self.crash_confirmed: Dict[str, VersionVector] = {}

    # -- failure injection & detection ---------------------------------------------------------
    def kill_node(self, node_id: str) -> None:
        node = self.cluster.nodes[node_id]
        was_alive = node.alive
        node.failed_at = self.sim.now()
        node.fail()
        if was_alive and node.durable:
            self._record_crash_state(node)

    def _record_crash_state(self, node: "InMemoryDbNode") -> None:
        """Durable crash semantics: apply the WAL loss model, register ghosts.

        Snapshot the confirmed vector (the durable-prefix obligation for a
        later restart), lose the un-durable WAL tail (fsync-lie mode widens
        it past the believed-synced boundary), and record every WAL record
        above the confirmed vector — lost or surviving — as a ghost
        candidate: if its commit never confirms, nothing recovered from
        this disk may resurface it.
        """
        confirmed = self.cluster.confirmed_vector()
        self.crash_confirmed[node.node_id] = confirmed.copy()
        lost = node.crash_durable_state()
        # A torn record appears both in the lost tail and on disk; dedup by
        # LSN before classification.
        candidates = {r.lsn: r for r in list(lost) + node.wal.records_since(0)}
        for record in ghost_wal_records(candidates.values(), confirmed):
            self.ghosts.append((record.dedup_key(), record.master_id, record.txn_id))

    def suspect(self, node_id: str) -> None:
        """Fail-stop suspicion: the retransmission budget for ``node_id``
        was exhausted, so the sender declares it failed (the paper's
        fail-stop model — an unreachable node IS a failed node).  The
        heartbeat detector then drives the normal reconfiguration."""
        node = self.cluster.nodes.get(node_id)
        if node is None or not node.alive:
            return
        self.counters.add("net.suspicions")
        self.kill_node(node_id)

    def detector_loop(self):
        missed = self._missed  # instance state: cleared per-node on reintegration
        while True:
            yield self.sim.timeout(HEARTBEAT_INTERVAL)
            for node_id, node in list(self.cluster.nodes.items()):
                if declare_failed(missed, self.handled_failures, node_id, node.alive):
                    self.sim.spawn(self._reconfigure(node_id), name="reconfigure")
            # Peer schedulers watch each other (paper §4.1).
            for index, agent in enumerate(self.cluster.schedulers):
                if declare_failed(missed, self.handled_failures, agent.agent_id, agent.alive):
                    was_primary = all(not a.alive for a in self.cluster.schedulers[:index])
                    successor = next((a for a in self.cluster.schedulers if a.alive), None)
                    if was_primary and successor is not None:
                        self.sim.spawn(
                            self._scheduler_takeover(successor), name="sched-takeover"
                        )

    def _reconfigure(self, failed_id: str):
        """Timed failure reconfiguration (paper §4.1-4.5).

        While it runs, ``failed_id`` is in the graceful-degradation window:
        updates for its conflict classes queue (bounded by
        ``UPDATE_QUEUE_DEADLINE``) instead of failing immediately.  If no
        successor can be elected the master is recorded as a dead end and
        queued updates are released with a clean error — never a hang.
        """
        failed = self.cluster.nodes[failed_id]
        timeline = FailoverTimeline(
            failure_time=failed.failed_at or self.sim.now(),
            detection_time=self.sim.now(),
        )
        self.cluster.timelines.append(timeline)
        cfg = self.cost.config
        was_master = failed.master is not None
        if was_master:
            self.reconfiguring.add(failed_id)
        try:
            yield from self._reconfigure_body(failed, failed_id, timeline, cfg, was_master)
        finally:
            self.reconfiguring.discard(failed_id)
            self.cluster.router.wake()

    def _reconfigure_body(self, failed, failed_id: str, timeline, cfg, was_master: bool):
        cluster = self.cluster
        for agent in cluster.alive_scheduler_agents():
            agent.scheduler.remove_node(failed_id)
        while True:
            if not cluster.alive_scheduler_agents():
                # Every scheduler agent is gone: no coordinator exists to
                # run the protocol.  Record the dead end so clients fail
                # cleanly instead of hanging.
                self.dead_ends.add(failed_id)
                return
            if any(a.ready for a in cluster.alive_scheduler_agents()):
                break
            # A scheduler takeover is resynchronising; reconfiguration
            # needs its confirmed version vector, so wait it out.
            yield self.sim.timeout(HEARTBEAT_INTERVAL)
        if was_master:
            confirmed = cluster.scheduler.latest.copy()
            # Phase 1 (Recovery): ask every replica to discard unconfirmed
            # write-sets; one RPC round plus the discard work, plus the
            # fixed abort/election/topology coordination overhead.
            cleanup_vector, failed_tables = cleanup_scope(
                self.conflict_map, failed_id, confirmed
            )
            survivors = [
                n for n in cluster.nodes.values() if n.alive and n.slave is not None
            ]
            yield self.sim.timeout(cfg.rtt())
            dropped = cleanup_after_master_failure(
                [n.slave for n in survivors if n.subscribed], cleanup_vector
            )
            cluster.pipeline.drop_replay_above(cleanup_vector)
            yield self.sim.timeout(self.cost.apply_cpu(dropped) + cfg.recovery_overhead)
            # Elect + promote the lowest-id active (non-spare) slave.
            candidates = successor_candidates(
                survivors, failed_tables, cluster.interest, cluster.is_spare
            )
            try:
                new_slave = elect_new_master(candidates)
            except NodeUnavailable:
                # Zero surviving subscribed slaves: the failed master's
                # conflict classes cannot be re-homed.  Record the dead end
                # (updates for them fail cleanly until an operator restores
                # capacity) rather than crashing the reconfiguration job.
                self.dead_ends.add(failed_id)
                timeline.recovery_done = self.sim.now()
                timeline.migration_done = self.sim.now()
                return
            # Stop routing reads to the promotee before promotion begins.
            for agent in cluster.alive_scheduler_agents():
                agent.scheduler.remove_node(new_slave.node_id)
            new_node = cluster.nodes[new_slave.node_id]
            owned = inherited_tables(cluster.nodes, self.conflict_map, failed_id)
            yield from new_node.run_job(self._promotion_job(new_node, confirmed, owned))
            for agent in cluster.alive_scheduler_agents():
                agent.scheduler.on_master_failure(failed_id, new_slave.node_id)
            cluster.stragglers.demote_stale_survivors(confirmed, failed_tables)
        timeline.recovery_done = self.sim.now()
        self.dead_ends.discard(failed_id)
        # Spare promotion: backfill active capacity from the spare pool.
        try:
            spares = cluster.scheduler.spare_slaves()
            need_backfill = was_master or not cluster.scheduler.active_slaves()
        except NodeUnavailable:
            timeline.migration_done = self.sim.now()
            return
        if spares and need_backfill:
            spare_node = cluster.nodes[spares[0].node_id]
            if not spare_node.subscribed:
                # Stale backup: catch it up via data migration first.
                yield from cluster.migration.migrate_into(spare_node, timeline)
            cluster.spare_ids.discard(spare_node.node_id)
            for agent in cluster.alive_scheduler_agents():
                if spare_node.node_id in agent.scheduler.slaves:
                    agent.scheduler.promote_spare(spare_node.node_id)
        timeline.migration_done = self.sim.now()

    def _promotion_job(self, node: "InMemoryDbNode", confirmed, owned_tables=None):
        yield from node.cpu.acquire()
        try:
            pending = node.slave.pending_op_count()
            promote(node, confirmed, owned_tables)
            # Applying the buffered ops costs CPU proportional to their count.
            yield self.sim.timeout(self.cost.apply_cpu(pending))
        finally:
            node.cpu.release()

    def _scheduler_takeover(self, successor: "SchedulerAgent"):
        """§4.1: a peer takes over after the primary scheduler fails."""
        detected = self.sim.now()
        successor.ready = False
        cfg = self.cost.config
        # Ask the masters to abort uncommitted transactions and report
        # their highest produced versions (one RPC round).
        yield self.sim.timeout(cfg.rtt())
        for node in self.cluster.nodes.values():
            if node.alive and node.master is not None:
                node.engine.abort_all_active(reason="scheduler-failure")
                successor.scheduler.import_state(node.master.current_versions().as_dict())
        # Rebuild the topology from ground truth and broadcast it.
        sched = successor.scheduler
        sched.slaves.clear()
        sched.masters = {
            n.node_id for n in self.cluster.nodes.values() if n.alive and n.master is not None
        }
        for node in self.cluster.nodes.values():
            if node.alive and node.slave is not None and node.subscribed:
                sched.add_slave(node.node_id, spare=node.node_id in self.cluster.spare_ids)
        yield self.sim.timeout(cfg.rtt())
        successor.ready = True
        self.scheduler_takeovers.append((detected, self.sim.now()))
        self.cluster.router.wake()

    def forget_failure(self, node_id: str) -> None:
        """``node_id`` is coming back: make it detectable again."""
        self.handled_failures.discard(node_id)
        # Reset the failure detector's miss count too, or a later second
        # failure of this node would be detected off stale counts.
        self._missed.pop(node_id, None)

    def take_crash_confirmed(self, node_id: str):
        """Hand the restart path the confirmed vector snapshotted at
        ``node_id``'s durable crash (``None`` if there was none)."""
        return self.crash_confirmed.pop(node_id, None)
