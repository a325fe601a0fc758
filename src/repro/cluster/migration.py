"""Data migration into a joining replica (paper §4.4), with time charged.

Version-aware page transfer from a support slave plus the two replays that
close its gaps (write-sets retained while the joiner was demoted or down,
and frames still in flight to the support), and the two ways a crashed
node comes back: classic reboot from its checkpoint, or restart from its
own checkpoint + durable WAL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster.protocol import rejoin_support
from repro.failover.reintegration import (
    integrate_stale_node,
    recover_from_local_disk,
    restore_from_checkpoint,
)
from repro.storage.checkpoint import PageImage
from repro.storage.page import Page

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simcluster import SimDmvCluster
    from repro.cluster.simnodes import InMemoryDbNode


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


class Migrator:
    """Brings replicas (back) into the replication stream; audits restarts."""

    def __init__(self, cluster: "SimDmvCluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.cost = cluster.cost
        self.counters = cluster.counters
        #: (node_id, crash_time, confirmed-at-crash dict) per completed
        #: restart-from-own-disk recovery.
        self.restart_audits: List[Tuple[str, float, Dict[str, int]]] = []

    def migrate_into(
        self, node: "InMemoryDbNode", timeline: FailoverTimeline, wanted=None
    ):
        """Version-aware page transfer into ``node`` with time charged.

        ``wanted`` overrides the page versions the joiner advertises to its
        support (see :func:`integrate_stale_node`) — the restart-from-disk
        path passes WAL-coverage versions so only the downtime gap moves.
        """
        cluster = self.cluster
        cfg = self.cost.config
        joiner_interest = cluster.interest.get(node.node_id)
        support_node = rejoin_support(
            cluster.nodes, node.node_id, cluster.interest, cluster.ack_policy
        )
        if support_node is None:
            master = next(n for n in cluster.nodes.values() if n.alive and n.master is not None)
            # Degenerate case (no covering slave survives): migrate from the
            # master's engine state, which holds everything, via a
            # temporary slave view.
            node.subscribed = True
            node.slave.catching_up = True
            images = [
                page.snapshot()
                for page in master.engine.store.all_pages()
                if joiner_interest.covers_table(page.page_id.table)
            ]
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
        if cluster.pipeline.replay_log:
            # Gap replay: write-sets broadcast while this node was demoted
            # (or down, under durable restart) never entered its channel,
            # and the support may not hold them all either (under quorum
            # acks a commit confirms before every slave has its data).
            # Re-deliver them in stream order; the duplicate filter skips
            # what the node already has, and any op the support's page
            # images do cover is pruned when those images land
            # (receive_page keeps only ops above each image's version).
            replica = node.slave
            for write_set in sorted(
                cluster.pipeline.replay_log.values(), key=lambda w: (w.master_id, w.seq)
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
        for channel in cluster.pipeline.channels_to(support_node.node_id):
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
        yield from support_node.run_job(self._migration_cpu(support_node, work))
        # Only the page images and replayed gap ops cross the wire here;
        # the index-applied ops (also in stats.bytes_sent) already
        # traversed the replication stream during catch-up buffering.
        yield self.sim.timeout(cfg.net_delay(stats.bytes_page_images + replay_bytes))
        yield from node.run_job(self._migration_cpu(node, work))
        # Migrated pages were just written into memory: they are resident.
        node.cache.warm(stats.page_ids)
        timeline.migration_pages += stats.pages_sent
        timeline.migration_bytes += stats.bytes_page_images

    def reintegrate(self, node_id: str, support_id: Optional[str] = None, spare: bool = False):
        """Spawn the reintegration process; returns it (wait or observe)."""
        return self.sim.spawn(self._reintegrate(node_id, support_id, spare), name="reintegrate")

    def _reintegrate(self, node_id: str, support_id: Optional[str], spare: bool):
        cluster = self.cluster
        node = cluster.nodes[node_id]
        timeline = FailoverTimeline(
            failure_time=node.failed_at or self.sim.now(), detection_time=self.sim.now()
        )
        node.restart_resources()
        node.slowdown = 1.0
        node.make_slave()
        node.subscribed = True
        cluster.stragglers.close_demotion(node_id)
        cluster.failover.forget_failure(node_id)
        # Reboot: restore from the local fuzzy checkpoint (sequential read),
        # with a cold OS page cache.
        restore_from_checkpoint(node.slave, node.stable)
        node.cache.invalidate_all()
        restore_bytes = sum(
            image.page.byte_size() for image in node.stable._images.values()
        )
        yield self.sim.timeout(self.cost.sequential_disk(restore_bytes))
        timeline.recovery_done = self.sim.now()
        yield from self.migrate_into(node, timeline)
        timeline.migration_done = self.sim.now()
        cluster.timelines.append(timeline)
        if spare:
            cluster.spare_ids.add(node_id)
        for agent in cluster.alive_scheduler_agents():
            agent.scheduler.add_slave(node_id, spare=spare)
        return timeline

    def _migration_cpu(self, node: "InMemoryDbNode", work_units: int):
        yield from node.cpu.hold(self.cost.config.cpu_per_op_apply * work_units)

    def restart_node(self, node_id: str):
        """Spawn restart-from-own-disk recovery; returns the process."""
        return self.sim.spawn(self._restart_from_disk(node_id), name="restart")

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
        cluster = self.cluster
        node = cluster.nodes[node_id]
        if node.alive:
            return None  # raced with reintegrate / double restart
        if not node.durable:
            # Without a durable WAL the local state cannot be trusted past
            # the checkpoint; fall back to the classic reboot path.
            result = yield from self._reintegrate(node_id, None, False)
            return result
        crash_time = node.failed_at or self.sim.now()
        crash_confirmed = cluster.failover.take_crash_confirmed(node_id)
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
        cluster.stragglers.close_demotion(node_id)
        cluster.failover.forget_failure(node_id)
        # Local phase: checksum-validated checkpoint restore (previous-
        # generation fallback per page) + WAL scan with torn-tail
        # truncation + redo of the confirmed suffix into catch-up buffers.
        confirmed_ids = {(m, t) for m, t, _versions in cluster.commit_log}
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
            yield from node.run_job(self._migration_cpu(node, recovery.ops_buffered))
        # Belt and braces: nothing above the cluster-confirmed vector may
        # survive the restart (the ghost filter above already skipped
        # unconfirmed records; this enforces the invariant structurally).
        ghost_ops = node.slave.discard_above(cluster.confirmed_vector())
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
        yield from self.migrate_into(node, timeline, wanted=wanted)
        timeline.migration_done = self.sim.now()
        cluster.timelines.append(timeline)
        node.counters.add("disk.restart_recoveries")
        self.restart_audits.append(
            (
                node_id,
                crash_time,
                dict(crash_confirmed.items()) if crash_confirmed is not None else {},
            )
        )
        for agent in cluster.alive_scheduler_agents():
            agent.scheduler.add_slave(node_id, spare=False)
        return timeline
