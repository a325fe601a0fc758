"""The simulated cluster's commit pipeline (paper Figure 2, timed).

Every update commit is a member of a commit epoch on its master:
join -> seal -> fan-out -> ack barrier -> confirm.  ``MasterReplica`` owns
the timing-free steps; this module adds virtual time and the transport.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.common.errors import NodeUnavailable, TransactionAborted
from repro.cluster.channel import ReplicationChannel
from repro.cluster.protocol import fan_out
from repro.disk.wal import WAL_FSYNC_TIME
from repro.obs import NULL_SPAN
from repro.scheduler.versionaware import VersionAwareScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simcluster import SimDmvCluster
    from repro.cluster.simnodes import InMemoryDbNode
    from repro.core.writeset import WriteSet


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
        #: (txn_id, commit_versions, root_span) per member.
        self.members: List[Tuple] = []
        self.done = done
        self.sealed = False


class CommitPipeline:
    """Epochs, replication channels and the gap-replay log of one cluster."""

    def __init__(self, cluster: "SimDmvCluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.cost = cluster.cost
        self.counters = cluster.counters
        #: Latest commit epoch per master (open, or sealed and awaiting its
        #: successor).
        self.epochs: Dict[str, _CommitEpoch] = {}
        #: Per-(master, slave) outbound replication channels (group-commit
        #: batching + lossy-link retransmission).
        self.channels: Dict[Tuple[str, str], ReplicationChannel] = {}
        #: Write-sets retained while any node is demoted, keyed by dedup
        #: identity.  A demoted node's channel drops broadcasts, and the
        #: migration support for its rejoin may not have received them yet
        #: either (quorum acks confirm commits before every slave has the
        #: data) — replaying this log at rejoin closes that gap.  Cleared
        #: as soon as no node is demoted.
        self.replay_log: Dict[Tuple, "WriteSet"] = {}

    def commit_update(self, node: "InMemoryDbNode", txn, mpl_slot=None, deadline=None):
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
        slot, if the router gave one, released on every exit path.
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
                if not node.alive or not txn.active:
                    # The master crashed while this commit queued for its
                    # CPU: the engine already rolled the transaction back.
                    raise NodeUnavailable(f"master {node.node_id} failed before commit")
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
                    epoch.members.append((txn.txn_id, commit_versions, root))
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
                self.cluster.metrics.commit_latency.record(self.sim.now() - started)
            return None
        finally:
            if mpl_slot is not None:
                self.cluster.router.release(mpl_slot)
            root.finish(status="committed" if committed else "aborted")

    def _open_epoch(self, node: "InMemoryDbNode") -> _CommitEpoch:
        epoch = self.epochs.get(node.node_id)
        if epoch is None or epoch.sealed:
            epoch = _CommitEpoch(self.sim.event())
            self.epochs[node.node_id] = epoch
            if self.cost.config.epoch_ms > 0:
                self.sim.spawn(self._epoch_timer(node, epoch), name="epoch-timer")
        return epoch

    def _epoch_timer(self, node: "InMemoryDbNode", epoch: _CommitEpoch):
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

    def _seal_epoch(self, node: "InMemoryDbNode", epoch: _CommitEpoch):
        """Close one epoch: one write-set, one WAL force, one ack barrier.

        Runs in the sealing member's (or the timer's) process.  ``done``
        always resolves — in a ``finally`` — so joined members can never
        hang; it carries False unless the epoch was fully published.
        """
        if epoch.sealed:
            return
        epoch.sealed = True
        cluster = self.cluster
        ok = False
        try:
            if not node.alive or not epoch.members:
                return
            # The first member names the write-set, so its root span is
            # the parent of the broadcast (and retransmit) spans.
            first_txn_id, _versions, first_root = epoch.members[0]
            write_set = node.master.seal_epoch(first_txn_id, epoch.ops, epoch.versions)
            # Durable mode: the write-set is on the master's own log before
            # any ack can exist (write-ahead rule); one group force covers
            # every member.
            node.log_write_set(write_set)
            if node.durable:
                yield self.sim.timeout(WAL_FSYNC_TIME)
            if cluster.stragglers.gapped() or any(
                not n.alive and n.durable for n in cluster.nodes.values()
            ):
                # Demoted (or crashed-but-restartable) nodes miss this
                # broadcast entirely; retain it for gap replay at their
                # rejoin/restart.
                self.replay_log[write_set.dedup_key()] = write_set
            elif self.replay_log:
                self.replay_log.clear()
            sends = self.broadcast(node, write_set, parent_span=first_root)
            acks = [ack for _target, _frame, ack in sends]
            # The broadcast may itself have demoted a target (backlog).
            excluded = sum(
                1
                for node_id in cluster.stragglers.gapped()
                if (peer := cluster.nodes.get(node_id)) is not None and peer.alive
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
                        for _txn_id, _versions, root in epoch.members
                    ]
                    if cluster.tracer.enabled
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
            primary = cluster.scheduler
            for txn_id, versions, _root in epoch.members:
                primary.on_master_commit(node.node_id, versions)
                # Scheduler-confirmed == fully replicated: this is the durable
                # history the chaos durability invariant audits survivors for.
                cluster.commit_log.append((node.node_id, txn_id, dict(versions)))
            # A target whose positive ack is still out may lack these
            # versions: no read of their tables goes to it until the ack
            # (ReplicationChannel._finish) or its rejoin clears the debt.
            # Same event as the version-vector merge, so no read tagged with
            # the new versions can slip in between.
            for target, frame, ack in sends:
                if not (ack.triggered and ack.value):
                    for agent in cluster.alive_scheduler_agents():
                        agent.scheduler.note_owed(target.node_id, frame.versions)
            self._replicate_scheduler_state(primary)
            ok = True
        finally:
            if not epoch.done.triggered:
                epoch.done.succeed(ok)

    def _ack_barrier(self, acks):
        """Wait out the pre-commit acks according to the ack policy.

        ``all`` waits for every ack in the list.  ``quorum`` resolves at the
        first positive ack; acks always trigger (success or failure), so the
        barrier also resolves when every ack is in — no deadlock even if
        every ack fails (the post-barrier liveness checks and
        reconfiguration take over then).
        """
        if self.cluster.ack_policy != "quorum":
            yield self.sim.all_of(acks)
            return
        self.counters.add("net.quorum_commits")
        done = self.sim.event()
        resolved = [0]

        def on_ack(event) -> None:
            resolved[0] += 1
            if not done.triggered and (event.value or resolved[0] == len(acks)):
                done.succeed(None)

        for ack in acks:
            ack.add_callback(on_ack)
        yield done
        if resolved[0] < len(acks):
            # The quorum released this commit while at least one ack was
            # still outstanding — the headline straggler win.
            self.counters.add("net.quorum_saves")

    # -- fan-out --------------------------------------------------------------------------
    def channel(self, source_id: str, target: "InMemoryDbNode") -> ReplicationChannel:
        key = (source_id, target.node_id)
        channel = self.channels.get(key)
        if channel is None:
            channel = self.channels[key] = ReplicationChannel(
                self.cluster, source_id, target
            )
        return channel

    def channels_to(self, node_id: str) -> List[ReplicationChannel]:
        """Every master's outbound channel into ``node_id``."""
        return [
            channel
            for (_src, target_id), channel in self.channels.items()
            if target_id == node_id
        ]

    def retain(self, write_set: "WriteSet") -> None:
        """Keep ``write_set`` for the gap replay of a rejoining/restarting node."""
        self.replay_log[write_set.dedup_key()] = write_set

    def drop_replay_above(self, cleanup_vector) -> None:
        """The gap-replay log must not resurrect write-sets a master-failure
        cleanup just discarded cluster-wide (unconfirmed commits of the
        failed master)."""
        if self.replay_log:
            self.replay_log = {
                key: write_set
                for key, write_set in self.replay_log.items()
                if all(
                    version <= cleanup_vector.get(table) for table, version in key[2]
                )
            }

    def epoch_open(self, node_id: str) -> bool:
        """True while ``node_id``'s current epoch has joined, unsealed members."""
        epoch = self.epochs.get(node_id)
        return epoch is not None and not epoch.sealed and bool(epoch.members)

    def broadcast(self, source: "InMemoryDbNode", write_set, parent_span=NULL_SPAN):
        """Send one write-set down the channel of every target the shared
        fan-out rule names (:func:`~repro.cluster.protocol.fan_out`).

        Returns ``(target, frame, ack)`` triples for the frames actually
        sent — same iteration order, same channel calls, same fingerprints
        as the historical inline loop.
        """
        sends = []
        cluster = self.cluster
        for target, frame in fan_out(
            cluster.nodes, source.node_id, write_set, cluster.interest
        ):
            ack = self.channel(source.node_id, target).send(frame, parent_span=parent_span)
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
        for agent in self.cluster.schedulers:
            if agent.alive and agent.scheduler is not source:
                link = self.cluster.net.link(source.scheduler_id, agent.agent_id)
                if link.lossy and link.drops():
                    self.counters.add("net.sched_state_drops")
                    continue
                delay = self.cost.config.net_latency
                if link.lossy:
                    delay += link.extra_delay()
                self.sim.schedule(delay, agent.scheduler.import_state, state)
