"""Laggard detection, demotion and rejoin for straggler-tolerant replication.

The paper's failure model is strictly fail-stop: a node either answers
heartbeats or it is dead.  A *gray* failure — degraded disk, saturated
link, GC pauses — keeps heartbeats flowing while acks crawl, so under
all-slave acknowledgement one straggler stalls every commit in the
cluster.  The :class:`LaggardDetector` watches the replication channels
for two symptoms and flags the target for demotion to catch-up mode:

* **backlog**: the unacked outbox to one slave exceeds a high watermark
  of entries or bytes (the slave is not keeping up with the broadcast
  rate);
* **sustained ack-latency outlier**: the slave's ack-latency EWMA
  exceeds the fastest peer's EWMA by a configured factor for a
  configured number of consecutive samples (one slow ack is noise; a run
  of them is a straggler).  The fastest peer is the baseline — a
  cluster-wide average would be contaminated by the straggler's own
  samples and could mask it entirely.

The detector is pure bookkeeping — no events, no RNG, no counters.  The
reaction to a verdict is the :class:`LaggardMonitor`'s: it demotes the
laggard out of the ack set, probes it while demoted and re-integrates it
through a drain barrier + data migration once it is healthy again — under
``quorum`` acks only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.common.errors import NodeUnavailable, TransactionAborted
from repro.cluster.migration import FailoverTimeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simcluster import SimDmvCluster

#: Unacked write-sets queued on one master->slave channel before the
#: target is considered a laggard (backlog high watermark, entries).
LAGGARD_BACKLOG_ENTRIES = 64
#: Unacked bytes queued on one channel before laggard demotion (backlog
#: high watermark, bytes).
LAGGARD_BACKLOG_BYTES = 1 << 20
#: A slave's ack-latency EWMA must exceed the cluster-wide EWMA by this
#: factor to count as an outlier sample.
LAGGARD_ACK_FACTOR = 4.0
#: Consecutive outlier samples before a slave is demoted (sustained
#: outlier, not one slow ack).
LAGGARD_SUSTAIN = 8
#: Health-probe period of the laggard monitor (also paces rejoin).
LAGGARD_PROBE_INTERVAL = 1.0
#: Op count of one synthetic health probe (sized like a small batch).
LAGGARD_PROBE_OPS = 8
#: Consecutive healthy probes before a demoted node is re-integrated.
REJOIN_PROBES = 3
#: A probe is healthy when its service time is below this multiple of
#: the undegraded probe cost.
REJOIN_HEALTH_FACTOR = 2.0


class AckLatencyEwma:
    """Exponentially-weighted moving average of ack latencies."""

    __slots__ = ("alpha", "value", "samples")

    def __init__(self, alpha: float = 0.2) -> None:
        self.alpha = alpha
        self.value = 0.0
        self.samples = 0

    def observe(self, latency: float) -> float:
        if self.samples == 0:
            self.value = latency
        else:
            self.value += self.alpha * (latency - self.value)
        self.samples += 1
        return self.value


class LaggardDetector:
    """Per-target straggler verdicts from channel backlog + ack latency."""

    def __init__(self) -> None:
        #: Per-slave ack-latency EWMA (one per broadcast target).
        self.per_target: Dict[str, AckLatencyEwma] = {}
        #: Cluster-wide ack-latency EWMA (the healthy baseline).
        self.global_ewma = AckLatencyEwma()
        #: Consecutive outlier samples per target.
        self.outlier_streak: Dict[str, int] = {}

    def observe_ack(self, target_id: str, latency: float) -> None:
        """Record one acked send's enqueue-to-ack latency."""
        ewma = self.per_target.get(target_id)
        if ewma is None:
            ewma = self.per_target[target_id] = AckLatencyEwma()
        ewma.observe(latency)
        self.global_ewma.observe(latency)
        # Warm-up: with few samples the baseline is the target itself.
        if self.global_ewma.samples < 2 * LAGGARD_SUSTAIN:
            self.outlier_streak[target_id] = 0
            return
        baseline = self._baseline(target_id)
        if baseline > 0 and ewma.value > LAGGARD_ACK_FACTOR * baseline:
            self.outlier_streak[target_id] = self.outlier_streak.get(target_id, 0) + 1
        else:
            self.outlier_streak[target_id] = 0

    def _baseline(self, target_id: str) -> float:
        """Healthy-latency reference: the fastest *other* target's EWMA.

        At least one peer is healthy (demotion is vetoed for the last
        subscribed slave), and the fastest one cannot be the straggler.
        With no peer yet observed, fall back to the cluster-wide EWMA.
        """
        peers = [
            e.value
            for tid, e in self.per_target.items()
            if tid != target_id and e.samples > 0
        ]
        return min(peers) if peers else self.global_ewma.value

    def ack_latency_verdict(self, target_id: str) -> bool:
        """True when the target's outlier streak crossed the sustain bar."""
        return self.outlier_streak.get(target_id, 0) >= LAGGARD_SUSTAIN

    def backlog_verdict(self, entries: int, nbytes: int) -> bool:
        """True when one channel's unacked backlog crossed a watermark."""
        return entries >= LAGGARD_BACKLOG_ENTRIES or nbytes >= LAGGARD_BACKLOG_BYTES

    def forget(self, target_id: str) -> None:
        """Reset one target's history (after demotion or rejoin)."""
        self.per_target.pop(target_id, None)
        self.outlier_streak.pop(target_id, None)


class LaggardMonitor:
    """Demotes stragglers out of the ack set, probes them, rejoins them.

    Owns the demoted set, the audit set of every node ever demoted, the
    detector, and :attr:`enabled`: the channel triggers, the probe daemon,
    the post-failover stale check and gap retention for demoted nodes run
    only when it is on.  An explicit :meth:`demote` is honoured either way.
    """

    def __init__(self, cluster: "SimDmvCluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.cost = cluster.cost
        self.counters = cluster.counters
        #: Only ``quorum`` confirms a commit without every slave, so only
        #: then may a laggard leave the ack set.
        self.enabled = cluster.ack_policy == "quorum"
        self.detector = LaggardDetector()
        #: node_id -> open ``demote`` span for currently demoted slaves.
        self.demoted: Dict[str, object] = {}
        #: Every node that was ever demoted (rejoin-convergence invariant).
        self.ever_demoted: set = set()

    def start(self) -> None:
        """Spawn the probe daemon (when demotion runs)."""
        if self.enabled:
            self.sim.spawn(self.monitor_loop(), name="laggard-monitor")

    def is_demoted(self, node_id: str) -> bool:
        return node_id in self.demoted

    def gapped(self) -> Dict[str, object]:
        """The demoted nodes whose missed broadcasts are kept for their
        rejoin gap replay (none while demotion is off)."""
        return self.demoted if self.enabled else {}

    # -- channel triggers ------------------------------------------------------------------
    def note_backlog(self, target_id: str, outbox) -> None:
        """Demote a target whose unacked outbox crossed the watermark, rather
        than let every commit's ack wait grow with it."""
        if self.enabled and self.detector.backlog_verdict(
            len(outbox), sum(p.write_set.byte_size() for p in outbox)
        ):
            self.demote(target_id, reason="backlog")

    def note_acks(self, target_id: str, now: float, sends) -> None:
        """Feed ``sends``' enqueue-to-ack latencies; demote a sustained outlier."""
        if not self.enabled:
            return
        for pending in sends:
            self.detector.observe_ack(target_id, now - pending.enqueued_at)
        if self.detector.ack_latency_verdict(target_id):
            self.demote(target_id, reason="ack-latency")

    def demote_stale_survivors(self, confirmed, failed_tables) -> None:
        """After a master failover, demote each caught-up survivor below
        ``confirmed`` on the failed tables (outside the quorum, it would
        serve stale fresh-version reads); it re-fetches the gap at rejoin.

        Kept off under ``all``, where it can still fire: a slave
        reintegrated since the last write to a table has received nothing
        of it, and would be demoted with no probe daemon to bring it back.
        """
        if not self.enabled:
            return
        for peer in list(self.cluster.nodes.values()):
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
                self.demote(peer.node_id, reason="stale-after-failover")

    def demote(self, node_id: str, reason: str = "laggard") -> bool:
        """Demote a laggard slave to catch-up mode (out of the ack set).

        The demoted replica stays alive and keeps answering heartbeats —
        this is the gray-failure path, distinct from fail-stop.  Its
        buffered-but-unconfirmed tail is discarded (rejoin re-fetches
        everything via page migration), it is unsubscribed from the
        broadcast, and the scheduler stops routing fresh-version reads to
        it.  Refused when it is the last subscribed slave: the cluster
        must always keep a failover candidate.
        """
        node = self.cluster.nodes.get(node_id)
        if (
            node is None
            or not node.alive
            or node.slave is None
            or node.master is not None
            or node_id in self.demoted
            or node.slave.catching_up
            or not node.subscribed
        ):
            return False
        others = [
            n
            for n in self.cluster.nodes.values()
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
            confirmed = self.cluster.scheduler.latest
        except NodeUnavailable:
            return False
        # Everything left buffered after this is confirmed history, so a
        # later rejoin can safely apply it; the unconfirmed tail returns
        # via migrated pages instead.
        node.slave.discard_above(confirmed)
        node.subscribed = False
        for agent in self.cluster.alive_scheduler_agents():
            agent.scheduler.set_demoted(node_id, True)
        self.detector.forget(node_id)
        self.demoted[node_id] = self.cluster.tracer.span(
            "demote", node=node_id, reason=reason
        )
        self.ever_demoted.add(node_id)
        self.counters.add("slave.demotions")
        return True

    def monitor_loop(self):
        """Probe demoted slaves and re-integrate the ones that recovered.

        Each period every demoted, still-alive slave gets one synthetic
        receive-sized health probe; its service time reflects the node's
        current degradation.  ``REJOIN_PROBES`` consecutive healthy probes
        trigger rejoin through a drain barrier + data migration.
        """
        healthy: Dict[str, int] = {}
        while True:
            yield self.sim.timeout(LAGGARD_PROBE_INTERVAL)
            for node_id in list(self.demoted):
                node = self.cluster.nodes.get(node_id)
                if node is None or not node.alive or node.slave is None:
                    # Crashed (or promoted) while demoted: the heartbeat
                    # detector owns it now.
                    healthy.pop(node_id, None)
                    continue
                baseline = self.cost.receive_cpu(LAGGARD_PROBE_OPS)
                start = self.sim.now()
                try:
                    yield from node.run_job(node.receive_cost(LAGGARD_PROBE_OPS))
                except (NodeUnavailable, TransactionAborted):
                    healthy.pop(node_id, None)
                    continue
                took = self.sim.now() - start
                if took <= baseline * REJOIN_HEALTH_FACTOR:
                    healthy[node_id] = healthy.get(node_id, 0) + 1
                else:
                    healthy[node_id] = 0
                if healthy.get(node_id, 0) >= REJOIN_PROBES:
                    healthy.pop(node_id, None)
                    yield from self._rejoin(node_id)

    def _rejoin(self, node_id: str):
        """Re-integrate a recovered laggard: drain barrier + migration."""
        node = self.cluster.nodes.get(node_id)
        if (
            node is None
            or not node.alive
            or node.slave is None
            or node_id not in self.demoted
        ):
            return
        # Drain barrier: while demoted the channels to this node fast-fail,
        # so their outboxes empty quickly; wait for them to go idle so no
        # stale pre-demotion send can land behind the catch-up stream.
        channels = self.cluster.pipeline.channels_to
        while not all(channel.idle for channel in channels(node_id)):
            yield self.sim.timeout(LAGGARD_PROBE_INTERVAL)
        if not node.alive or node.slave is None:
            return
        timeline = FailoverTimeline(
            failure_time=self.sim.now(), detection_time=self.sim.now()
        )
        # No yield between leaving the demoted set and subscribing in
        # catch-up mode (migrate_into's synchronous prefix), so there
        # is no window where a broadcast could slip past both states.
        span = self.demoted.pop(node_id)
        yield from self.cluster.migration.migrate_into(node, timeline)
        timeline.migration_done = self.sim.now()
        self.cluster.timelines.append(timeline)
        for agent in self.cluster.alive_scheduler_agents():
            agent.scheduler.set_demoted(node_id, False)
        self.counters.add("slave.rejoins")
        span.finish(status="rejoined")

    def close_demotion(self, node_id: str) -> None:
        """A node that crashed while demoted re-enters through the normal
        reintegration path: close out its demotion record."""
        stale_span = self.demoted.pop(node_id, None)
        if stale_span is not None:
            stale_span.finish(status="crashed")
        for agent in self.cluster.alive_scheduler_agents():
            agent.scheduler.set_demoted(node_id, False)
