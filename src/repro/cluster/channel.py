"""Master->slave replication channels (the simulated transport).

One :class:`ReplicationChannel` per (master, slave) pair carries the
pre-commit write-set broadcasts: group-commit batching on a clean link,
ack timeout + go-back-N retransmission on a lossy one, fail-stop suspicion
when the retransmission budget runs out.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List

from repro.common.errors import NodeUnavailable, TransactionAborted
from repro.cluster.protocol import account_batch
from repro.obs import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simcluster import SimDmvCluster
    from repro.cluster.simnodes import InMemoryDbNode

#: Size of the (piggybacked) per-batch acknowledgement frame.
NET_ACK_BYTES = 64
#: First master-side ack timeout; doubles per retransmission attempt.
#: Must exceed a healthy batch round trip or clean links would spuriously
#: retransmit.
ACK_TIMEOUT_BASE = 0.1
#: Ceiling on the exponential ack-timeout/backoff growth.
RETRANSMIT_BACKOFF_CAP = 2.0
#: Send attempts per write-set before the unreachable slave is suspected
#: failed and evicted (fail-stop suspicion).
RETRANSMIT_LIMIT = 10


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
    ``RETRANSMIT_LIMIT`` attempts.  Slaves deduplicate by write-set
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
        #: reintegration's in-flight catch-up reads it.  :meth:`_finish` pops
        #: resolved sends off its head, so it holds what is in flight.
        self._unacked: Deque[PendingSend] = deque()

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
        self.cluster.stragglers.note_backlog(self.target.node_id, self._outbox)
        self._kick()
        return pending.ack

    @property
    def idle(self) -> bool:
        """Nothing queued and no drain process running."""
        return not (self._busy or self._outbox)

    def unacked_write_sets(self):
        """Write-sets sent but not yet acked (nor failed), oldest first.

        Covers the outbox, the batch currently in transit, and frames
        waiting out a retransmission backoff.
        """
        return [p.write_set for p in self._unacked if not p.ack.triggered]

    def _kick(self) -> None:
        if not self._busy:
            self._busy = True
            self.cluster.sim.spawn(
                self._drain(), name=f"repl:{self.source_id}->{self.target.node_id}"
            )

    def _finish(self, pending: PendingSend, ok: bool) -> None:
        if not pending.ack.triggered:
            pending.ack.succeed(ok)
            if ok:
                # Clears what a commit confirmed ahead of this ack made the
                # target owe (CommitPipeline._seal_epoch).
                versions = pending.write_set.versions
                for agent in self.cluster.schedulers:
                    agent.scheduler.note_acked(self.target.node_id, versions)
        pending.retry_span.finish(status="acked" if ok else "failed")
        pending.span.finish(status="acked" if ok else "failed",
                            attempts=pending.attempts + 1)
        unacked = self._unacked
        while unacked and unacked[0].ack.triggered:
            unacked.popleft()

    def _drop(self, pending: PendingSend, counters) -> None:
        counters.add("net.drops")
        counters.add("net.bytes_dropped", pending.write_set.byte_size())

    def _drain(self):
        cluster = self.cluster
        stragglers = cluster.stragglers
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
                    or stragglers.is_demoted(target.node_id)
                ):
                    # Fail fast on a dead (or promoted, or demoted) target:
                    # no payload bytes and no batch delay are charged — the
                    # attempts count as sent-and-dropped so conservation
                    # holds.  A demoted laggard catches up via page
                    # migration at rejoin, not via this stream.
                    retain = (
                        target.node_id in stragglers.gapped()
                        if target.alive
                        else target.durable
                    )
                    for pending in batch:
                        counters.add("net.write_sets_sent")
                        if retain:
                            # Enqueued before the demotion (or crash): the
                            # broadcast site never logged it, so retain it
                            # here or the rejoin/restart gap replay would
                            # miss it.
                            cluster.pipeline.retain(pending.write_set)
                        self._drop(pending, counters)
                        self._finish(pending, False)
                    continue
                link = cluster.net.link(self.source_id, target.node_id)
                back = cluster.net.link(target.node_id, self.source_id)
                lossy = link.lossy or back.lossy
                payload = account_batch(counters, [p.write_set for p in batch])
                delay = cfg.batch_delay(payload, len(batch))
                if lossy:
                    delay += link.extra_delay()
                yield sim.timeout(delay)
                delivered: List[PendingSend] = []
                requeue: List[PendingSend] = []
                for idx, pending in enumerate(batch):
                    counters.add("net.write_sets_sent")
                    if stragglers.is_demoted(target.node_id):
                        # Demoted mid-batch (while an earlier frame paid
                        # its receive cost): the remainder fast-fails, but
                        # is retained for the rejoin gap replay.
                        if target.alive and target.node_id in stragglers.gapped():
                            cluster.pipeline.retain(pending.write_set)
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
                        if target.durable and not target.alive:
                            # Crashed mid-batch: retain for restart gap replay.
                            cluster.pipeline.retain(pending.write_set)
                        self._drop(pending, counters)
                        self._finish(pending, False)
                        continue
                    if lossy and link.duplicates():
                        # The network duplicated the frame: the extra copy
                        # is a real transmission the slave must filter.
                        counters.add("net.write_sets_sent")
                        target.deliver_write_set(pending.write_set)
                    if outcome == "ok":
                        try:
                            yield from target.run_job(
                                target.receive_cost(len(pending.write_set.ops))
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
                    ack_delay = cfg.net_delay(NET_ACK_BYTES)
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
                        stragglers.note_acks(target.node_id, sim.now(), delivered)
                if requeue:
                    yield from self._backoff_and_requeue(requeue)
        finally:
            self._busy = False

    # -- ack timeout + retransmission -------------------------------------------------
    @staticmethod
    def _ack_timeout(attempts: int) -> float:
        return min(ACK_TIMEOUT_BASE * (2 ** (attempts - 1)), RETRANSMIT_BACKOFF_CAP)

    def _backoff_and_requeue(self, requeue: List[PendingSend]):
        """Wait the ack timeout, then retransmit ``requeue`` ahead of the
        outbox (stream order preserved).  Runs inside the drain process, so
        sends issued while backing off queue up behind the retransmissions.
        """
        cluster = self.cluster
        for pending in requeue:
            pending.attempts += 1
        if any(p.attempts >= RETRANSMIT_LIMIT for p in requeue):
            # Retransmission budget exhausted: declare the target failed
            # (fail-stop suspicion) so reconfiguration takes over.
            for pending in requeue:
                self._finish(pending, False)
            cluster.failover.suspect(self.target.node_id)
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
