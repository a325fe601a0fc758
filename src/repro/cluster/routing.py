"""Update routing and admission for the simulated cluster.

An update runs only on the current master of its conflict class.  Each
class has one arrival-ordered queue, whose head is admitted while the
class is *served* (a ready scheduler, an owner alive and acting as
master, no re-home in flight) and the owner has fewer than the bound in
flight.  A failover or a re-home is the queue not being served; ``wake``
hands it to the new owner in arrival order, so a backlog reaches a
promoted master as a bounded stream, not a herd (graceful degradation,
paper §4.2).  The overload defenses run in front.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Sequence

from repro.common.errors import NodeUnavailable
from repro.scheduler.admission import AdmissionController

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simcluster import SimDmvCluster
    from repro.cluster.simnodes import InMemoryDbNode

#: Graceful degradation: how long after its arrival an update may wait for
#: its conflict class to be served again before it is rejected.
UPDATE_QUEUE_DEADLINE = 15.0

#: The bound when ``update_mpl`` is 0: a failover or re-home backlog is
#: handed over at most this many in flight per master, and admission is
#: unbounded again once the queue is empty.  It is the MPL of every
#: bounded plan and of the ``hot_scaleout`` benchmark.
HANDOVER_MPL = 4


class UpdateRouter:
    """Per-class admission queues, the in-flight count per master and the
    admission controller."""

    def __init__(self, cluster: "SimDmvCluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cfg = cluster.cost.config
        self.counters = cluster.counters
        #: Per conflict class, oldest first: ``(arrival number, tables,
        #: event)``; the event succeeds with ``(node, slot)`` on admission.
        self._queues: Dict[int, Deque[tuple]] = {}
        self._arrivals = 0
        #: Admitted updates holding a slot (their master's id), per master;
        #: never more than :attr:`bound`.
        self.in_flight: Dict[str, int] = {}
        self.bound = cfg.update_mpl if cfg.update_mpl > 0 else HANDOVER_MPL
        #: The admission controller (a pure state machine: no events, no
        #: RNG), when either of its knobs is set.
        self.admission = (
            AdmissionController(cfg)
            if cfg.admission_rate > 0 or cfg.admission_queue_watermark > 0
            else None
        )

    # -- update admission (graceful degradation) ---------------------------------------------
    def admit_update(
        self,
        tables: Sequence[str],
        tenant: str = "default",
        deadline: Optional[float] = None,
    ):
        """Admit an update on its conflict class's master: ``(node, slot)``.

        With ``update_mpl`` 0, an update of a served class with nobody
        queued runs at once, holding no slot (``None``).  Every other one
        joins its class's queue and holds a slot once admitted; joining an
        unserved class counts one ``sched.queued_updates``, or fails fast
        if no reconfiguration can serve the class again.  Still queued
        ``UPDATE_QUEUE_DEADLINE`` after arrival with its class unserved, it
        counts a ``sched.deadline_rejects`` and fails with reason
        ``reconfig-deadline``.

        With the overload defenses on, the per-tenant admission gate runs
        first, an expired ``deadline`` cancels the update before routing
        and after its queue wait, and the admission delay feeds the
        admission controller's watermark EWMA.
        """
        self.admission_check("update", tenant)
        entered = self.sim.now()
        if deadline is not None and entered >= deadline:
            raise self.deadline_cancel("admit")
        class_id = self.cluster.conflict_map.class_of_tables(tables)
        queue = self._queues.setdefault(class_id, deque())
        node = self._owner(class_id)
        if node is None:
            if not self._may_recover(class_id):
                raise self._unavailable(class_id)
            self.counters.add("sched.queued_updates")
        elif not queue and self.config.update_mpl <= 0:
            self.cluster.scheduler.route_update(tables)
            self._observe_admission_delay(entered)
            return node, None
        self._arrivals += 1
        ticket = (self._arrivals, tables, self.sim.event())
        queue.append(ticket)
        self._serve()
        if not ticket[2].triggered:
            self.sim.schedule(UPDATE_QUEUE_DEADLINE, self._expire, class_id, ticket)
        node, slot = yield ticket[2]  # resumes behind what is queued, even if admitted
        if deadline is not None and self.sim.now() >= deadline:
            self.release(slot)
            raise self.deadline_cancel("mpl-queue")
        self._observe_admission_delay(entered)
        return node, slot

    def wake(self) -> None:
        """The topology changed: hand each served class's queue to its
        owner, and fail the queues no reconfiguration will serve again."""
        for class_id, queue in self._queues.items():
            if queue and self._owner(class_id) is None and not self._may_recover(class_id):
                while queue:
                    queue.popleft()[2].fail(self._unavailable(class_id))
        self._serve()

    def release(self, slot: str) -> None:
        """Free an admitted update's ``slot`` and admit whatever now fits."""
        self.in_flight[slot] -= 1
        self._serve()

    def _serve(self) -> None:
        """Admit queued heads, oldest first, while their owners have room."""
        while True:
            head = None
            for class_id, queue in self._queues.items():
                if queue and (head is None or queue[0][0] < head[0]):
                    node = self._owner(class_id)
                    if node is not None and self.in_flight.get(node.node_id, 0) < self.bound:
                        head, owner, source = queue[0], node, queue
            if head is None:
                return
            source.popleft()
            self.cluster.scheduler.route_update(head[1])
            self.in_flight[owner.node_id] = self.in_flight.get(owner.node_id, 0) + 1
            head[2].succeed((owner, owner.node_id))

    def _expire(self, class_id: int, ticket: tuple) -> None:
        """``ticket`` has waited ``UPDATE_QUEUE_DEADLINE``: reject it unless
        its class is served again (then it only waits for room)."""
        if ticket[2].triggered or self._owner(class_id) is not None:
            return self._serve()
        self._queues[class_id].remove(ticket)
        self.counters.add("sched.deadline_rejects")
        expired = NodeUnavailable("update queue deadline expired during reconfiguration")
        expired.reason = "reconfig-deadline"
        ticket[2].fail(expired)

    def _owner(self, class_id: int) -> Optional["InMemoryDbNode"]:
        """The master serving ``class_id`` now, or None while a failover, a
        scheduler takeover or a re-home of the class is in flight."""
        cluster = self.cluster
        if class_id in cluster.rehomer.rehoming_classes or not any(
            agent.alive and agent.ready for agent in cluster.schedulers
        ):
            return None
        node = cluster.nodes.get(cluster.conflict_map.master_of_class(class_id))
        return node if node is not None and node.alive and node.master is not None else None

    def _may_recover(self, class_id: int) -> bool:
        """Could ``class_id``, unserved now, plausibly be served later?"""
        cluster = self.cluster
        if class_id in cluster.rehomer.rehoming_classes:
            return True  # the re-home ends in a flip or an abort, then wake()
        agents = cluster.alive_scheduler_agents()
        master_id = cluster.conflict_map.master_of_class(class_id)
        if not agents or master_id in cluster.failover.dead_ends:
            return False
        if cluster.failover.reconfiguring or any(not a.ready for a in agents):
            return True  # mid-reconfiguration, or a scheduler takeover in flight
        # Not mid-reconfiguration: recovery is conceivable only if the
        # failure has not been detected yet and a successor candidate exists.
        return any(
            n.alive and n.slave is not None and n.subscribed and n.master is None
            for n in cluster.nodes.values()
        )

    def _unavailable(self, class_id: int) -> NodeUnavailable:
        return NodeUnavailable(f"no master can serve conflict class {class_id}")

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
