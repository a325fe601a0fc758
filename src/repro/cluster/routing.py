"""Update routing and admission for the simulated cluster.

Routes an update to the master of its conflict class, parks it while that
master is being failed over or the class re-homed (graceful degradation),
bounds the per-master multiprogramming level, and runs the overload
defenses (admission control, deadline propagation) in front of both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.common.errors import ConfigError, NodeUnavailable
from repro.scheduler.admission import AdmissionController
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simcluster import SimDmvCluster

#: Graceful degradation: how long an update transaction may queue while
#: its conflict class's master is being reconfigured before it is
#: rejected with a deadline error.
UPDATE_QUEUE_DEADLINE = 15.0


class UpdateRouter:
    """Waiter queue, per-master MPL slots and the admission controller."""

    def __init__(self, cluster: "SimDmvCluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.cost.config
        self.counters = cluster.counters
        self._waiters: List = []
        #: Per-master update-admission semaphores (``update_mpl > 0`` only;
        #: created lazily so the legacy configuration allocates nothing).
        self.update_slots: Dict[str, Resource] = {}
        #: The admission controller (a pure state machine: no events, no
        #: RNG), when either of its knobs is set.
        cfg = self.config
        self.admission = (
            AdmissionController(cfg)
            if cfg.admission_rate > 0 or cfg.admission_queue_watermark > 0
            else None
        )

    # -- update admission (graceful degradation) ---------------------------------------------
    def acquire_master(self, tables: Sequence[str]):
        """Route an update to its master, queueing through reconfigurations.

        While the master of the tables' conflict class is being failed over,
        the update does not bounce with ``NodeUnavailable``: it is parked on
        a waiter event (counted under ``sched.queued_updates``) and released
        when a reconfiguration step completes.  The wait is bounded by one
        absolute deadline of ``UPDATE_QUEUE_DEADLINE`` seconds; expiry
        counts a ``sched.deadline_rejects`` and fails with reason
        ``reconfig-deadline``.  Unrecoverable situations (no scheduler, a
        recorded dead-end master, no conceivable successor) fail fast.
        """
        cluster = self.cluster
        deadline = self.sim.now() + UPDATE_QUEUE_DEADLINE
        queued = False
        while True:
            if cluster.rehomer.rehoming_classes and tables:
                # Drain barrier of an in-flight class re-home: updates for
                # the moving class park here until the ownership flip, so no
                # transaction ever straddles old and new owner.
                try:
                    moving = cluster.conflict_map.class_of_tables(list(tables))
                except ConfigError:
                    moving = None
                if moving is not None and moving in cluster.rehomer.rehoming_classes:
                    if not queued:
                        queued = True
                        self.counters.add("sched.queued_updates")
                    yield from self._park(deadline, "class re-home")
                    continue
            master_id: Optional[str] = None
            try:
                master_id = cluster.scheduler.route_update(list(tables))
                node = cluster.nodes.get(master_id)
                if node is not None and node.alive and node.master is not None:
                    return node
                unavailable = NodeUnavailable(f"{master_id} is not serving as master yet")
            except NodeUnavailable as exc:
                unavailable = exc
            if not self._may_recover(master_id):
                raise unavailable
            if not queued:
                queued = True
                self.counters.add("sched.queued_updates")
            yield from self._park(deadline, "reconfiguration")

    def _park(self, deadline: float, during: str):
        """Wait on the waiter queue until woken or the absolute ``deadline``."""
        remaining = deadline - self.sim.now()
        if remaining <= 0:
            self.counters.add("sched.deadline_rejects")
            expired = NodeUnavailable(f"update queue deadline expired during {during}")
            expired.reason = "reconfig-deadline"
            raise expired
        waiter = self.sim.event()
        self._waiters.append(waiter)
        yield self.sim.any_of([waiter, self.sim.timeout(remaining)])

    def _may_recover(self, master_id: Optional[str]) -> bool:
        """Could a queued update for ``master_id`` plausibly be served later?"""
        cluster = self.cluster
        if master_id is not None and master_id in cluster.failover.dead_ends:
            return False
        if not cluster.alive_scheduler_agents():
            return False
        if cluster.failover.reconfiguring:
            return True
        if any(not a.ready for a in cluster.alive_scheduler_agents()):
            return True  # scheduler takeover in flight
        # Not mid-reconfiguration: recovery is conceivable only if the
        # failure has not been detected yet and a successor candidate exists.
        return any(
            n.alive and n.slave is not None and n.subscribed and n.master is None
            for n in cluster.nodes.values()
        )

    def wake(self) -> None:
        """Release every queued update to re-route (topology changed)."""
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed(None)

    def _update_slot(self, node_id: str) -> Resource:
        slot = self.update_slots.get(node_id)
        if slot is None:
            slot = self.update_slots[node_id] = Resource(self.sim, self.config.update_mpl)
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
            if self.config.update_mpl <= 0:
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
                    stale = (
                        self.cluster.conflict_map.master_for_tables(tables) != node.node_id
                    )
                except ConfigError:
                    stale = True
            if not stale:
                self._observe_admission_delay(entered)
                return node, slot
            slot.release()

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
