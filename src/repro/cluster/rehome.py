"""The forced conflict-class re-home: a drain-barrier handoff (DESIGN.md §13).

Conflict classes are fixed when the cluster is built, as in the paper;
only the master that owns one can change.  Besides failover, which
repoints every class of a dead master, the one way a class moves is a
forced re-home (``chaos.faults.Rehome``, ``SimDmvCluster.rehome_table_to``):
ownership changes hands through a park -> drain -> adopt -> flip -> wake
state machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.common.versions import VersionVector
from repro.cluster.straggler import LAGGARD_PROBE_INTERVAL
from repro.core.dual import DualController
from repro.engine.txn import TxnMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simcluster import SimDmvCluster
    from repro.cluster.simnodes import InMemoryDbNode

#: A re-home drain barrier that cannot quiesce the moving class within
#: this long aborts the handoff and leaves ownership untouched.
REHOME_DRAIN_TIMEOUT = 5.0


class Rehomer:
    """The classes mid-re-home and the handoff that moves one."""

    def __init__(self, cluster: "SimDmvCluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.cost = cluster.cost
        self.counters = cluster.counters
        self.conflict_map = cluster.conflict_map
        #: Conflict classes mid-re-home: the router does not serve their
        #: update queues until the ownership flip (drain barrier).
        self.rehoming_classes: set = set()

    def rehome_table_to(self, table: str, dst_id: str):
        """Spawn a re-home of ``table``'s class onto ``dst_id`` (chaos hook)."""
        class_id = self.conflict_map.class_of(table)
        return self.sim.spawn(
            self._rehome_class(class_id, dst_id), name=f"rehome-{class_id}"
        )

    def _class_quiescent(self, node: "InMemoryDbNode", tables: set) -> bool:
        """No in-flight update on ``node`` touches ``tables``."""
        for txn in node.engine.active_transactions():
            if txn.mode is not TxnMode.UPDATE:
                continue
            if (set(txn.write_intent) | set(txn.tables_written)) & tables:
                return False
        return not self.cluster.pipeline.epoch_open(node.node_id)

    def _class_caught_up(self, src: "InMemoryDbNode", dst: "InMemoryDbNode", tables) -> bool:
        """``dst`` has received every write-set for ``tables`` that ``src``
        (their current master) ever published."""
        for table in tables:
            if dst.slave.received_versions.get(table) < src.engine.versions.get(table):
                return False
        return True

    def _rehome_class(self, class_id: int, dst_id: str):
        """Drain-barrier handoff of one conflict class to a new master.

        State machine (DESIGN.md §13): PARK the class's update queue →
        DRAIN in-flight transactions, the open epoch and the replication
        channels → ADOPT on the destination (apply buffered ops, continue
        the version sequences) → FLIP ownership atomically (conflict map +
        dual-controller owned sets + scheduler master set) → WAKE: the
        queue is handed to the owner.  Every abort path leaves ownership
        untouched and wakes the queue too, so a master kill mid-handoff
        degrades to the ordinary failover path.
        """
        try:
            src_id = self.conflict_map.master_of_class(class_id)
        except ConfigError:
            return
        if src_id == dst_id or class_id in self.rehoming_classes:
            return
        src = self.cluster.nodes.get(src_id)
        dst = self.cluster.nodes.get(dst_id)
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
        span = self.cluster.tracer.span(
            "rehome", kind="rehome", conflict_class=class_id, src=src_id, dst=dst_id
        )
        self.rehoming_classes.add(class_id)
        flipped = False
        try:
            deadline = self.sim.now() + REHOME_DRAIN_TIMEOUT
            while True:
                if not src.alive or not dst.alive or self.cluster.failover.reconfiguring:
                    self.counters.add("sched.rehome_aborts")
                    return
                if self._class_quiescent(src, tables) and self._class_caught_up(
                    src, dst, tables
                ):
                    break
                if self.sim.now() >= deadline:
                    self.counters.add("sched.rehome_aborts")
                    return
                yield self.sim.timeout(LAGGARD_PROBE_INTERVAL / 100.0)
            # Handoff cost: coordination overhead + per-table adoption +
            # applying whatever the destination still has buffered.
            pending = dst.slave.pending_op_count()
            yield self.sim.timeout(self.cost.rehome_cost(len(tables), pending))
            if not src.alive or not dst.alive or self.cluster.failover.reconfiguring:
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
            target = self.cluster.confirmed_vector()
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
            for agent in self.cluster.alive_scheduler_agents():
                agent.scheduler.on_class_rehome(class_id, dst_id)
            self.counters.add("sched.class_rehomes")
            flipped = True
        finally:
            self.rehoming_classes.discard(class_id)
            self.cluster.router.wake()
            span.finish(status="flipped" if flipped else "aborted")
