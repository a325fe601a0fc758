"""Conflict-aware scheduler for the replicated on-disk baseline.

Models the paper's §6.2 comparison system: a small set of *active* on-disk
replicas kept consistent by applying every update on each of them
(conflict-aware ordering collapses to a single total order here because the
scheduler serialises update routing), plus a *passive* backup that is
refreshed from the update log only every ``refresh_interval`` (30 minutes
in the paper).  On failover the backup must replay its entire log lag
before serving reads — which is exactly the long "DB update" phase in
Figures 5(a,b) and 6.  Only passive backups have log cursors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.counters import Counters
from repro.common.errors import NodeUnavailable
from repro.common.ids import NodeId
from repro.scheduler.querylog import LoggedUpdate, QueryLog


@dataclass
class DiskReplicaState:
    node_id: NodeId
    passive: bool = False
    outstanding: int = 0


class ConflictAwareScheduler:
    """Routing and log bookkeeping for the on-disk replicated tier."""

    def __init__(self, scheduler_id: NodeId, counters: Optional[Counters] = None) -> None:
        self.scheduler_id = scheduler_id
        self.counters = counters if counters is not None else Counters()
        self.replicas: Dict[NodeId, DiskReplicaState] = {}
        self.query_log = QueryLog()
        self._txn_counter = 0

    # -- topology --------------------------------------------------------------
    def add_replica(self, node_id: NodeId, passive: bool = False) -> None:
        self.replicas[node_id] = DiskReplicaState(node_id, passive=passive)
        if passive:
            self.query_log.set_cursor(node_id, 0)

    def remove_replica(self, node_id: NodeId) -> None:
        self.replicas.pop(node_id, None)
        self.query_log.unregister(node_id)

    def active_replicas(self) -> List[DiskReplicaState]:
        return [r for r in self.replicas.values() if not r.passive]

    def passive_replicas(self) -> List[DiskReplicaState]:
        return [r for r in self.replicas.values() if r.passive]

    # -- routing -----------------------------------------------------------------
    def route_read(self) -> NodeId:
        candidates = self.active_replicas()
        if not candidates:
            raise NodeUnavailable("no active on-disk replicas")
        chosen = min(candidates, key=lambda r: (r.outstanding, r.node_id))
        chosen.outstanding += 1
        self.counters.add("casched.reads_routed")
        return chosen.node_id

    def note_read_done(self, node_id: NodeId) -> None:
        state = self.replicas.get(node_id)
        if state is not None and state.outstanding > 0:
            state.outstanding -= 1

    def update_targets(self) -> List[NodeId]:
        """Updates are applied on every *active* replica (write-all)."""
        self.counters.add("casched.updates_routed")
        return [r.node_id for r in self.active_replicas()]

    # -- update logging ---------------------------------------------------------------
    def log_update(self, queries: Sequence[Tuple[str, Tuple]]) -> LoggedUpdate:
        """Log one update the active replicas committed, for the backups."""
        self._txn_counter += 1
        entry = LoggedUpdate(self._txn_counter, tuple(queries))
        self.query_log.append(entry)
        return entry

    # -- failover ---------------------------------------------------------------------
    def promote_backup(self, node_id: NodeId) -> None:
        """Activate a passive backup that has replayed the log: from now on it
        takes every update write-all and consumes the log no more."""
        state = self.replicas.get(node_id)
        if state is None:
            raise NodeUnavailable(f"unknown backup {node_id}")
        state.passive = False
        self.query_log.unregister(node_id)
        self.counters.add("casched.promotions")
