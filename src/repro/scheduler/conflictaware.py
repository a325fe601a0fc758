"""Conflict-aware scheduler for the replicated on-disk baseline.

Models the paper's §6.2 comparison system: a small set of *active* on-disk
replicas kept consistent by applying every update on each of them
(conflict-aware ordering collapses to a single total order here because the
scheduler serialises update routing), plus a *passive* backup that is
refreshed from the update log only every ``refresh_interval`` (30 minutes
in the paper).  On failover the backup must replay its entire log lag
before serving reads — which is exactly the long "DB update" phase in
Figures 5(a,b) and 6.
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
        self.query_log.set_cursor(node_id, len(self.query_log) if not passive else 0)

    def remove_replica(self, node_id: NodeId) -> None:
        self.replicas.pop(node_id, None)
        self.query_log.unregister(node_id)

    def active_replicas(self) -> List[DiskReplicaState]:
        return [r for r in self.replicas.values() if not r.passive]

    def passive_replicas(self) -> List[DiskReplicaState]:
        return [r for r in self.replicas.values() if r.passive]

    @property
    def routing_epoch(self) -> int:
        """API parity with ``VersionAwareScheduler.routing_epoch``.

        The on-disk baseline routes every update to every active replica
        (write-all, one total order), so its routing table never changes
        shape: the epoch is constant 0.
        """
        return 0

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

    # -- update logging / backup refresh --------------------------------------------
    def log_update(self, queries: Sequence[Tuple[str, Tuple]]) -> LoggedUpdate:
        self._txn_counter += 1
        entry = LoggedUpdate(self._txn_counter, tuple(queries))
        self.query_log.append(entry)
        for replica in self.active_replicas():
            # Active replicas applied it synchronously; advance their cursor.
            self.query_log.set_cursor(replica.node_id, len(self.query_log))
        return entry

    def backup_lag(self, node_id: NodeId) -> int:
        return self.query_log.lag_of(node_id)

    def refresh_batch(self, node_id: NodeId) -> List[LoggedUpdate]:
        """Everything the passive backup is missing (periodic refresh)."""
        batch = self.query_log.pending_for(node_id)
        self.query_log.advance(node_id, len(batch))
        self.counters.add("casched.refresh_batches")
        return batch

    # -- failover ---------------------------------------------------------------------
    def promote_backup(self, node_id: NodeId) -> int:
        """Activate a passive backup; returns the log lag it must replay."""
        state = self.replicas.get(node_id)
        if state is None:
            raise NodeUnavailable(f"unknown backup {node_id}")
        lag = self.backup_lag(node_id)
        state.passive = False
        self.counters.add("casched.promotions")
        return lag
