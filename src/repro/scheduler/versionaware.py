"""The version-aware DMV scheduler (Section 2.2 of the paper).

Routing rules:

* update transactions go to the master of their conflict class (single
  master fallback when classes are unknown);
* read-only transactions are tagged with the latest merged version vector
  and sent to an active slave whose interest covers every table they
  touch and which owes no ack on those tables: the least-loaded one that
  cannot mix versions (idle, or already serving exactly that tag), else
  the least-loaded one.  Uncovering slaves count ``sched.coverage_rejects``.
  With no such slave the read falls back to the first covering master
  (``sched.read_master_fallbacks``), which always holds current state;
* a configurable fraction of reads is diverted to warm spare backups
  (the Figure 8 warm-up strategy), skipping a spare that owes an ack.

A slave *owes* the versions of every write-set sent to it whose positive
ack had not arrived when the commit was confirmed (the ledger is fed by
the cluster's commit path and its replication channels; a driver that
replicates inline before confirm never feeds it).  Such a slave may be
missing a write at or below the read's tag, so it serves no read of
those tables until the ack arrives or it rejoins.

The scheduler's only hard state is the version vector (plus the query log
for the persistence tier), which is why scheduler failover is nearly free:
peers merely merge version vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.counters import Counters
from repro.common.errors import NodeUnavailable
from repro.common.ids import NodeId
from repro.common.rng import RngStream
from repro.common.versions import VersionVector
from repro.core.conflictclass import ConflictClassMap
from repro.obs import NULL_TRACER, Tracer
from repro.scheduler.querylog import LoggedUpdate, QueryLog


@dataclass
class SlaveState:
    """What the scheduler tracks per in-memory replica."""

    node_id: NodeId
    spare: bool = False
    outstanding: int = 0
    #: True while the replica is demoted to catch-up mode (laggard): it
    #: keeps receiving write-sets best-effort but is excluded from the
    #: commit ack set and from fresh-version read routing.
    demoted: bool = False
    #: version vector of the last read-only txn routed here (affinity).
    last_tag: VersionVector = field(default_factory=VersionVector)


@dataclass(frozen=True)
class RoutedRead:
    """Routing decision for one read-only transaction."""

    node_id: NodeId
    tag: VersionVector


class VersionAwareScheduler:
    """Pure routing + version bookkeeping for the in-memory tier."""

    def __init__(
        self,
        scheduler_id: NodeId,
        conflict_map: ConflictClassMap,
        rng: Optional[RngStream] = None,
        spare_read_fraction: float = 0.0,
        counters: Optional[Counters] = None,
    ) -> None:
        self.scheduler_id = scheduler_id
        self.conflict_map = conflict_map
        self.rng = rng if rng is not None else RngStream(0, "scheduler", scheduler_id)
        self.spare_read_fraction = spare_read_fraction
        self.counters = counters if counters is not None else Counters()
        #: Set by the cluster when tracing is enabled; routing decisions
        #: become instant events so a trace shows *why* a read landed where
        #: it did (affinity hit, spare diversion, least-loaded fallback).
        self.tracer: Tracer = NULL_TRACER
        self.latest = VersionVector()
        self.slaves: Dict[NodeId, SlaveState] = {}
        self.masters: Set[NodeId] = set(conflict_map.masters_in_use())
        self.query_log = QueryLog()
        #: Declared partial interest sets (a full replica is simply
        #: absent), kept out of SlaveState so they survive the slave-pool
        #: rebuilds of scheduler takeover and crash/rejoin cycles.
        self._interest: Dict[NodeId, FrozenSet[str]] = {}
        #: node -> table -> highest version the node owes an ack for (see
        #: the module docstring); a node with no debt is absent.
        self._owed: Dict[NodeId, Dict[str, int]] = {}
        #: Where ``sched.coverage_rejects`` and ``sched.read_master_fallbacks``
        #: are recorded: the cluster points this at its own fingerprinted
        #: counters, so a run's report shows them.
        self.cluster_counters = self.counters

    # -- topology -----------------------------------------------------------------
    def add_slave(self, node_id: NodeId, spare: bool = False) -> None:
        self.slaves[node_id] = SlaveState(node_id, spare=spare)
        # A slave (re)joining the pool is current: initial construction
        # happens before any commit, and a rejoin completes data migration
        # before re-adding.
        self._owed.pop(node_id, None)

    def remove_node(self, node_id: NodeId) -> None:
        self.slaves.pop(node_id, None)
        self.masters.discard(node_id)

    def promote_spare(self, node_id: NodeId) -> None:
        """Turn a warm backup into an active slave (failover)."""
        state = self.slaves.get(node_id)
        if state is None:
            raise NodeUnavailable(f"unknown spare {node_id}")
        state.spare = False

    def active_slaves(self) -> List[SlaveState]:
        return [s for s in self.slaves.values() if not s.spare and not s.demoted]

    def spare_slaves(self) -> List[SlaveState]:
        return [s for s in self.slaves.values() if s.spare and not s.demoted]

    # -- partial replication (interest sets) ------------------------------------------
    def set_interest(
        self, node_id: NodeId, tables: Optional[Iterable[str]]
    ) -> None:
        """Declare one replica's interest set (``None`` = full replication)."""
        if tables is None:
            self._interest.pop(node_id, None)
        else:
            self._interest[node_id] = frozenset(tables)

    def _covers(self, node_id: NodeId, tables: Sequence[str]) -> bool:
        interest = self._interest.get(node_id)
        if interest is None:
            return True
        return all(table in interest for table in tables)

    # -- the ack ledger ----------------------------------------------------------------
    def note_owed(self, node_id: NodeId, versions: Dict[str, int]) -> None:
        """A commit was confirmed before ``node_id`` acked ``versions``."""
        owed = self._owed.setdefault(node_id, {})
        for table, version in versions.items():
            if version > owed.get(table, 0):
                owed[table] = version

    def note_acked(self, node_id: NodeId, versions: Dict[str, int]) -> None:
        """``node_id`` positively acked ``versions``: clear the debts they cover."""
        owed = self._owed.get(node_id)
        if owed is None:
            return
        for table, version in versions.items():
            if table in owed and owed[table] <= version:
                del owed[table]
        if not owed:
            del self._owed[node_id]

    def _owes(self, node_id: NodeId, tables: Sequence[str]) -> bool:
        owed = self._owed.get(node_id)
        return owed is not None and any(table in owed for table in tables)

    def set_demoted(self, node_id: NodeId, demoted: bool) -> None:
        """Mark a laggard replica demoted (or restore it after rejoin).

        A demoted replica stays in the pool — it is alive and heartbeating
        — but no fresh-version reads are routed to it and the cluster's
        commit path excludes it from the ack barrier.  Restoring it comes
        after its rejoin's data migration, which leaves it owing nothing.
        """
        state = self.slaves.get(node_id)
        if state is not None:
            state.demoted = demoted
        if not demoted:
            self._owed.pop(node_id, None)

    # -- routing --------------------------------------------------------------------
    def route_update(self, tables: Iterable[str]) -> NodeId:
        master = self.conflict_map.master_for_tables(tables)
        self.counters.add("sched.updates_routed")
        if self.tracer.enabled:
            self.tracer.instant(
                "route", kind="update", node=master, scheduler=self.scheduler_id
            )
        return master

    def route_read(self, tables: Sequence[str]) -> RoutedRead:
        """Tag with the latest version vector and pick a replica.

        Coverage is checked before the ledger: an uncovering slave cannot
        answer the query at all, and each one shed counts one
        ``sched.coverage_rejects``.  A covering slave that owes an ack on
        ``tables`` is passed over for the master fallback rather than
        serve a write it may not have.  Masters hold current state for
        their own classes (and, as dual nodes or the single master, for
        everything), so the fallback is always safe — just unscalable,
        which is why it has its own counter.
        """
        tag = self.latest.copy()
        self.counters.add("sched.reads_routed")
        spares = self.spare_slaves()
        if spares and self.spare_read_fraction > 0:
            if self.rng.random() < self.spare_read_fraction:
                spares = [s for s in spares if not self._owes(s.node_id, tables)]
                if spares:
                    spare = min(spares, key=lambda s: (s.outstanding, s.node_id))
                    self.counters.add("sched.reads_to_spares")
                    return self._assign(spare, tag, reason="spare-diversion")
        candidates = []
        rejects = 0
        for state in self.active_slaves():
            if not self._covers(state.node_id, tables):
                rejects += 1
            elif not self._owes(state.node_id, tables):
                candidates.append(state)
        if rejects:
            self.cluster_counters.add("sched.coverage_rejects", rejects)
        if candidates:
            # Prefer replicas that cannot mix versions: idle ones (no reader
            # at any version) or ones already serving exactly this tag.
            safe = [s for s in candidates if not s.outstanding or s.last_tag == tag]
            chosen = min(safe or candidates, key=lambda s: (s.outstanding, s.node_id))
            if chosen.last_tag == tag:
                self.counters.add("sched.reads_version_affinity")
                return self._assign(chosen, tag, reason="version-affinity")
            return self._assign(chosen, tag)
        for master in sorted(self.masters):
            # An original master holds everything; a promoted ex-partial
            # dual master only its inherited classes plus its old interest
            # — fall back to the first master that actually covers.
            if not self._covers(master, tables):
                continue
            self.cluster_counters.add("sched.read_master_fallbacks")
            if self.tracer.enabled:
                self.tracer.instant(
                    "route", kind="read", node=master,
                    scheduler=self.scheduler_id, reason="master-fallback",
                )
            return RoutedRead(master, tag)
        raise NodeUnavailable("no replica or master covers the read")

    def _assign(
        self, state: SlaveState, tag: VersionVector, reason: str = "least-loaded"
    ) -> RoutedRead:
        state.outstanding += 1
        state.last_tag = tag
        if self.tracer.enabled:
            self.tracer.instant(
                "route", kind="read", node=state.node_id,
                scheduler=self.scheduler_id, reason=reason, tag=tag.as_dict(),
            )
        return RoutedRead(state.node_id, tag)

    def note_read_done(self, node_id: NodeId) -> None:
        state = self.slaves.get(node_id)
        if state is not None and state.outstanding > 0:
            state.outstanding -= 1

    # -- commit bookkeeping ------------------------------------------------------------
    def on_master_commit(
        self,
        master_id: NodeId,
        versions: Dict[str, int],
        queries: Sequence[Tuple[str, Tuple]] = (),
        txn_id: int = 0,
    ) -> None:
        """Merge the master's new version vector; log queries for disk tier."""
        self.latest.merge(VersionVector(versions))
        if queries:
            self.query_log.append(LoggedUpdate(txn_id, tuple(queries), dict(versions)))
        self.counters.add("sched.commits_recorded")

    # -- failure reconfiguration ----------------------------------------------------------
    def on_master_failure(self, failed: NodeId, replacement: NodeId) -> int:
        """Repoint the failed master's conflict classes at the replacement."""
        self.slaves.pop(replacement, None)  # promoted slave leaves the pool
        self.masters.discard(failed)
        self.masters.add(replacement)
        return self.conflict_map.reassign_master(failed, replacement)

    def on_class_rehome(self, class_id: int, new_master: NodeId) -> None:
        """One conflict class moved to a new (already serving) master.

        The shared conflict map carries the new assignment; this hook only
        keeps the scheduler's master set — the read fallback's candidates —
        in step.
        """
        self.masters.add(new_master)
        self.counters.add("sched.class_rehomes")

    # -- peer replication (scheduler failover) ----------------------------------------------
    def export_state(self) -> Dict[str, int]:
        """The scheduler's tiny replicable state: just DBVersion."""
        return self.latest.as_dict()

    def import_state(self, state: Dict[str, int]) -> None:
        self.latest.merge(VersionVector(state))
