"""The version-aware DMV scheduler (Section 2.2 of the paper).

Routing rules:

* update transactions go to the master of their conflict class (single
  master fallback when classes are unknown);
* read-only transactions are tagged with the latest merged version vector
  and sent to a replica already serving that exact version if one exists,
  otherwise to the least-loaded active slave;
* a configurable fraction of reads is diverted to warm spare backups
  (the Figure 8 warm-up strategy);
* under partial replication (any slave with a declared interest set),
  routing goes coverage-then-version: a slave is a candidate only if its
  interest covers every table the read touches (``sched.coverage_rejects``
  counts the shed candidates) *and* its acked versions are fresh enough
  for the read's tag; with no fresh covering slave the read falls back to
  a master (``sched.partial_master_fallbacks``), which always holds
  current state.

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


#: Shared all-zeroes vector for freshness checks on slaves with no acked
#: history yet (every ``get`` returns 0 — fresh only against a zero tag).
_EMPTY_VECTOR = VersionVector()


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
        #: Partial-replication routing state, kept OUT of SlaveState so it
        #: survives the slave-pool rebuilds of scheduler takeover and
        #: crash/rejoin cycles.  ``_interest`` holds only the partial
        #: entries (a full subscriber is simply absent); its emptiness is
        #: the legacy fast path — no entry, no partial routing, no new
        #: counters, bit-identical fingerprints.  ``_known`` tracks the
        #: per-slave acked version vector the coverage router's freshness
        #: check consults (fed by the cluster after each ack barrier).
        self._interest: Dict[NodeId, FrozenSet[str]] = {}
        self._known: Dict[NodeId, VersionVector] = {}
        #: Where the partial-routing counters (``sched.coverage_rejects``,
        #: ``sched.partial_master_fallbacks``) are recorded.  The cluster
        #: repoints this at its own merged-and-fingerprinted counters so
        #: chaos reports surface them; the legacy counters stay on the
        #: scheduler's private object, keeping full-replication
        #: fingerprints byte-identical.
        self.partial_counters = self.counters

    # -- topology -----------------------------------------------------------------
    def add_slave(self, node_id: NodeId, spare: bool = False) -> None:
        self.slaves[node_id] = SlaveState(node_id, spare=spare)
        if self._interest:
            # A slave (re)joining the pool is current: initial construction
            # happens before any commit, and a rejoin completes data
            # migration before re-adding.  Seed its acked vector so the
            # freshness check does not shed it until it actually lags.
            self._known[node_id] = self.latest.copy()

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
        """Declare one replica's interest set (``None`` = full replication).

        Declaring everything full empties the partial state entirely and
        restores legacy routing.
        """
        if tables is None:
            self._interest.pop(node_id, None)
            if not self._interest:
                self._known.clear()
        else:
            self._interest[node_id] = frozenset(tables)

    @property
    def partial_routing(self) -> bool:
        return bool(self._interest)

    def note_slave_versions(self, node_id: NodeId, versions: Dict[str, int]) -> None:
        """Record versions a slave positively acknowledged (freshness input)."""
        known = self._known.get(node_id)
        if known is None:
            known = self._known[node_id] = VersionVector()
        known.merge(VersionVector(versions))

    def _covers(self, node_id: NodeId, tables: Sequence[str]) -> bool:
        interest = self._interest.get(node_id)
        if interest is None:
            return True
        return all(table in interest for table in tables)

    def _fresh_enough(
        self, node_id: NodeId, tag: VersionVector, tables: Sequence[str]
    ) -> bool:
        known = self._known.get(node_id)
        if known is None:
            known = _EMPTY_VECTOR
        return all(known.get(table) >= tag.get(table) for table in tables)

    def set_demoted(self, node_id: NodeId, demoted: bool) -> None:
        """Mark a laggard replica demoted (or restore it after rejoin).

        A demoted replica stays in the pool — it is alive and heartbeating
        — but no fresh-version reads are routed to it and the cluster's
        commit path excludes it from the ack barrier.
        """
        state = self.slaves.get(node_id)
        if state is not None:
            state.demoted = demoted

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
        """Tag with the latest version vector and pick a replica."""
        tag = self.latest.copy()
        self.counters.add("sched.reads_routed")
        spares = self.spare_slaves()
        if spares and self.spare_read_fraction > 0:
            if self.rng.random() < self.spare_read_fraction:
                spare = min(spares, key=lambda s: (s.outstanding, s.node_id))
                self.counters.add("sched.reads_to_spares")
                return self._assign(spare, tag, reason="spare-diversion")
        candidates = self.active_slaves()
        if self._interest:
            return self._route_read_partial(tables, tag, candidates)
        if not candidates:
            raise NodeUnavailable("no active slaves available for read routing")
        # Prefer replicas already serving exactly this version.
        same_version = [s for s in candidates if s.last_tag == tag]
        pool = same_version if same_version else candidates
        if same_version:
            self.counters.add("sched.reads_version_affinity")
        chosen = min(pool, key=lambda s: (s.outstanding, s.node_id))
        return self._assign(
            chosen, tag,
            reason="version-affinity" if same_version else "least-loaded",
        )

    def _route_read_partial(
        self, tables: Sequence[str], tag: VersionVector, candidates: List[SlaveState]
    ) -> RoutedRead:
        """Coverage-then-version routing (partial replication).

        Coverage is checked first: a fresh-but-uncovering slave is never a
        candidate (it cannot answer the query at all), and every shed
        candidate counts one ``sched.coverage_rejects``.  Freshness is
        checked second: a stale-but-covering slave is passed over for the
        master fallback rather than serving a stale tag.  Masters always
        hold current state for their own classes (and, as dual nodes or
        the single legacy master, for everything), so the fallback is
        always safe — just unscalable, which is why it has its own
        counter.
        """
        covering = []
        rejects = 0
        for state in candidates:
            if self._covers(state.node_id, tables):
                covering.append(state)
            else:
                rejects += 1
        if rejects:
            self.partial_counters.add("sched.coverage_rejects", rejects)
        fresh = [
            state
            for state in covering
            if self._fresh_enough(state.node_id, tag, tables)
        ]
        if fresh:
            same_version = [s for s in fresh if s.last_tag == tag]
            pool = same_version if same_version else fresh
            if same_version:
                self.counters.add("sched.reads_version_affinity")
            chosen = min(pool, key=lambda s: (s.outstanding, s.node_id))
            return self._assign(
                chosen, tag,
                reason="version-affinity" if same_version else "coverage-fresh",
            )
        for master in sorted(self.masters):
            # An original master holds everything; a promoted ex-partial
            # dual master only its inherited classes plus its old interest
            # — fall back to the first master that actually covers.
            if not self._covers(master, tables):
                continue
            self.partial_counters.add("sched.partial_master_fallbacks")
            if self.tracer.enabled:
                self.tracer.instant(
                    "route", kind="read", node=master,
                    scheduler=self.scheduler_id, reason="partial-master-fallback",
                )
            return RoutedRead(master, tag)
        raise NodeUnavailable("no covering replica or master for read routing")

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
        keeps the scheduler's master set — the partial-routing fallback's
        candidates — in step.
        """
        self.masters.add(new_master)
        self.counters.add("sched.class_rehomes")

    # -- peer replication (scheduler failover) ----------------------------------------------
    def export_state(self) -> Dict[str, int]:
        """The scheduler's tiny replicable state: just DBVersion."""
        return self.latest.as_dict()

    def import_state(self, state: Dict[str, int]) -> None:
        self.latest.merge(VersionVector(state))
