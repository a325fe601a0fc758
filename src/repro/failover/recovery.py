"""Master-failure recovery (paper §4.2).

Upon master failure a scheduler takes charge:

1. every remaining replica discards modification-log records with versions
   higher than the last version the scheduler saw from the failed master
   (cleaning up pre-commit flushes that were never acknowledged);
2. a new master is elected from the slaves and promoted: it applies all its
   buffered modifications, adopts the confirmed version vector and switches
   to the master's concurrency control (the paper's two-phase locking;
   here OCC read validation with X-locked writes);
3. the scheduler repoints the failed master's conflict classes.

Effects of in-flight transactions on the failed master are lost by
construction — all their modifications were internal to it until the
pre-commit broadcast.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import NodeUnavailable
from repro.common.versions import VersionVector
from repro.core.master import MasterReplica
from repro.core.slave import SlaveReplica
from repro.engine.engine import make_update_controller


def cleanup_after_master_failure(
    slaves: Iterable[SlaveReplica], confirmed: VersionVector
) -> int:
    """Step 1: discard unacknowledged write-sets everywhere; returns ops dropped."""
    return sum(slave.discard_above(confirmed) for slave in slaves)


def ghost_wal_records(
    records: Iterable, confirmed: VersionVector
) -> List:
    """Classify a crashed node's WAL records as potential ghosts.

    A record above the cluster-confirmed vector at crash time is durable
    on this node's disk (or was believed to be) without its transaction
    having been acknowledged to any client.  If the commit never confirms,
    nothing derived from this disk may resurface it — the restart redo
    must skip it and no replay path may resurrect it.  Records whose
    versions are all covered by ``confirmed`` are, by construction,
    acknowledged history and never ghosts.
    """
    ghosts = []
    for record in records:
        versions = getattr(record, "versions", ())
        if not versions:
            continue
        if all(v <= confirmed.get(t) for t, v in versions):
            continue
        ghosts.append(record)
    return ghosts


def _candidate_freshness(slave: SlaveReplica) -> int:
    """Total replicated progress of one candidate: adopted + buffered.

    The received-versions vector already includes buffered-but-unapplied
    write-sets (it advances at receive time), so its total orders
    candidates by how much confirmed history promotion can preserve.
    """
    return slave.received_versions.total()


def elect_new_master(candidates: Sequence[SlaveReplica]) -> SlaveReplica:
    """Pick the replacement master: freshest candidate, lowest-id tiebreak.

    Under all-slave acks every survivor holds every confirmed write-set,
    so any deterministic pick is safe.  Under quorum acks a survivor
    *outside* the quorum may be missing confirmed commits — electing it
    by id alone would discard history that other survivors still hold.
    The freshest candidate (max version-vector total) can always reach
    the confirmed vector from its own buffers.
    """
    alive = list(candidates)
    if not alive:
        raise NodeUnavailable("no surviving slave to promote")
    return min(alive, key=lambda s: (-_candidate_freshness(s), s.node_id))


def promote_slave_to_master(
    slave: SlaveReplica, confirmed: Optional[VersionVector] = None
) -> MasterReplica:
    """Step 2: switch a slave into master mode.

    The slave applies everything it buffered (all of it is confirmed after
    :func:`cleanup_after_master_failure`), adopts the confirmed version
    vector, and its engine switches to the master's update-path
    concurrency controller.  The same engine object keeps serving — its
    warm state is exactly why in-memory failover is fast.
    """
    slave.apply_all_pending()
    engine = slave.engine
    engine.abort_all_active(reason="promotion")
    engine.set_controller(make_update_controller())
    if confirmed is not None:
        engine.versions = confirmed.copy()
    else:
        engine.versions = slave.received_versions.copy()
    return MasterReplica(slave.node_id, engine=engine, counters=slave.counters)
