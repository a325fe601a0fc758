"""The timing-free protocol decisions every cluster driver shares.

The simulated cluster adds virtual time and a transport around these, the
synchronous cluster calls them inline, the threaded cluster calls them
under its mutex — but who becomes what, who receives a broadcast, what
a master failure cleans up, elects and promotes, and which replica feeds a
joiner's data migration is decided here, once.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.versions import VersionVector
from repro.cluster.costs import batch_bytes
from repro.cluster.interest import InterestRegistry
from repro.cluster.node import ReplicaNode
from repro.core.conflictclass import ConflictClassMap
from repro.core.dual import DualController
from repro.core.slave import SlaveReplica
from repro.core.writeset import WriteSet
from repro.failover.recovery import promote_slave_to_master


# -- role assignment ---------------------------------------------------------------------
def assign_masters(
    conflict_map: ConflictClassMap, multi_master: bool, num_masters: Optional[int] = None
) -> List[str]:
    """Name the masters ``m<i>`` and spread the conflict classes over them."""
    if num_masters is None:
        # Legacy shape: one master, or (historic multi-master tests)
        # one per conflict class capped at two.
        num_masters = min(conflict_map.num_classes, 2) if multi_master else 1
    master_ids = [f"m{i}" for i in range(max(1, num_masters))]
    conflict_map.assign_masters(master_ids)
    return master_ids


def assign_roles(
    conflict_map: ConflictClassMap,
    table_names: Sequence[str],
    master_ids: Sequence[str],
    num_slaves: int,
    num_spares: int,
    make_node: Callable[[str, str], ReplicaNode],
    schedulers: Iterable,
) -> Dict[str, ReplicaNode]:
    """Build the replica set for a conflict map.

    ``make_node(node_id, role)`` constructs one replica (``role`` is
    ``master``, ``slave`` or ``spare``).  One master per id — with
    several, each also keeps a slave role for the classes it does not own
    — then slaves ``s<i>`` and spares ``spare<i>``, every slave registered
    with every scheduler.
    """
    nodes: Dict[str, ReplicaNode] = {}
    for master_id in master_ids:
        node = nodes[master_id] = make_node(master_id, "master")
        if len(master_ids) > 1:
            node.make_dual_master(owned_tables(conflict_map, table_names, master_id))
        else:
            node.make_master()
    members = [(f"s{i}", "slave") for i in range(num_slaves)]
    members += [(f"spare{i}", "spare") for i in range(num_spares)]
    for node_id, role in members:
        node = nodes[node_id] = make_node(node_id, role)
        node.make_slave()
        for scheduler in schedulers:
            scheduler.add_slave(node_id, spare=role == "spare")
    return nodes


def owned_tables(
    conflict_map: ConflictClassMap, table_names: Iterable[str], master_id: str
) -> Set[str]:
    """The tables whose conflict class ``master_id`` currently owns."""
    return {
        table
        for table in table_names
        if conflict_map.master_of_class(conflict_map.class_of(table)) == master_id
    }


# -- broadcast fan-out --------------------------------------------------------------------
def fan_out(
    nodes: Dict[str, ReplicaNode],
    source_id: str,
    write_set: WriteSet,
    interest: InterestRegistry,
) -> Iterator[Tuple[ReplicaNode, WriteSet]]:
    """Who receives ``write_set``, and which frame of it.

    Yields ``(target, frame)`` for every alive, subscribed slave role other
    than the source; a demoted laggard or stale backup is unsubscribed and
    skipped (it re-fetches the gap through data migration).  With full
    replication (the default) every target gets the original object.
    Under partial replication each frame is restricted to the target's
    interest: fully filtered frames are never sent at all, and the
    per-target wire savings land under ``net.bytes_saved_partial``.
    """
    partial = interest.partial_active
    for target in nodes.values():
        if (
            target.node_id == source_id
            or not target.alive
            or target.slave is None
            or not target.subscribed
        ):
            continue
        frame = write_set
        if partial:
            frame = interest.restrict(target.node_id, write_set)
            if frame is None:
                target.counters.add("net.write_sets_filtered")
                target.counters.add("net.bytes_saved_partial", write_set.byte_size())
                continue
            if frame is not write_set:
                target.counters.add(
                    "net.bytes_saved_partial",
                    write_set.byte_size() - frame.byte_size(),
                )
        yield target, frame


def account_batch(counters, write_sets: Sequence[WriteSet]) -> int:
    """Wire accounting of one batched replication message to one target.

    One framed batch per target: the (memoized) write-set sizes are summed
    rather than re-encoded per hop.  Returns the payload size.
    """
    payload = sum(ws.byte_size() for ws in write_sets)
    counters.add("net.batches")
    counters.add("net.bytes_shipped", batch_bytes(payload, len(write_sets)))
    saved = sum(ws.bytes_saved() for ws in write_sets)
    if saved:
        counters.add("net.bytes_saved_delta", saved)
    return payload


# -- master failover (paper §4.2) ---------------------------------------------------------
def cleanup_scope(
    conflict_map: ConflictClassMap, failed_id: str, confirmed: VersionVector
) -> Tuple[VersionVector, List[str]]:
    """What a master failure may discard: ``(cleanup_vector, failed_tables)``.

    Only the FAILED master's conflict classes are cleaned down to the
    confirmed vector — other masters' in-flight pre-commits are still live,
    so their tables are lifted out of reach.
    """
    cleanup_vector = confirmed.copy()
    failed_tables = []
    for table in conflict_map.tables:
        owner = conflict_map.master_of_class(conflict_map.class_of(table))
        if owner != failed_id:
            cleanup_vector.set(table, 1 << 60)
        else:
            failed_tables.append(table)
    return cleanup_vector, failed_tables


def successor_candidates(
    survivors: Iterable[ReplicaNode],
    failed_tables: Sequence[str],
    interest: InterestRegistry,
    is_spare: Callable[[str], bool],
) -> List[SlaveReplica]:
    """Slaves eligible to replace a failed master (for ``elect_new_master``).

    Subscribed pure slaves; active ones before spares.  Only a slave whose
    interest covers the failed master's tables can serve as its successor:
    a non-covering (partial) replica never received those tables'
    write-sets, so promoting it would resurrect the version-0 base as
    current state.
    """
    pure_slaves = [
        n
        for n in survivors
        if n.master is None and interest.covers(n.node_id, failed_tables)
    ]
    return [
        n.slave for n in pure_slaves if not is_spare(n.node_id) and n.subscribed
    ] or [n.slave for n in pure_slaves if n.subscribed]


def inherited_tables(
    nodes: Dict[str, ReplicaNode], conflict_map: ConflictClassMap, failed_id: str
) -> Optional[Set[str]]:
    """The tables a promotee takes over, or ``None`` for all of them.

    While other masters survive, the promotee inherits only the failed
    master's conflict classes and stays a slave for the rest.
    """
    other_masters_alive = any(
        n.alive and n.master is not None and n.node_id != failed_id
        for n in nodes.values()
    )
    if not other_masters_alive:
        return None
    return owned_tables(conflict_map, conflict_map.tables, failed_id)


def promote(
    node: ReplicaNode, confirmed: VersionVector, inherited: Optional[Set[str]]
) -> None:
    """Switch ``node`` from slave to master of ``inherited`` (``None`` = sole
    master); with ``inherited`` it keeps a slave role behind a
    :class:`DualController` for the classes it does not own."""
    slave = node.slave
    node.master = promote_slave_to_master(slave, confirmed)
    if inherited is not None:
        node.engine.set_controller(DualController(set(inherited), slave))
    else:
        node.slave = None


# -- data migration (paper §4.4) -----------------------------------------------------------
def rejoin_support(
    nodes: Dict[str, ReplicaNode],
    joiner_id: str,
    interest: InterestRegistry,
    ack_policy: str,
) -> Optional[ReplicaNode]:
    """The slave that feeds ``joiner_id``'s data migration (``None``: the
    master is the source of last resort).

    Candidates are alive, subscribed pure slaves whose interest covers the
    joiner's (a dual master's slave role shares the master's engine, whose
    pages hold uncommitted writes in place).  Under ``all`` acks each holds
    every confirmed write-set, so the first will do; under ``quorum``
    per-slave histories are nested prefixes of the broadcast order, so the
    caught-up one with the highest received total (then node id) holds
    every confirmed commit.
    """
    wanted = interest.get(joiner_id)
    candidates = [
        n
        for n in nodes.values()
        if n.alive
        and n.slave is not None
        and n.master is None
        and n.subscribed
        and n.node_id != joiner_id
        and interest.get(n.node_id).superset_of(wanted)
    ]
    if ack_policy == "all":
        return candidates[0] if candidates else None
    return max(
        (n for n in candidates if not n.slave.catching_up),
        key=lambda n: (n.slave.received_versions.total(), n.node_id),
        default=None,
    )
