"""Jepsen-lite cluster invariant checkers (run after quiescence).

Each checker audits one safety property of the DMV replication protocol
after a chaos run has stopped its workload and drained in-flight work:

* **durable-commits** — no browser-acknowledged commit is lost: every
  entry of the cluster's commit log is covered by the replicated state of
  every alive, subscribed, caught-up replica.
* **replica-convergence** — the per-table version watermarks of all alive
  subscribed replicas agree (eager propagation + retransmission converged).
* **snapshot-consistency** — stronger than version agreement: fully
  materialised table *contents* are byte-identical across replicas (a
  sampled read at the latest snapshot returns the same rows everywhere).
* **counter-conservation** — every write-set transmission is accounted
  for exactly once: ``net.write_sets_sent == slave.write_sets_received +
  net.dups_ignored + net.drops`` over the merged per-node counters.
* **durable-prefix** / **no-ghost-commits** — restart-from-own-disk
  recovered everything confirmed before the crash, and no
  never-acknowledged WAL record resurfaced through recovery (nothing to
  audit without durable WALs).

Checkers only inspect *alive* replicas: the fail-stop model (an
unreachable node is a failed node, and is killed by suspicion) means dead
nodes carry no obligations until they reintegrate — at which point data
migration restores them and the invariants apply again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.counters import Counters
from repro.traffic.engine import RECOVERY_EPSILON

#: Shed-rate fairness: a non-bursting tenant's shed ratio may not exceed
#: ``max(FAIRNESS_FLOOR, FAIRNESS_RATIO * worst aggressor)``.
FAIRNESS_RATIO = 0.5
FAIRNESS_FLOOR = 0.10
#: Burst recovery: seconds after the last burst ends by which goodput must
#: be back within ``RECOVERY_EPSILON`` of the pre-burst level.
RECOVERY_WINDOW = 40.0


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "OK  " if self.ok else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.detail}" if self.detail else "")


def _checked_nodes(cluster) -> List:
    """Replicas that carry invariant obligations right now."""
    return [
        node
        for node in cluster.nodes.values()
        if node.alive
        and node.subscribed
        and node.slave is not None
        and not node.slave.catching_up
    ]


def _covers(cluster, node, table: str) -> bool:
    """Does ``node`` carry replication obligations for ``table``?

    Under partial replication a pure slave is only obliged to hold tables
    inside its interest set; a full one (the default) covers everything.
    Masters always cover — they execute the updates themselves.
    """
    return node.master is not None or cluster.interest.covers_table(node.node_id, table)


def _table_watermark(node, table: str) -> int:
    """Highest version of ``table`` this node is known to hold.

    The received-versions vector is the primary source; page versions
    (including pending-queue headroom) cover reintegrated nodes whose
    migrated pages are newer than anything they received since rejoining.
    A co-located master role contributes its engine versions.
    """
    best = 0
    if node.slave is not None:
        best = max(best, node.slave.received_versions.get(table))
        for page_id, version in node.slave.page_versions().items():
            if page_id.table == table and version > best:
                best = version
    if node.master is not None:
        best = max(best, node.master.current_versions().get(table))
    return best


def check_durable_commits(cluster) -> InvariantResult:
    """Every scheduler-confirmed commit survives on every alive replica."""
    nodes = _checked_nodes(cluster)
    missing: List[str] = []
    # The cluster is quiescent, so one watermark scan per (node, table)
    # serves every logged commit.
    marks: Dict[Tuple[str, str], int] = {}
    for master_id, txn_id, versions in cluster.commit_log:
        for node in nodes:
            for table, version in versions.items():
                if not _covers(cluster, node, table):
                    continue
                key = (node.node_id, table)
                have = marks.get(key)
                if have is None:
                    have = marks[key] = _table_watermark(node, table)
                if have < version:
                    missing.append(
                        f"txn {txn_id} ({master_id}, {table}=v{version}) "
                        f"absent on {node.node_id} (at v{have})"
                    )
    detail = f"{len(cluster.commit_log)} commits audited on {len(nodes)} replicas"
    if missing:
        shown = "; ".join(missing[:5])
        extra = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
        return InvariantResult("durable-commits", False, f"{shown}{extra}")
    return InvariantResult("durable-commits", True, detail)


def check_replica_convergence(cluster) -> InvariantResult:
    """All alive subscribed replicas agree on every table's watermark."""
    nodes = _checked_nodes(cluster)
    if len(nodes) < 2:
        return InvariantResult(
            "replica-convergence", True, f"{len(nodes)} replica(s): trivially converged"
        )
    tables = sorted({schema.name for schema in cluster.schemas})
    diverged: List[str] = []
    for table in tables:
        # Partial replication: only the replicas subscribed to a table owe
        # convergence on it — an uncovering replica legitimately sits at
        # the version-0 base image forever.
        group = [node for node in nodes if _covers(cluster, node, table)]
        marks = {node.node_id: _table_watermark(node, table) for node in group}
        if len(set(marks.values())) > 1:
            diverged.append(f"{table}: {marks}")
    if diverged:
        return InvariantResult("replica-convergence", False, "; ".join(diverged[:3]))
    return InvariantResult(
        "replica-convergence", True, f"{len(nodes)} replicas agree on {len(tables)} tables"
    )


def _table_digest(node, table: str) -> str:
    """Hash of the fully-materialised contents of ``table`` on ``node``."""
    digest = hashlib.sha256()
    pages = [p for p in node.engine.store.all_pages() if p.page_id.table == table]
    for page in sorted(pages, key=lambda p: str(p.page_id)):
        full = node.slave.materialize_fully(page.page_id)
        for slot, row in full.iter_live():
            digest.update(repr((str(page.page_id), slot, row)).encode())
    return digest.hexdigest()[:16]


def check_snapshot_consistency(
    cluster, sample_tables: Optional[Sequence[str]] = None
) -> InvariantResult:
    """Materialised table contents are identical across alive replicas.

    Destructive in the harmless sense: it applies all pending ops (a read
    of the newest snapshot would do the same), so it must run after the
    workload has quiesced, as the last sampled read of the experiment.
    """
    nodes = _checked_nodes(cluster)
    if len(nodes) < 2:
        return InvariantResult(
            "snapshot-consistency", True, f"{len(nodes)} replica(s): trivially consistent"
        )
    tables = list(sample_tables) if sample_tables else sorted(
        schema.name for schema in cluster.schemas
    )
    mismatched: List[str] = []
    for table in tables:
        group = [node for node in nodes if _covers(cluster, node, table)]
        digests = {node.node_id: _table_digest(node, table) for node in group}
        if len(set(digests.values())) > 1:
            mismatched.append(f"{table}: {digests}")
    if mismatched:
        return InvariantResult("snapshot-consistency", False, "; ".join(mismatched[:3]))
    return InvariantResult(
        "snapshot-consistency",
        True,
        f"{len(tables)} tables content-identical on {len(nodes)} replicas",
    )


def check_counter_conservation(cluster) -> InvariantResult:
    """sent == received + dups_ignored + drops over merged node counters."""
    merged = Counters.merged(
        [node.counters for node in cluster.nodes.values()] + [cluster.counters]
    )
    sent = merged.get("net.write_sets_sent")
    received = merged.get("slave.write_sets_received")
    dups = merged.get("net.dups_ignored")
    drops = merged.get("net.drops")
    balance = received + dups + drops
    detail = (
        f"sent={sent:g} received={received:g} dups_ignored={dups:g} drops={drops:g}"
    )
    if sent != balance:
        return InvariantResult(
            "counter-conservation", False, f"{detail} (off by {sent - balance:g})"
        )
    return InvariantResult("counter-conservation", True, detail)


def check_buffer_bounds(cluster) -> InvariantResult:
    """Slave write-set buffer accounting is exact.

    Per alive replica, the running ``pending_ops`` counter matches a full
    recount of the per-page queues and is never negative (the O(1)
    watermark checks demotion relies on never drifted from the truth).
    """
    problems: List[str] = []
    audited = 0
    for node in cluster.nodes.values():
        if not node.alive or node.slave is None:
            continue
        audited += 1
        slave = node.slave
        recount = slave.pending_op_count()
        if slave.pending_ops != recount:
            problems.append(
                f"{node.node_id}: pending_ops={slave.pending_ops} "
                f"but recount={recount}"
            )
        if slave.pending_ops < 0:
            problems.append(f"{node.node_id}: negative pending_ops")
    if problems:
        return InvariantResult("buffer-bounds", False, "; ".join(problems[:5]))
    return InvariantResult("buffer-bounds", True, f"{audited} replicas audited")


def check_rejoin_convergence(cluster) -> InvariantResult:
    """Every once-demoted node reconverged (or legitimately could not).

    A node that was demoted as a laggard must, by quiescence, have either
    rejoined fully (subscribed, out of catch-up, undemoted — at which
    point replica-convergence and snapshot-consistency audit its content)
    or have a standing excuse: it crashed, or its slowdown fault is still
    in force.  A healthy, alive node stuck demoted means rejoin wedged.
    """
    ever = cluster.stragglers.ever_demoted
    if not ever:
        return InvariantResult("rejoin-convergence", True, "no demotions occurred")
    stuck: List[str] = []
    rejoined = 0
    excused = 0
    for node_id in sorted(ever):
        node = cluster.nodes.get(node_id)
        if node is None or not node.alive:
            excused += 1  # crashed while demoted: reintegration owns it
            continue
        if node.slowdown > 1.0:
            excused += 1  # still degraded: staying demoted is correct
            continue
        if cluster.is_demoted(node_id):
            stuck.append(f"{node_id}: healthy but still demoted")
        elif node.slave is not None and node.slave.catching_up:
            stuck.append(f"{node_id}: catch-up never finished")
        elif node.slave is not None and not node.subscribed:
            stuck.append(f"{node_id}: rejoined but unsubscribed")
        else:
            rejoined += 1
    if stuck:
        return InvariantResult("rejoin-convergence", False, "; ".join(stuck[:5]))
    return InvariantResult(
        "rejoin-convergence",
        True,
        f"{len(ever)} demoted node(s): {rejoined} rejoined, {excused} excused",
    )


def check_quorum_durability(cluster) -> InvariantResult:
    """No confirmed commit was lost, even with stragglers outside the quorum.

    Stronger than durable-commits in one way: it audits *all* alive nodes
    — including promoted masters, whose ``slave is None`` makes them
    invisible to the other content checkers — and requires every
    browser-acknowledged commit's versions to survive somewhere.  Under
    ``all`` acks this is implied by durable-commits; under ``quorum`` it
    is the property the freshest-candidate election exists to protect.
    """
    alive = [n for n in cluster.nodes.values() if n.alive]
    if not alive:
        return InvariantResult("quorum-no-lost-commits", True, "no alive nodes")
    lost: List[str] = []
    tables = {
        table
        for _master, _txn, versions in cluster.commit_log
        for table in versions
    }
    best: Dict[str, int] = {
        table: max(_table_watermark(node, table) for node in alive)
        for table in tables
    }
    for master_id, txn_id, versions in cluster.commit_log:
        for table, version in versions.items():
            if best.get(table, 0) < version:
                lost.append(
                    f"txn {txn_id} ({master_id}, {table}=v{version}) survives "
                    f"nowhere (cluster max v{best.get(table, 0)})"
                )
    if lost:
        shown = "; ".join(lost[:5])
        extra = f" (+{len(lost) - 5} more)" if len(lost) > 5 else ""
        return InvariantResult("quorum-no-lost-commits", False, f"{shown}{extra}")
    return InvariantResult(
        "quorum-no-lost-commits",
        True,
        f"{len(cluster.commit_log)} commits covered across {len(alive)} alive nodes",
    )


def check_trace_hygiene(cluster) -> InvariantResult:
    """At quiescence every span is closed and every span is accounted for.

    Two properties of the :mod:`repro.obs` tracer after the workload has
    drained:

    * no span is still open — every transaction attempt reached a terminal
      close (``committed``/``aborted``/``interrupted``), whatever faults
      hit it mid-flight;
    * conservation: histogram samples + instant events == total finished
      spans (nothing was double-recorded or lost between the ring and the
      stage histograms);
    * while the ring has not evicted anything, no finished span references
      a parent that never existed (orphans).
    """
    tracer = cluster.tracer
    if not tracer.enabled:
        return InvariantResult("trace-hygiene", True, "tracing disabled")
    problems: List[str] = []
    open_spans = tracer.open_spans()
    if open_spans:
        problems.append(f"{len(open_spans)} spans still open (first: {open_spans[0]!r})")
    recorded = tracer.stages.total_count() + tracer.instant_count
    if recorded != tracer.finished_count:
        problems.append(
            f"span conservation broken: {tracer.stages.total_count()} histogram "
            f"samples + {tracer.instant_count} instants != "
            f"{tracer.finished_count} finished"
        )
    if tracer.log.dropped == 0:
        orphans = tracer.orphans()
        if orphans:
            problems.append(f"{len(orphans)} orphan spans (first: {orphans[0]!r})")
    return InvariantResult(
        "trace-hygiene",
        not problems,
        "; ".join(problems)
        if problems
        else f"{tracer.finished_count} spans closed, 0 open",
    )


def check_durable_prefix(cluster) -> InvariantResult:
    """Every restart-from-disk recovered at least the confirmed-at-crash prefix.

    For each completed restart the cluster recorded the confirmed version
    vector snapshotted at the moment the node crashed.  Everything at or
    below that vector was browser-acknowledged *before* the crash, so the
    restarted node — checkpoint restore + WAL redo + gap replay — must end
    up holding all of it.  Nodes that re-crashed or are still mid-recovery
    carry no obligation (their next restart will).
    """
    audits = cluster.migration.restart_audits
    if not audits:
        return InvariantResult("durable-prefix", True, "no restarts from disk")
    problems: List[str] = []
    audited = 0
    for node_id, crash_time, confirmed in audits:
        node = cluster.nodes.get(node_id)
        if (
            node is None
            or not node.alive
            or not node.subscribed
            or node.slave is None
            or node.slave.catching_up
        ):
            continue  # re-crashed or still recovering: excused
        audited += 1
        for table, version in sorted(confirmed.items()):
            if not _covers(cluster, node, table):
                continue
            have = _table_watermark(node, table)
            if have < version:
                problems.append(
                    f"{node_id}: {table}=v{version} confirmed before its "
                    f"t={crash_time:g}s crash but only v{have} after restart"
                )
    if problems:
        shown = "; ".join(problems[:5])
        extra = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        return InvariantResult("durable-prefix", False, f"{shown}{extra}")
    return InvariantResult(
        "durable-prefix",
        True,
        f"{len(audits)} restart(s) audited, {audited} with standing obligations",
    )


def check_no_ghost_commits(cluster) -> InvariantResult:
    """No never-confirmed WAL record resurfaced through a restart.

    A crashed node's disk may durably hold write-sets whose commits were
    never acknowledged to any client (its WAL fsync ran at pre-commit,
    before the ack barrier).  Restart redo must skip them, and — because
    post-failover version numbers are reused — nothing may have slipped
    one into a replica's duplicate filter, where it would shadow the real
    commit that later claimed the same versions.
    """
    ghosts = cluster.failover.ghosts
    if not ghosts:
        return InvariantResult("no-ghost-commits", True, "no ghost candidates recorded")
    confirmed_ids = {
        (master_id, txn_id) for master_id, txn_id, _versions in cluster.commit_log
    }
    resurfaced: List[str] = []
    true_ghosts = 0
    for dedup_key, master_id, txn_id in ghosts:
        if (master_id, txn_id) in confirmed_ids:
            continue  # confirmed after the crash snapshot: legitimate history
        true_ghosts += 1
        for node in cluster.nodes.values():
            if not node.alive or node.slave is None:
                continue
            if dedup_key in node.slave._seen_write_sets:
                resurfaced.append(
                    f"ghost txn {txn_id} ({master_id}) resurfaced on {node.node_id}"
                )
    if resurfaced:
        shown = "; ".join(resurfaced[:5])
        extra = f" (+{len(resurfaced) - 5} more)" if len(resurfaced) > 5 else ""
        return InvariantResult("no-ghost-commits", False, f"{shown}{extra}")
    return InvariantResult(
        "no-ghost-commits",
        True,
        f"{len(ghosts)} candidate(s), {true_ghosts} true ghost(s), none resurfaced",
    )


def check_class_ownership_unique(cluster) -> InvariantResult:
    """Conflict classes partition the tables with exactly one owner each.

    Post-quiescence, after any sequence of re-homes and master
    failovers: (a) every table still has a class and every class a
    master, (b) no table is claimed by two alive masters' lock controllers, and
    (c) for every class whose assigned master is alive, that master's
    controller owns exactly the class's tables.  Trivially green on a
    legacy single-master cluster.
    """
    name = "class-ownership-unique"
    conflict_map = cluster.conflict_map
    try:
        conflict_map.validate_disjoint()
    except Exception as exc:  # ConfigError carries the violated invariant
        return InvariantResult(name, False, str(exc))

    problems: List[str] = []
    owned_by: Dict[str, str] = {}
    for node in cluster.nodes.values():
        owned = getattr(node.engine.controller, "owned", None)
        if not (node.alive and node.master is not None and owned is not None):
            continue
        for table in owned:
            if table in owned_by:
                problems.append(
                    f"{table} owned by both {owned_by[table]} and {node.node_id}"
                )
            owned_by[table] = node.node_id
    classes = conflict_map.class_ids()
    for class_id in classes:
        try:
            owner = conflict_map.master_of_class(class_id)
        except Exception:
            break  # masters never assigned (map used for routing only)
        node = cluster.nodes.get(owner)
        if node is None or not node.alive or node.master is None:
            continue  # failover pending; dead owners carry no obligations
        if getattr(node.engine.controller, "owned", None) is None:
            continue  # legacy single-master controller: no owned-set to audit
        for table in conflict_map.tables_of_class(class_id):
            holder = owned_by.get(table)
            if holder != owner:
                problems.append(
                    f"class {class_id} table {table}: map says {owner}, "
                    f"controller says {holder}"
                )
    if problems:
        shown = "; ".join(problems[:5])
        extra = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        return InvariantResult(name, False, f"{shown}{extra}")
    return InvariantResult(
        name,
        True,
        f"{len(classes)} class(es), {len(owned_by)} controller-owned table(s)",
    )


def check_interest_coverage(cluster) -> InvariantResult:
    """Partial replication kept every table covered and nothing leaked.

    Two properties, post-quiescence:

    * **coverage** — every table is held by at least
      ``min_replication_factor`` alive nodes, where a holder is an alive
      master or an alive, subscribed, caught-up slave whose interest set
      covers the table;
    * **no leaks** — no pure slave holds *confirmed* state for a table
      outside its interest set: no received version above zero, no page
      above the version-0 base image, no buffered ops.  (Every node starts
      from the full base image — the "mmap an on-disk database" model —
      so the base itself is not a leak; only replicated modifications
      are.)
    """
    name = "interest-coverage"
    registry = cluster.interest
    partial_nodes = len(registry.as_dict())
    if not partial_nodes:
        return InvariantResult(name, True, "full replication (no interest sets)")
    min_rf = cluster.min_replication_factor
    tables = sorted({schema.name for schema in cluster.schemas})
    problems: List[str] = []
    thin = 0
    for table in tables:
        holders = []
        for node in cluster.nodes.values():
            if not node.alive:
                continue
            if node.master is not None:
                holders.append(node.node_id)
            elif (
                node.slave is not None
                and node.subscribed
                and not node.slave.catching_up
                and registry.covers_table(node.node_id, table)
            ):
                holders.append(node.node_id)
        if len(holders) < min_rf:
            thin += 1
            problems.append(
                f"{table}: {len(holders)} holder(s) {sorted(holders)} < rf {min_rf}"
            )
    leaks = 0
    for node in cluster.nodes.values():
        if not node.alive or node.slave is None or node.master is not None:
            continue
        interest = registry.get(node.node_id)
        if interest.is_full:
            continue
        for table in tables:
            if interest.covers_table(table):
                continue
            received = node.slave.received_versions.get(table)
            if received > 0:
                leaks += 1
                problems.append(
                    f"{node.node_id}: received {table}=v{received} outside interest"
                )
        for page_id, version in sorted(
            node.slave.page_versions().items(), key=lambda kv: str(kv[0])
        ):
            if version > 0 and not interest.covers_table(page_id.table):
                leaks += 1
                problems.append(
                    f"{node.node_id}: holds {page_id}=v{version} outside interest"
                )
    if problems:
        shown = "; ".join(problems[:5])
        extra = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        return InvariantResult(name, False, f"{shown}{extra}")
    return InvariantResult(
        name,
        True,
        f"{len(tables)} tables covered at rf>={min_rf}, "
        f"{partial_nodes} partial replica(s) leak-free",
    )


def check_tenant_slo_accounting(cluster) -> InvariantResult:
    """Open-loop request accounting closes per tenant, and nothing is stuck.

    For every tenant driven by the :class:`~repro.traffic.engine.OpenLoopEngine`:

    * **accounting identity** — ``injected == completed + failed + shed +
      in_flight`` (no request vanished or was double-counted on any of the
      admission / deadline / retry-budget / breaker exit paths);
    * **quiescence** — ``in_flight == 0``: every request reached a terminal
      outcome before the audit (a non-zero count means a request process
      wedged mid-retry).

    SLO attainment is reported in the detail for observability; it is not
    gated here — overload scenarios legitimately miss SLOs, the point is
    that the accounting of *how* they missed is exact.
    """
    name = "per-tenant-slo"
    stats = cluster.traffic_stats
    if stats is None:
        return InvariantResult(name, True, "no open-loop traffic")
    problems: List[str] = []
    details: List[str] = []
    for tenant_name in sorted(stats.tenants):
        tenant = stats.tenants[tenant_name]
        if tenant.accounted() != tenant.injected:
            problems.append(
                f"{tenant_name}: injected={tenant.injected} but completed="
                f"{tenant.completed}+failed={tenant.failed}+shed={tenant.shed}"
                f"+in_flight={tenant.in_flight}={tenant.accounted()}"
            )
        if tenant.in_flight != 0:
            problems.append(f"{tenant_name}: {tenant.in_flight} requests never terminal")
        details.append(
            f"{tenant_name}: slo={100.0 * tenant.slo_attainment():.1f}% "
            f"shed={100.0 * tenant.shed_ratio():.1f}%"
        )
    if problems:
        shown = "; ".join(problems[:5])
        extra = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        return InvariantResult(name, False, f"{shown}{extra}")
    return InvariantResult(name, True, "; ".join(details))


def check_shed_fairness(cluster) -> InvariantResult:
    """Shedding lands on the tenants causing the overload, not the victims.

    With bursting (aggressor) tenants present, every non-bursting tenant's
    shed ratio must stay within ``max(FAIRNESS_FLOOR, FAIRNESS_RATIO *
    worst aggressor ratio)`` — the per-tenant token buckets exist exactly
    so one tenant's flash crowd does not consume the others' admission
    capacity.  Without aggressors the check degrades to a spread bound:
    no tenant may shed more than 3x the worst other tenant plus the floor.
    Tenants with fewer than 20 injected requests are skipped (ratios of
    tiny denominators are noise).
    """
    name = "shed-fairness"
    stats = cluster.traffic_stats
    if stats is None:
        return InvariantResult(name, True, "no open-loop traffic")
    scenario = stats.scenario
    aggressors = set(scenario.bursting_tenants())
    sized = {
        tenant_name: tenant
        for tenant_name, tenant in stats.tenants.items()
        if tenant.injected >= 20
    }
    if len(sized) < 2:
        return InvariantResult(name, True, f"{len(sized)} sized tenant(s): trivially fair")
    problems: List[str] = []
    if aggressors & set(sized):
        worst_aggressor = max(sized[tenant_name].shed_ratio() for tenant_name in sized if tenant_name in aggressors)
        bound = max(FAIRNESS_FLOOR, FAIRNESS_RATIO * worst_aggressor)
        for tenant_name in sorted(set(sized) - aggressors):
            ratio = sized[tenant_name].shed_ratio()
            if ratio > bound:
                problems.append(
                    f"victim {tenant_name} shed {100.0 * ratio:.1f}% > bound "
                    f"{100.0 * bound:.1f}% (worst aggressor {100.0 * worst_aggressor:.1f}%)"
                )
        detail = (
            f"aggressors={sorted(aggressors & set(sized))} worst="
            f"{100.0 * worst_aggressor:.1f}%, victims within "
            f"{100.0 * bound:.1f}%"
        )
    else:
        ratios = {tenant_name: tenant.shed_ratio() for tenant_name, tenant in sized.items()}
        for tenant_name in sorted(ratios):
            others = [r for other, r in ratios.items() if other != tenant_name]
            bound = FAIRNESS_FLOOR + 3.0 * max(others)
            if ratios[tenant_name] > bound:
                problems.append(
                    f"{tenant_name} shed {100.0 * ratios[tenant_name]:.1f}% > "
                    f"3x-spread bound {100.0 * bound:.1f}%"
                )
        detail = f"no aggressors; spread over {len(sized)} tenants bounded"
    if problems:
        return InvariantResult(name, False, "; ".join(problems[:5]))
    return InvariantResult(name, True, detail)


def check_burst_recovery(cluster) -> InvariantResult:
    """Goodput returned to within epsilon of pre-burst inside the window.

    The metastability audit: after the scenario's last deliberate burst
    ends, aggregate goodput must climb back to ``(1 - RECOVERY_EPSILON)``
    of the pre-burst level within ``RECOVERY_WINDOW`` seconds of virtual
    time.  A cluster with the defenses off typically fails this — the
    retry storm and bufferbloated admission queue outlive the burst —
    which is exactly the red/green contrast the overload bench commits.
    """
    name = "burst-recovery"
    stats = cluster.traffic_stats
    if stats is None:
        return InvariantResult(name, True, "no open-loop traffic")
    recovery = stats.burst_recovery()
    if recovery is None:
        return InvariantResult(name, True, "scenario has no burst windows")
    pre_rate, recovered_at, degraded = recovery
    if pre_rate <= 0:
        return InvariantResult(name, True, "no pre-burst goodput to recover to")
    if recovered_at is None:
        return InvariantResult(
            name,
            False,
            f"goodput never recovered to {100.0 * (1.0 - RECOVERY_EPSILON):.0f}% "
            f"of pre-burst {pre_rate:.2f}/s ({degraded:.1f}s degraded)",
        )
    if degraded > RECOVERY_WINDOW:
        return InvariantResult(
            name,
            False,
            f"recovered after {degraded:.1f}s > window {RECOVERY_WINDOW:g}s "
            f"(pre-burst {pre_rate:.2f}/s)",
        )
    return InvariantResult(
        name,
        True,
        f"recovered {degraded:.1f}s after burst end (pre-burst {pre_rate:.2f}/s, "
        f"window {RECOVERY_WINDOW:g}s)",
    )


def check_all_invariants(
    cluster, sample_tables: Optional[Sequence[str]] = None
) -> List[InvariantResult]:
    """Run every checker; returns all results (failures included).

    A checker whose feature never ran says so and passes.  Only the
    open-loop and trace checkers are left out when there is no traffic
    engine or tracer to audit.
    """
    results = [
        check_durable_commits(cluster),
        check_replica_convergence(cluster),
        check_snapshot_consistency(cluster, sample_tables),
        check_counter_conservation(cluster),
        check_buffer_bounds(cluster),
        check_rejoin_convergence(cluster),
        check_quorum_durability(cluster),
        check_class_ownership_unique(cluster),
        check_durable_prefix(cluster),
        check_no_ghost_commits(cluster),
        check_interest_coverage(cluster),
    ]
    if cluster.traffic_stats is not None:
        results.append(check_tenant_slo_accounting(cluster))
        results.append(check_shed_fairness(cluster))
        results.append(check_burst_recovery(cluster))
    if cluster.tracer.enabled:
        results.append(check_trace_hygiene(cluster))
    return results
