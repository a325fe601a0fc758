"""Dynamic conflict-class sharding: the load-driven rebalancer and the
drain-barrier re-home handoff (DESIGN.md §13).

Per-class commit rates are sampled into EWMAs; cold split-products are
merged, the hottest movable class is split and/or moved from the most- to
the least-loaded master, and ownership changes hands through a
park -> drain -> adopt -> flip -> wake state machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.versions import VersionVector
from repro.cluster.straggler import LAGGARD_PROBE_INTERVAL, AckLatencyEwma
from repro.core.dual import DualController
from repro.engine.txn import TxnMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simcluster import SimDmvCluster
    from repro.cluster.simnodes import InMemoryDbNode

#: A class is only worth moving when its write-rate EWMA exceeds this
#: many commits/second — below it, imbalance is noise.
REBALANCE_MIN_RATE = 2.0
#: Re-home triggers when the hottest master's EWMA load exceeds the
#: coolest master's by this factor.
REBALANCE_IMBALANCE = 2.0
#: Minimum virtual seconds between re-homes (anti-thrash hysteresis).
REBALANCE_COOLDOWN = 10.0
#: EWMA smoothing factor for per-class write rates (same machinery as
#: the straggler detector's ack-latency EWMAs).
CLASS_RATE_ALPHA = 0.2
#: A re-home drain barrier that cannot quiesce the moving class within
#: this long aborts the handoff and leaves ownership untouched.
REHOME_DRAIN_TIMEOUT = 5.0


class ClassWriteRates:
    """Per-conflict-class commit-rate EWMAs for the rebalancer.

    The rebalancer daemon samples per-class commit counts on a fixed
    period and feeds the rates through the same EWMA machinery the
    laggard detector uses for ack latencies.  Pure bookkeeping — no
    events, no RNG, no counters; only a re-home touches the kernel.
    """

    def __init__(self, alpha: float = CLASS_RATE_ALPHA) -> None:
        self.alpha = alpha
        #: Per-class commits/second EWMA.
        self.per_class: Dict[int, AckLatencyEwma] = {}

    def observe_tick(self, counts: Dict[int, int], interval: float) -> None:
        """Fold one sampling period's per-class commit counts into the EWMAs."""
        if interval <= 0:
            return
        for class_id in set(self.per_class) | set(counts):
            ewma = self.per_class.get(class_id)
            if ewma is None:
                ewma = self.per_class[class_id] = AckLatencyEwma(self.alpha)
            ewma.observe(counts.get(class_id, 0) / interval)

    def rate(self, class_id: int) -> float:
        ewma = self.per_class.get(class_id)
        return ewma.value if ewma is not None else 0.0

    def forget(self, class_id: int) -> None:
        """Drop a class's history (after a merge retired its id)."""
        self.per_class.pop(class_id, None)

    def migrate(self, old_id: int, new_id: int, fraction: float = 0.5) -> None:
        """Seed a freshly split-off class with a share of its parent's rate.

        Without this the child would start at rate 0 and the parent keep
        the whole load for several sampling periods, re-triggering the
        imbalance check against stale numbers.
        """
        parent = self.per_class.get(old_id)
        if parent is None or parent.samples == 0:
            return
        child = self.per_class[new_id] = AckLatencyEwma(self.alpha)
        child.observe(parent.value * fraction)
        parent.value *= 1.0 - fraction


class Rebalancer:
    """Per-class write rates, the classes mid-re-home and the re-home clock."""

    def __init__(self, cluster: "SimDmvCluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.cost = cluster.cost
        self.counters = cluster.counters
        self.conflict_map = cluster.conflict_map
        #: Conflict classes mid-re-home: updates routed to one of these park
        #: on the waiter queue until the ownership flip (drain barrier).
        self.rehoming_classes: set = set()
        #: Whether the load-driven daemon runs (forced re-homes through
        #: :meth:`rehome_table_to` work either way).
        cfg = self.cost.config
        self.enabled = cfg.dynamic_classes and cfg.rebalance_interval > 0
        #: Per-class commit counts since the last rebalancer tick, and the
        #: write-rate EWMAs fed from them (pure bookkeeping).
        self._class_commits: Dict[int, int] = {}
        self.class_rates = ClassWriteRates()
        self._last_rehome_at = float("-inf")

    def start(self) -> None:
        """Spawn the rebalancer daemon (when dynamic classes are on)."""
        if self.enabled:
            self.sim.spawn(self.loop(), name="class-rebalancer")

    def note_commits(self, versions, count: int) -> None:
        """Feed per-class commit counts to the rebalancer's rate tracker."""
        if not self.enabled or not versions:
            return
        try:
            cls = self.conflict_map.class_of(next(iter(versions)))
        except ConfigError:
            return
        self._class_commits[cls] = self._class_commits.get(cls, 0) + count

    def class_masters(self) -> List["InMemoryDbNode"]:
        """Alive nodes able to own conflict classes (dual master+slave)."""
        return [
            node
            for _, node in sorted(self.cluster.nodes.items())
            if node.alive
            and node.master is not None
            and node.slave is not None
            and isinstance(node.engine.controller, DualController)
        ]

    def loop(self):
        """Load-driven split/merge/re-home of conflict classes.

        Samples per-class commit counts every ``rebalance_interval``
        seconds into write-rate EWMAs, folds cold split-products back
        together, and moves (splitting first if necessary) the hottest
        movable class from the most- to the least-loaded master when the
        imbalance crosses ``REBALANCE_IMBALANCE``.
        """
        cfg = self.cost.config
        while True:
            yield self.sim.timeout(cfg.rebalance_interval)
            counts, self._class_commits = self._class_commits, {}
            self.class_rates.observe_tick(counts, cfg.rebalance_interval)
            if self.sim.now() - self._last_rehome_at < REBALANCE_COOLDOWN:
                continue
            if self.cluster.failover.reconfiguring or self.rehoming_classes:
                continue
            self._maybe_merge()
            plan = self._plan_rebalance()
            if plan is None:
                continue
            class_id, dst_id = plan
            self._last_rehome_at = self.sim.now()
            yield from self._rehome_class(class_id, dst_id)

    def _plan_rebalance(self) -> Optional[Tuple[int, str]]:
        """Pick ``(class_id, destination_master)`` to move, or ``None``.

        Deterministic: candidates are iterated in sorted order, so the
        same seed always yields the same re-home sequence.
        """
        masters = self.class_masters()
        if len(masters) < 2:
            return None
        rates = {c: self.class_rates.rate(c) for c in self.conflict_map.class_ids()}
        load: Dict[str, float] = {n.node_id: 0.0 for n in masters}
        for class_id, rate in sorted(rates.items()):
            owner = self.conflict_map.master_of_class(class_id)
            if owner in load:
                load[owner] += rate
        hot_id = max(sorted(load), key=lambda m: load[m])
        cool_id = min(sorted(load), key=lambda m: load[m])
        if hot_id == cool_id or load[hot_id] < REBALANCE_MIN_RATE:
            return None
        if load[hot_id] < REBALANCE_IMBALANCE * max(load[cool_id], 1e-9):
            return None
        hot_classes = sorted(
            (c for c in rates if self.conflict_map.master_of_class(c) == hot_id),
            key=lambda c: (-rates[c], c),
        )
        if not hot_classes:
            return None
        if len(hot_classes) > 1:
            # Shed the second-hottest class: the hot master keeps its head
            # of load, the destination picks up real (but smaller) work.
            return hot_classes[1], cool_id
        # One hot class owns the whole master: split it along atom
        # boundaries and move the colder half.  A single-atom class is the
        # floor (moving whole would just relocate the imbalance).
        new_id = self.conflict_map.split_class(hot_classes[0])
        if new_id is None:
            return None
        self.class_rates.migrate(hot_classes[0], new_id)
        self.counters.add("sched.class_splits")
        return new_id, cool_id

    def _maybe_merge(self) -> None:
        """Fold one cold class into a cold co-located sibling.

        Classes start at atom granularity, so merging is what *creates*
        multi-atom classes — and thereby the classes a later hot-spot
        split can cut apart again.  Both candidates must be cold (below
        ``REBALANCE_MIN_RATE``) and share an owner, so a merge never moves
        tables between masters and never couples a hot stream to anything.
        """
        for absorb in sorted(self.conflict_map.class_ids(), reverse=True):
            if self.class_rates.rate(absorb) >= REBALANCE_MIN_RATE:
                continue
            owner = self.conflict_map.master_of_class(absorb)
            siblings = [
                c
                for c in self.conflict_map.class_ids()
                if c != absorb
                and self.conflict_map.master_of_class(c) == owner
                and self.class_rates.rate(c) < REBALANCE_MIN_RATE
            ]
            if not siblings:
                continue
            self.conflict_map.merge_classes(min(siblings), absorb)
            self.class_rates.forget(absorb)
            self.counters.add("sched.class_merges")
            return

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

        State machine (DESIGN.md §13): PARK new updates for the class →
        DRAIN in-flight transactions, the open epoch and the replication
        channels → ADOPT on the destination (apply buffered ops, continue
        the version sequences) → FLIP ownership atomically (conflict map
        epoch bump + dual-controller owned sets + scheduler table) → WAKE
        parked updates.  Every abort path leaves ownership untouched and
        wakes the parked updates, so a master kill mid-handoff degrades to
        the ordinary failover path.
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
