"""Seeded, declarative fault plans.

A :class:`FaultPlan` is a value object — an ordered tuple of fault events,
each pinned to a virtual time — that :meth:`FaultPlan.schedule` installs
onto a running :class:`~repro.cluster.simcluster.SimDmvCluster`.  Because
the simulation kernel and the network model's dice are both seeded, one
``(plan, seed)`` pair names exactly one execution: re-running it reproduces
every drop, retransmission, crash and reconfiguration at the same instants.

:meth:`FaultPlan.random` derives a randomised crash/reintegration schedule
from a seed via :mod:`repro.common.rng` for soak testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.common.rng import RngStream
from repro.chaos.network import ANY


@dataclass(frozen=True)
class CrashNode:
    """Fail-stop one database node at ``at``."""

    at: float
    node_id: str

    def install(self, cluster) -> None:
        cluster.kill_node_at(self.node_id, self.at)

    def describe(self) -> str:
        return f"t={self.at:g}s crash node {self.node_id}"


@dataclass(frozen=True)
class ReintegrateNode:
    """Reboot + data-migrate a previously crashed node back in at ``at``."""

    at: float
    node_id: str
    spare: bool = False

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()),
            cluster.reintegrate,
            self.node_id,
            None,
            self.spare,
        )

    def describe(self) -> str:
        return f"t={self.at:g}s reintegrate node {self.node_id}"


@dataclass(frozen=True)
class RestartNode:
    """Restart a crashed node from its *own* disk at ``at``.

    The durable-recovery counterpart of :class:`ReintegrateNode`: the node
    replays its checkpoint + fsynced WAL suffix locally, then gap-replays /
    migrates only the commits it missed while down.  On a non-durable
    cluster it degrades to the classic reintegration path.
    """

    at: float
    node_id: str

    def install(self, cluster) -> None:
        cluster.restart_node_at(self.node_id, self.at)

    def describe(self) -> str:
        return f"t={self.at:g}s restart node {self.node_id} from local disk"


@dataclass(frozen=True)
class StaleBackup:
    """Unsubscribe spare ``node_id`` from replication at ``at``: from then on
    it falls behind, the stale backup a failover onto it must first catch up."""

    at: float
    node_id: str

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()), cluster.make_stale_backup, self.node_id
        )

    def describe(self) -> str:
        return f"t={self.at:g}s stop replicating to {self.node_id}"


@dataclass(frozen=True)
class ColdCache:
    """Empty ``node_id``'s buffer cache at ``at``: the cold backup whose
    working set must be faulted back in once it takes over."""

    at: float
    node_id: str

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()), cluster.chill_cache, self.node_id
        )

    def describe(self) -> str:
        return f"t={self.at:g}s empty the cache of {self.node_id}"


@dataclass(frozen=True)
class TornWrite:
    """Arm a torn (partially written) last WAL record on ``node_id``.

    The tear materialises at the node's next crash: the first record of
    the lost tail stays on disk with a failing checksum, exercising the
    restart scan's torn-tail truncation rule.
    """

    at: float
    node_id: str

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()),
            cluster.arm_torn_write,
            self.node_id,
        )

    def describe(self) -> str:
        return f"t={self.at:g}s arm torn WAL write on {self.node_id}"


@dataclass(frozen=True)
class FsyncLie:
    """Storage that acknowledges fsync without persisting, from ``at``.

    While lying, records the node believes synced are not durable: a crash
    in the window loses them (the lost-unsynced-tail mode).  ``until=None``
    lies forever.
    """

    at: float
    node_id: str
    until: Optional[float] = None

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()),
            cluster.set_fsync_lie,
            self.node_id,
            True,
        )
        if self.until is not None:
            cluster.sim.schedule(
                max(0.0, self.until - cluster.sim.now()),
                cluster.set_fsync_lie,
                self.node_id,
                False,
            )

    def describe(self) -> str:
        window = f"..{self.until:g}s" if self.until is not None else ".."
        return f"t={self.at:g}s{window} fsync lies on {self.node_id}"


@dataclass(frozen=True)
class BitFlip:
    """Latent corruption of one durable WAL record or checkpoint page.

    The victim record/page is drawn from the cluster's seeded storage RNG
    at install time; the damage is only observed when recovery validates
    checksums — like a real latent sector error.
    """

    at: float
    node_id: str
    target: str = "wal"  # "wal" | "checkpoint"

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()),
            cluster.inject_bitflip,
            self.node_id,
            self.target,
        )

    def describe(self) -> str:
        return f"t={self.at:g}s bit flip in {self.node_id} {self.target}"


@dataclass(frozen=True)
class Slowdown:
    """Gray failure: inflate one node's service times from ``at``.

    Unlike :class:`CrashNode` the victim keeps answering heartbeats — it
    is merely slow (degraded disk, saturated link, GC pauses), which is
    exactly the failure mode all-slave ack barriers cannot tolerate and
    quorum acks + laggard demotion are built for.  ``until=None`` leaves
    the node degraded forever.
    """

    at: float
    node_id: str
    factor: float = 8.0
    until: Optional[float] = None

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()),
            cluster.set_slowdown,
            self.node_id,
            self.factor,
        )
        if self.until is not None:
            cluster.sim.schedule(
                max(0.0, self.until - cluster.sim.now()),
                cluster.set_slowdown,
                self.node_id,
                1.0,
            )

    def describe(self) -> str:
        window = f"..{self.until:g}s" if self.until is not None else ".."
        return f"t={self.at:g}s{window} slowdown node {self.node_id} x{self.factor:g}"


@dataclass(frozen=True)
class FlashCrowd:
    """Spawn ``browsers`` extra emulated browsers at ``at``.

    The newcomers clone the profile of the browsers already running (mix,
    scale, think time), so a flash crowd is a pure load step — the fault
    the write scale-out stack's admission control exists to absorb.
    """

    at: float
    browsers: int

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()),
            cluster.flash_crowd,
            self.browsers,
        )

    def describe(self) -> str:
        return f"t={self.at:g}s flash crowd +{self.browsers} browsers"


@dataclass(frozen=True)
class Rehome:
    """Force ``table``'s conflict class onto master ``dst`` at ``at``.

    Exercises the drain-barrier handoff under load: new updates for the
    class park, in-flight transactions and the open epoch drain, the
    destination adopts the version sequences, ownership flips.  A no-op
    when ``dst`` already owns the class.
    """

    at: float
    table: str
    dst: str

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()),
            cluster.rehome_table_to,
            self.table,
            self.dst,
        )

    def describe(self) -> str:
        return f"t={self.at:g}s re-home class of {self.table} -> {self.dst}"


@dataclass(frozen=True)
class CrashScheduler:
    """Kill one scheduler agent at ``at`` (peers take over, §4.1)."""

    at: float
    agent_id: str

    def install(self, cluster) -> None:
        cluster.kill_scheduler_at(self.agent_id, self.at)

    def describe(self) -> str:
        return f"t={self.at:g}s crash scheduler {self.agent_id}"


@dataclass(frozen=True)
class LinkFault:
    """Make matching links lossy from ``at`` until ``until`` (None = forever)."""

    at: float
    source: str = ANY
    target: str = ANY
    drop_p: float = 0.0
    dup_p: float = 0.0
    extra_delay_mean: float = 0.0
    until: Optional[float] = None

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()),
            cluster.net.set_fault,
            self.source,
            self.target,
            self.drop_p,
            self.dup_p,
            self.extra_delay_mean,
        )
        if self.until is not None:
            cluster.sim.schedule(
                max(0.0, self.until - cluster.sim.now()),
                cluster.net.clear_fault,
                self.source,
                self.target,
            )

    def describe(self) -> str:
        window = f"..{self.until:g}s" if self.until is not None else ".."
        return (
            f"t={self.at:g}s{window} link {self.source}->{self.target} "
            f"drop={self.drop_p:g} dup={self.dup_p:g} delay={self.extra_delay_mean:g}"
        )


@dataclass(frozen=True)
class Partition:
    """Cut every link between two endpoint groups, healing at ``heal_at``."""

    at: float
    heal_at: float
    group_a: Tuple[str, ...]
    group_b: Tuple[str, ...]

    def install(self, cluster) -> None:
        cluster.sim.schedule(
            max(0.0, self.at - cluster.sim.now()),
            cluster.net.partition,
            self.group_a,
            self.group_b,
        )
        cluster.sim.schedule(
            max(0.0, self.heal_at - cluster.sim.now()),
            cluster.net.heal,
            self.group_a,
            self.group_b,
        )

    def describe(self) -> str:
        return (
            f"t={self.at:g}..{self.heal_at:g}s partition "
            f"{list(self.group_a)} | {list(self.group_b)}"
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of fault events."""

    seed: int = 0
    events: Tuple = ()

    def schedule(self, cluster) -> "FaultPlan":
        """Install every event onto the cluster's event kernel."""
        for event in self.events:
            event.install(cluster)
        return self

    @classmethod
    def fixed(cls, *events) -> Callable[[int, float], "FaultPlan"]:
        """A :class:`~repro.chaos.plans.Plan` schedule that is the same
        ``events`` at the same absolute times whatever the run's seed and length."""
        return lambda seed, duration: cls(seed=seed, events=events)

    def describe(self) -> str:
        lines = [f"fault plan (seed={self.seed}, {len(self.events)} events)"]
        lines.extend(f"  - {event.describe()}" for event in self.events)
        return "\n".join(lines)

    @classmethod
    def random(
        cls,
        seed: int,
        node_ids: Sequence[str],
        horizon: float,
        crashes: int = 2,
        reintegrate_after: float = 30.0,
        drop_p: float = 0.05,
        dup_p: float = 0.01,
        settle_window: float = 60.0,
        storage_faults: bool = False,
    ) -> "FaultPlan":
        """Derive a randomised crash/reintegrate soak schedule from ``seed``.

        Crash times land in the first ``horizon - settle_window`` seconds so
        every reconfiguration finishes before quiescence measurement; each
        crashed node is reintegrated ``reintegrate_after`` seconds later.

        With ``storage_faults=True`` each victim additionally draws one
        storage fault (torn write / fsync-lie window / WAL bit flip) around
        its crash, and recovers via :class:`RestartNode` (restart from own
        disk) instead of :class:`ReintegrateNode`.  The extra draws happen
        strictly *after* the base schedule's, so flag-off plans consume the
        exact same RNG stream as before the flag existed — existing seeds
        keep their fingerprints.
        """
        rng = RngStream(seed, "fault-plan")
        events = [LinkFault(at=0.0, drop_p=drop_p, dup_p=dup_p)]
        window = max(1.0, horizon - settle_window - reintegrate_after)
        victims = list(node_ids)
        rng.shuffle(victims)
        chosen = []
        for victim in victims[: max(0, crashes)]:
            at = rng.uniform(10.0, window)
            chosen.append((victim, at))
            events.append(CrashNode(at=at, node_id=victim))
            if not storage_faults:
                events.append(
                    ReintegrateNode(at=at + reintegrate_after, node_id=victim)
                )
        if storage_faults:
            # Drawn after every base draw (seed compatibility, see above).
            for victim, at in chosen:
                roll = rng.random()
                if roll < 0.5:
                    events.append(TornWrite(at=max(0.0, at - 1.0), node_id=victim))
                elif roll < 0.8:
                    events.append(
                        FsyncLie(
                            at=max(0.0, at - 5.0), node_id=victim, until=at + 1.0
                        )
                    )
                else:
                    events.append(
                        BitFlip(at=max(0.0, at - 2.0), node_id=victim, target="wal")
                    )
                events.append(
                    RestartNode(at=at + reintegrate_after, node_id=victim)
                )
        events.sort(key=lambda e: e.at)
        return cls(seed=seed, events=tuple(events))
