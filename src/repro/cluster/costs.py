"""Cost model: translating instrumented work into virtual service time.

The engine counts what a statement *did* (rows read, pages touched, index
rotations, cache misses, WAL fsyncs); the cost model converts those counter
deltas into CPU seconds and I/O seconds that the simulated node then holds
its resources for.  Outcomes (who wins, where saturation sets in) emerge
from the structure — disk time dominates the on-disk tier, page-fault time
dominates cold caches, rotation/lock time loads the master — rather than
from per-experiment tuning.

The defaults describe one 2-core ~2 GHz node of the paper's era, scaled so
that simulated runs stay tractable; see ``repro/bench/calibration.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.disk.diskmodel import DiskModel


#: Per-write-set framing overhead inside a batched replication message.
NET_FRAME_BYTES = 24
#: Disk I/Os charged per page *written* on the on-disk tier (dirty-page
#: write-back competing with reads for the spindle).
DISK_WRITEBACK_FACTOR = 1.0
COST_COUNTERS = (  # every counter CostModel prices: all a statement step tallies
    "engine.rows_read", "engine.pages_read", "engine.pages_written", "engine.rows_inserted",
    "engine.rows_updated", "engine.rows_deleted", "index.rotations", "locks.waits",
    "slave.ops_applied", "cache.misses", "wal.fsyncs")


def batch_bytes(payload_bytes: int, messages: int) -> int:
    """Wire size of ``messages`` write-sets framed into one batch."""
    return payload_bytes + NET_FRAME_BYTES * messages


@dataclass(frozen=True)
class CostConfig:
    """All service-time knobs, in (virtual) seconds."""

    # -- CPU costs (per unit of instrumented work) -------------------------------
    cpu_per_statement: float = 0.0003   # parse/plan/dispatch overhead
    cpu_per_row_read: float = 0.00002
    cpu_per_page_touch: float = 0.00001
    cpu_per_row_write: float = 0.00008
    cpu_per_index_rotation: float = 0.00020  # RB-tree rebalancing (paper §6.1)
    cpu_per_lock_wait: float = 0.00005
    # -- replication costs ----------------------------------------------------------
    cpu_per_op_receive: float = 0.00002   # enqueue + eager index maintenance
    cpu_per_op_apply: float = 0.00002     # lazy page application
    cpu_per_op_precommit: float = 0.00003  # write-set encode on the master
    # -- memory hierarchy ---------------------------------------------------------------
    page_fault_cost: float = 0.004  # mmap page-in on an in-memory node
    # -- network ----------------------------------------------------------------------------
    net_latency: float = 0.0002          # one-way LAN latency
    net_bandwidth: float = 100e6         # bytes/second
    # -- graceful degradation (updates queue through reconfigurations) ------------------------
    #: Backpressure: maximum updates parked on the reconfiguration waiter
    #: queue per master before further arrivals are shed with a retryable
    #: ``queue-shed`` rejection (0 = unbounded, today's behaviour).
    update_queue_limit: int = 0
    # -- straggler tolerance (laggard demotion, under a non-"all" ack policy) ----------
    #: Slave-side buffer cap: pending (buffered, unapplied) ops on one
    #: replica before it is demoted to catch-up mode (0 = unbounded).
    slave_buffer_max_ops: int = 0
    # -- node shape --------------------------------------------------------------------------
    cores_per_node: int = 2
    # -- write-path scale-out (epoch commit + dynamic conflict classes) -----------------------
    #: Commits admitted into one commit epoch before it seals.  Every
    #: update commit is an epoch member: the members of one epoch share
    #: one version-vector advance, one WAL force and one broadcast
    #: barrier.  1 (the default) is the smallest epoch.
    epoch_max_txns: int = 1
    #: Epoch timer in milliseconds: an open epoch seals after this long even
    #: if not full.  0 seals each epoch as soon as its first member finishes
    #: pre-commit (batching only the members that joined meanwhile).
    epoch_ms: float = 0.0
    #: Per-master update admission limit (multiprogramming level).  Bounds
    #: the number of update transactions concurrently *executing* on one
    #: master, which collapses OCC validation aborts under write overload.
    #: 0 = unbounded (legacy).
    update_mpl: int = 0
    #: Enable load-driven split/merge/re-home of conflict classes across
    #: masters.  Off by default: the rebalancer daemon moves counters and
    #: sim events, so legacy seeded fingerprints require it disabled.
    dynamic_classes: bool = False
    #: Rebalancer sampling period (seconds of virtual time); 0 disables the
    #: daemon even when ``dynamic_classes`` is set.
    rebalance_interval: float = 0.0
    #: Fixed coordination overhead of one class re-home (ownership flip
    #: broadcast + scheduler table update).  The historical model priced
    #: class->master assignment as free because it could never change;
    #: re-homing makes handoffs a real, configurable cost so ablation
    #: numbers stay honest.
    rehome_handoff_overhead: float = 0.02
    #: Per-table CPU cost of adopting a re-homed table on the destination
    #: master (version-counter adoption + ownership-set update).
    cpu_per_rehome_table: float = 0.0005
    # -- reconfiguration --------------------------------------------------------------------------
    #: Fixed coordination overhead of master-failure recovery (abort round,
    #: election, topology broadcast) — the paper measures ~6 s total.
    recovery_overhead: float = 2.0
    # -- disk (on-disk tier) ---------------------------------------------------------------------
    disk: DiskModel = field(default_factory=DiskModel)
    # -- durability (in-memory tier) --------------------------------------------------------------
    #: When True every in-memory node appends write-sets to a local
    #: content-carrying WAL and forces it before acking, enabling
    #: restart-from-own-disk recovery and the storage-fault model (each
    #: node's ``durable`` flag).
    durable_wal: bool = False
    # -- overload robustness (admission control, deadlines, retry budgets) --------------------
    #: Per-tenant admission token-bucket refill rate (requests/second at
    #: the scheduler entry).  0 disables per-tenant rate limiting.
    admission_rate: float = 0.0
    #: Token-bucket capacity (burst allowance).  0 means "same as
    #: ``admission_rate``" when rate limiting is on.
    admission_burst: float = 0.0
    #: Queue-delay watermark (seconds of scheduler/admission queueing,
    #: EWMA-smoothed) above which new arrivals are shed, cheapest-to-retry
    #: first: reads shed at the watermark, updates only well above it
    #: (``repro.scheduler.admission.SHED_UPDATE_FACTOR``).  0 disables.
    admission_queue_watermark: float = 0.0
    #: Default request deadline stamped at arrival (seconds); propagated
    #: through routing -> execute -> commit so doomed work is cancelled at
    #: every stage instead of completed late.  0 = no deadlines.
    request_deadline: float = 0.0
    #: Client-side retry budget: retry tokens refilled per second (shared
    #: per tenant in the open-loop engine, pool-wide for the closed-loop
    #: browsers).  0 = unlimited retries (legacy).
    retry_budget_rate: float = 0.0
    #: Retry-budget bucket capacity.  0 means "same as
    #: ``retry_budget_rate``" when the budget is on.
    retry_budget_burst: float = 0.0
    #: Client circuit breaker: failure fraction over the rolling outcome
    #: window that opens the breaker (requests are then shed client-side
    #: without touching the cluster).  0 disables the breaker.
    breaker_failure_threshold: float = 0.0

    def net_delay(self, nbytes: int) -> float:
        return self.net_latency + nbytes / self.net_bandwidth

    def batch_delay(self, payload_bytes: int, messages: int) -> float:
        """Group-commit batching: one latency charge, bandwidth per byte."""
        return self.net_delay(batch_bytes(payload_bytes, messages))

    def rtt(self, nbytes: int = 256) -> float:
        """Request/response round trip through the scheduler."""
        return 2 * self.net_delay(nbytes)


class CostModel:
    """Computes service times from counter deltas."""

    def __init__(self, config: CostConfig) -> None:
        self.config = config

    def statement_cpu(self, delta: Mapping[str, float]) -> float:
        """CPU seconds for one executed statement."""
        c = self.config
        return (
            c.cpu_per_statement
            + c.cpu_per_row_read * delta.get("engine.rows_read", 0)
            + c.cpu_per_page_touch * delta.get("engine.pages_read", 0)
            + c.cpu_per_page_touch * delta.get("engine.pages_written", 0)
            + c.cpu_per_row_write
            * (
                delta.get("engine.rows_inserted", 0)
                + delta.get("engine.rows_updated", 0)
                + delta.get("engine.rows_deleted", 0)
            )
            + c.cpu_per_index_rotation * delta.get("index.rotations", 0)
            + c.cpu_per_lock_wait * delta.get("locks.waits", 0)
            + c.cpu_per_op_apply * delta.get("slave.ops_applied", 0)
        )

    def fault_time(self, delta: Mapping[str, float]) -> float:
        """Page-in time for an in-memory node's cache misses."""
        return self.config.page_fault_cost * delta.get("cache.misses", 0)

    def disk_time(self, delta: Mapping[str, float]) -> float:
        """Disk seconds for an on-disk node: misses, write-back, log forces."""
        disk = self.config.disk
        ios = delta.get("cache.misses", 0) + DISK_WRITEBACK_FACTOR * delta.get(
            "engine.pages_written", 0
        )
        return disk.random_read_cost(int(ios)) + disk.fsync_cost(
            int(delta.get("wal.fsyncs", 0))
        )

    def receive_cpu(self, op_count: int) -> float:
        return self.config.cpu_per_op_receive * op_count

    def precommit_cpu(self, op_count: int) -> float:
        return self.config.cpu_per_op_precommit * op_count

    def apply_cpu(self, op_count: int) -> float:
        return self.config.cpu_per_op_apply * op_count

    def sequential_disk(self, nbytes: int) -> float:
        return self.config.disk.sequential_cost(nbytes)

    def rehome_cost(self, table_count: int, pending_ops: int = 0) -> float:
        """Service time of one conflict-class re-home handoff.

        Fixed coordination overhead plus per-table adoption work on the
        destination master plus application of any still-buffered ops for
        the moved tables.  With the static assignment path (no re-homes)
        this is never charged, so historical cost totals are unchanged.
        """
        c = self.config
        return (
            c.rehome_handoff_overhead
            + c.cpu_per_rehome_table * table_count
            + self.apply_cpu(pending_ops)
        )
