"""Chaos layer: deterministic fault injection and cluster invariant checking.

The paper's continuous-availability claims (§4.1–4.5) are about behaviour
under *messy* failures, not just clean scheduled kills.  This package adds:

* :mod:`repro.chaos.network` — a per-link lossy-network model (drop,
  duplication, extra delay, partitions) consulted by the replication
  channels and scheduler RPCs;
* :mod:`repro.chaos.faults` — seeded, declarative fault plans that schedule
  node crashes, reintegrations, scheduler kills, link faults, healed
  partitions, storage faults (torn writes, fsync lies, bit flips), stale or
  cold spare backups, flash crowds and forced conflict-class re-homes
  against a running cluster;
* :mod:`repro.chaos.invariants` — Jepsen-lite post-quiescence checkers
  (durability, version convergence, snapshot consistency, write-set
  conservation, durable-prefix / no-ghost-commits, interest coverage);
* :mod:`repro.chaos.plans` — the registry of named scenarios: each plan's
  fault schedule, cluster shape, cost configuration and expectations,
  declared once;
* :mod:`repro.chaos.scenario` — :func:`run_plan`, the one runner of every
  simulated DMV experiment (chaos soaks and the paper's figures alike),
  whose metric fingerprint replays identically from its printed seed.
"""

from repro.chaos.faults import (
    BitFlip,
    ColdCache,
    CrashNode,
    CrashScheduler,
    FaultPlan,
    FlashCrowd,
    FsyncLie,
    LinkFault,
    Partition,
    Rehome,
    ReintegrateNode,
    RestartNode,
    Slowdown,
    StaleBackup,
    TornWrite,
)
from repro.chaos.invariants import (
    InvariantResult,
    check_all_invariants,
    check_buffer_bounds,
    check_class_ownership_unique,
    check_counter_conservation,
    check_durable_commits,
    check_durable_prefix,
    check_interest_coverage,
    check_no_ghost_commits,
    check_quorum_durability,
    check_rejoin_convergence,
    check_replica_convergence,
    check_snapshot_consistency,
)
from repro.chaos.network import ANY, LinkState, NetworkModel
from repro.chaos.plans import (
    PLANS,
    Plan,
    default_chaos_plan,
    durability_chaos_plan,
    overload_chaos_plan,
    partial_chaos_plan,
    partial_interest_sets,
    straggler_chaos_plan,
    write_scaleout_chaos_plan,
)
from repro.chaos.scenario import RunReport, Window, run_plan

__all__ = [
    "ANY",
    "BitFlip",
    "ColdCache",
    "CrashNode",
    "CrashScheduler",
    "FaultPlan",
    "FlashCrowd",
    "FsyncLie",
    "InvariantResult",
    "LinkFault",
    "LinkState",
    "NetworkModel",
    "PLANS",
    "Partition",
    "Plan",
    "Rehome",
    "ReintegrateNode",
    "RestartNode",
    "RunReport",
    "Slowdown",
    "StaleBackup",
    "TornWrite",
    "Window",
    "check_all_invariants",
    "check_buffer_bounds",
    "check_class_ownership_unique",
    "check_counter_conservation",
    "check_durable_commits",
    "check_durable_prefix",
    "check_interest_coverage",
    "check_no_ghost_commits",
    "check_quorum_durability",
    "check_rejoin_convergence",
    "check_replica_convergence",
    "check_snapshot_consistency",
    "default_chaos_plan",
    "durability_chaos_plan",
    "overload_chaos_plan",
    "partial_chaos_plan",
    "partial_interest_sets",
    "run_plan",
    "straggler_chaos_plan",
    "write_scaleout_chaos_plan",
]
