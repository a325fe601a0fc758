"""Metric extraction: what one finished run says, by name.

*Simulated* metrics read the virtual clock and the program's public
counters; with a fixed ``(workload, seed, seconds)`` they repeat exactly.
*Host* metrics are calibrated process CPU seconds (see ``hostclock``) and
peak resident memory: what the simulator costs to run.
"""

from __future__ import annotations

import bisect
import hashlib
import resource
import statistics
from typing import Dict

from repro.common.counters import Counters

from workloads import SLO_SIM_S, Run


def merged_counters(run: Run) -> Counters:
    """Every counter of the run in one bag: nodes, cluster, schedulers, clients."""
    cluster = run.cluster
    merged = Counters.merged(
        [node.counters for node in cluster.nodes.values()]
        + [cluster.counters]
        + [agent.scheduler.counters for agent in cluster.schedulers]
    )
    metrics = cluster.metrics
    merged.add("metrics.completed", metrics.completed)
    merged.add("metrics.retried", metrics.retried)
    merged.add("metrics.failed", metrics.failed)
    return merged


def accounting(run: Run) -> Dict[str, int]:
    """Interactions attempted and what became of each of them.

    An interaction that failed, was shed or never finished is attempted but
    not completed.  Closed loop: every attempt a browser started ended as a
    completion or a retry, so what is left was still in flight at quiescence.
    """
    metrics = run.cluster.metrics
    if run.engine is not None:
        total = run.engine.stats.totals()
        return dict(
            attempted=total.injected,
            completed=total.completed,
            failed=total.failed,
            shed=total.shed,
            in_flight=total.in_flight,
            retried=total.retried,
        )
    started = sum(b.interactions_run for b in run.cluster._browsers)
    in_flight = started - metrics.completed - metrics.retried
    return dict(
        attempted=metrics.completed + metrics.failed + in_flight,
        completed=metrics.completed,
        failed=metrics.failed,
        shed=0,
        in_flight=in_flight,
        retried=metrics.retried,
    )


def midmean(histogram) -> float:
    """Mean of the middle half of the samples (25th to 75th percentile).

    The median's steadier cousin.  The cost model is discrete, so a plain
    median sits on one atom — 44.76 ms on every seed of ``hot_scaleout`` —
    and says nothing until the distribution moves past it; the midmean moves
    with every shift of the middle half and ignores the tails like a median.
    """
    ordered = sorted(histogram._samples)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return sum(middle) / len(middle)


def latency_summary(histogram) -> Dict[str, float]:
    """Count and percentiles in ms, for the detail files (information only)."""
    out = {"count": len(histogram), "midmean": midmean(histogram) * 1e3}
    for p in (50, 90, 95, 99):
        out[f"p{p}"] = histogram.percentile(p) * 1e3
    return out


def simulated(run: Run) -> Dict[str, float]:
    """The simulated end-to-end metrics (virtual clock, exact per seed)."""
    metrics = run.cluster.metrics
    acct = accounting(run)
    duration = run.sim_duration
    done_at, latency = metrics.latency_series.times, metrics.latency_series.values
    lo = bisect.bisect_left(done_at, duration / 3)
    hi = bisect.bisect_left(done_at, duration)
    if run.workload.open_loop:
        steady = sum(1 for value in latency[lo:hi] if value <= SLO_SIM_S)
    else:
        steady = hi - lo
    within_slo = sum(1 for value in latency if value <= SLO_SIM_S)
    commits = metrics.commit_latency
    return {
        "wips": steady / (duration - duration / 3),
        "interaction_mid_ms": midmean(metrics.latency) * 1e3,
        "interaction_p90_ms": metrics.latency.percentile(90) * 1e3,
        "commit_mid_ms": midmean(commits) * 1e3,
        "first_try_share": acct["completed"] / (acct["completed"] + acct["retried"]),
        "slo_met_share": within_slo / acct["attempted"],
        "completed_share": acct["completed"] / acct["attempted"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run) -> Dict[str, float]:
    out = simulated(run)
    out["host_interactions_per_s"] = statistics.median(run.slice_rates)
    out["setup_s"] = run.setup.calibrated_s
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def fingerprint(run: Run) -> str:
    """Counter fingerprint + simulated metrics: identical for identical
    ``(workload, seed, seconds)``, traced or not, on any host."""
    digest = hashlib.sha256(merged_counters(run).fingerprint().encode())
    for name, value in sorted(simulated(run).items()):
        digest.update(f"{name}={value!r};".encode())
    return digest.hexdigest()[:16]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def work_counts(run: Run) -> Dict[str, float]:
    """Exact per-layer work counts from public counters and timelines."""
    cluster = run.cluster
    c = merged_counters(run).get
    commits = len(cluster.metrics.commit_latency)
    sent, batches = c("net.write_sets_sent"), c("net.batches")
    shipped, saved = c("net.bytes_shipped"), c("net.bytes_saved_delta")
    buffered, applied = c("slave.ops_buffered"), c("slave.ops_applied")
    hits = sum(node.sql.plan_cache_hits for node in cluster.nodes.values())
    misses = sum(node.sql.plan_cache_misses for node in cluster.nodes.values())
    epochs = c("engine.epochs")
    # The crash reconfiguration is the first timeline, the reintegration
    # (the one that migrates pages) the second; steady workloads have none.
    crash = cluster.timelines[0] if cluster.timelines else None
    out = {
        "tpcw.interaction_p99_ms": cluster.metrics.latency.percentile(99) * 1e3,
        "cluster.commit_p99_ms": cluster.metrics.commit_latency.percentile(99) * 1e3,
        "cluster.write_sets_sent": sent,
        "cluster.batches": batches,
        "cluster.bytes_shipped": shipped,
        "cluster.bytes_per_commit": _ratio(shipped, commits),
        "cluster.msgs_per_commit": _ratio(batches, commits),
        "cluster.retransmits": c("net.retransmits"),
        "core.ops_buffered": buffered,
        "core.ops_applied": applied,
        "core.coalesce_share": _ratio(c("slave.ops_coalesced"), buffered),
        "core.delta_saved_share": _ratio(saved, shipped + saved),
        "engine.occ_validations": c("engine.occ_validations"),
        "engine.occ_abort_share": _ratio(c("engine.occ_aborts"), c("engine.occ_validations")),
        "engine.lock_fast_grants": c("engine.lock_fast_grants"),
        "engine.deadlocks": c("engine.aborts.deadlock"),
        "engine.epochs": epochs,
        "engine.commits_per_epoch": _ratio(c("engine.epoch_batched_commits"), epochs),
        "sql.plan_cache_hit_share": _ratio(hits, hits + misses),
        "sql.statements": hits + misses,
        "sim.fast_resumes": cluster.sim.fast_resumes,
        "scheduler.queued_updates": c("sched.queued_updates"),
        "scheduler.class_rehomes": c("sched.class_rehomes"),
        "scheduler.version_aborts": c("slave.version_aborts"),
        "failover.total_s": crash.recovery_done - crash.failure_time if crash else 0.0,
        "failover.detect_s": crash.detection_time - crash.failure_time if crash else 0.0,
        "failover.promote_s": crash.recovery_duration() if crash else 0.0,
        "failover.migration_s": sum(t.migration_duration() for t in cluster.timelines),
        "failover.migration_pages": sum(t.migration_pages for t in cluster.timelines),
        "failover.migration_bytes": sum(t.migration_bytes for t in cluster.timelines),
        "traffic.injected": 0,
        "traffic.retried": 0,
        "traffic.inject_lag_max_ms": 0.0,
    }
    if run.engine is not None:
        total = run.engine.stats.totals()
        out["traffic.injected"] = total.injected
        out["traffic.retried"] = total.retried
        out["traffic.inject_lag_max_ms"] = run.engine.max_inject_lag * 1e3
    return out


_STAGE_FIGURES = (
    ("schedule", "p95"),
    ("execute", "p50"),
    ("execute", "p95"),
    ("precommit", "p95"),
    ("broadcast", "p95"),
    ("ack", "p95"),
    ("apply", "p95"),
    ("flush", "p95"),
)


def stage_figures(run: Run) -> Dict[str, float]:
    """Virtual-clock stage latencies of a traced run (``tracer.stages``)."""
    stages = run.cluster.tracer.stages
    out = {
        f"stage.{stage}_{which}_ms": stages.get(stage).summary()[which] * 1e3
        for stage, which in _STAGE_FIGURES
    }
    out["stage.execute_count"] = stages.get("execute").count
    out["stage.apply_count"] = stages.get("apply").count
    return out
