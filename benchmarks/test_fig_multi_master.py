"""Write-path scale-out: ordering-mix WIPS vs number of masters.

The Figure 3 reproduction shows the read mixes scaling with slaves while
the write-heavy ordering mix plateaus — the single master of the big
ordering conflict class is the whole system's ceiling.  This figure holds
the read tier fixed (8 slaves) and sweeps the number of masters with the
write scale-out stack enabled (bounded update admission, epoch-batched
version-vector commit, dynamic conflict-class sharding):

* ``1 (legacy)`` — the seed configuration: unbounded MPL, one write-set
  broadcast per commit, static classes.  Under a flash write load the
  master thrashes (lock convoys, 2PL aborts in the tens of percent).
* ``1..8 (scale-out)`` — the same offered load with the new stack; the
  1-master point isolates what admission control + epoch batching buy,
  the multi-master points add conflict-class sharding on top.

The acceptance gate (ISSUE 8): 4-master WIPS >= 2x the 1-master legacy
baseline, recorded in ``benchmarks/results/BENCH_write_scaleout.json``.
"""

import json
from dataclasses import replace
from pathlib import Path

from conftest import audit, quick_mode

from repro.bench.calibration import BENCH_COST
from repro.bench.harness import THROUGHPUT, bench_cluster, measured, steady_wips
from repro.bench.report import format_table
from repro.chaos import run_plan
from repro.tpcw import TpcwScale, tpcw_conflict_map

RESULTS_DIR = Path(__file__).parent / "results"

#: Hot-item scale: 40 items concentrates the ordering mix's writes enough
#: that the legacy single master convoys — the regime this figure probes.
SCALE = TpcwScale(num_items=40, num_customers=144)
NUM_SLAVES = 8
CLIENTS = 480
THINK_TIME = 0.3
DURATION = 40.0
SEED = 7

SCALEOUT_COST = replace(
    BENCH_COST,
    update_mpl=4,
    epoch_max_txns=8,
    epoch_ms=5.0,
)


#: The legacy single master under the hot ordering load.
LEGACY = measured(
    THROUGHPUT,
    DURATION,
    mix="ordering",
    browsers=CLIENTS,
    scale=SCALE,
    think_time=THINK_TIME,
    seed=SEED,
    cluster=bench_cluster(num_slaves=NUM_SLAVES),
)


def _run_point(num_masters: int, legacy: bool):
    plan = LEGACY
    if not legacy:
        # A fresh conflict map: re-homing rewrites it, and this plan runs once.
        shape = bench_cluster(
            num_slaves=NUM_SLAVES,
            multi_master=True,
            num_masters=num_masters,
            conflict_map=tpcw_conflict_map(multi_master=True),
        )
        plan = replace(LEGACY, cost=SCALEOUT_COST, cluster=shape)
    report = run_plan(plan)
    audit(report)
    return report.window


def _run_sweep():
    # Quick mode keeps the full duration (the ratio needs the post-warm-up
    # steady state) and trims the sweep to the two gated points instead.
    master_counts = (1, 4) if quick_mode() else (1, 2, 4, 8)
    points = [("1 (legacy)", _run_point(1, legacy=True))]
    for n in master_counts:
        points.append((f"{n} (scale-out)", _run_point(n, legacy=False)))
    return points


def test_fig_multi_master_scaling(benchmark, figure_report):
    points = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    wips = {label: steady_wips(window) for label, window in points}
    commit_p95 = {
        label: window.metrics.commit_latency.percentile(95) for label, window in points
    }
    aborts = {label: window.metrics.abort_rate() for label, window in points}
    baseline = wips["1 (legacy)"]

    rows = []
    records = []
    for label, window in points:
        rehomes = window.counters.get("sched.class_rehomes", 0)
        rows.append([
            label,
            f"{wips[label]:.1f}",
            f"x{wips[label] / baseline:.2f}",
            f"{commit_p95[label] * 1e3:.1f}ms",
            f"{aborts[label] * 100:.2f}%",
            f"{rehomes:.0f}",
        ])
        records.append({
            "label": label,
            "wips": round(wips[label], 2),
            "speedup_vs_legacy": round(wips[label] / baseline, 3),
            "commit_p95_ms": round(commit_p95[label] * 1e3, 3),
            "abort_rate": round(aborts[label], 4),
            "rehomes": int(rehomes),
            "epochs": int(window.counters.get("engine.epochs", 0)),
            "epoch_batched_commits": int(window.counters.get("engine.epoch_batched_commits", 0)),
        })
    table = format_table(
        "Write-path scale-out — ordering-mix WIPS vs masters (8 slaves, "
        f"{CLIENTS} clients)",
        ["masters", "WIPS", "vs legacy", "commit p95", "abort rate", "rehomes"],
        rows,
    )
    figure_report("fig_multi_master_scaling", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "write_scaleout",
        "config": {
            "mix": "ordering",
            "slaves": NUM_SLAVES,
            "clients": CLIENTS,
            "think_time": THINK_TIME,
            "duration_sim_s": DURATION,
            "seed": SEED,
            "scale": {
                "num_items": SCALE.num_items,
                "num_customers": SCALE.num_customers,
            },
            "scaleout_knobs": {
                "update_mpl": SCALEOUT_COST.update_mpl,
                "epoch_max_txns": SCALEOUT_COST.epoch_max_txns,
                "epoch_ms": SCALEOUT_COST.epoch_ms,
            },
        },
        "points": records,
    }
    with open(RESULTS_DIR / "BENCH_write_scaleout.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    # Acceptance gate: 4 masters at least doubles the legacy baseline.
    four = wips["4 (scale-out)"]
    assert four >= 2.0 * baseline, (
        f"4-master WIPS {four:.1f} < 2x legacy baseline {baseline:.1f}"
    )
    # The scale-out stack keeps the write path healthy: commit p95 drops
    # by an order of magnitude and aborts stay low.
    assert commit_p95["4 (scale-out)"] < commit_p95["1 (legacy)"]
    assert aborts["4 (scale-out)"] < 0.10
