"""The repository benchmark (``benchmarks/perf``) still runs on this source.

The harness is frozen and calls the program directly —
``make_update_controller("occ")``, ``MasterReplica("m0", engine=...)``,
``slave.receive(ws)``, ``replace(BENCH_COST, update_mpl=...)``,
``SimDmvCluster(..., multi_master=True, num_masters=4)`` — and no other
tier-1 test imports it, so a change that breaks one of those calls would
stay green until the benchmark itself ran.  This runs the layer probes
once at a hundredth of their size, then every declared workload for 0.3
sim-s through the harness's own ``run_one``, and asks what the benchmark
asks: no problems, every declared end-to-end metric.  (Shorter is not
safe: at 0.05 sim-s ``shop_failover_open`` fails its per-tenant SLO check.)

The harness imports its siblings by bare, generic names (``run``,
``metrics``, ``workloads``, ...).  They are loaded with ``benchmarks/perf``
on ``sys.path`` for this module's tests only, then both are taken back out.
"""

import importlib
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO = Path(__file__).resolve().parents[1]
HARNESS = REPO / "benchmarks" / "perf"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
HARNESS_MODULES = sorted(p.stem for p in HARNESS.glob("*.py"))


@pytest.fixture(scope="module")
def harness():
    saved_path = list(sys.path)
    shadowed = {name: sys.modules.pop(name) for name in HARNESS_MODULES if name in sys.modules}
    sys.path.insert(0, str(HARNESS))
    try:
        yield SimpleNamespace(
            run=importlib.import_module("run"), probes=importlib.import_module("probes")
        )
    finally:
        sys.path[:] = saved_path
        for name in HARNESS_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(shadowed)


def test_layer_probes_run(harness):
    values = harness.probes.run_probes(0.01)
    declared = {metric["name"] for metric in SPEC["per_layer"]}
    assert values and set(values) <= declared, sorted(set(values) - declared)
    assert all(math.isfinite(value) for value in values.values()), values


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_reports_every_end_to_end_metric(harness, workload):
    detail = harness.run.run_one(workload, 0, 0.3, trace=False, smoke=True, out_dir=None)
    assert detail["problems"] == []
    assert sorted(detail["end_to_end"]) == sorted(m["name"] for m in SPEC["end_to_end"])
