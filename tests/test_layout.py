"""Layout ratchet: the cluster package stays a set of small components.

``SimDmvCluster`` was once a 2,052-line class with 82 methods; these checks
keep it a composition root, keep every module of ``repro.cluster`` small,
keep DESIGN.md §4's module tree and the code from drifting apart, keep
policy constants out of ``CostConfig`` and unread knobs off the cluster
constructors, and keep one master concurrency control.  The surface
ratchets at the end keep "what is plan X" in one place: few CLI flags, no
per-plan CI shell, a README table that lists exactly the registry, and one
runner — ``run_plan`` — under every paper figure, sweep and example.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import repro.cluster.sync
import repro.cluster.threaded
import repro.sim
from repro.chaos.plans import FABRIC_COUNTERS, PLANS
from repro.cluster.costs import COST_COUNTERS, CostConfig
from repro.cluster.simcluster import SimDmvCluster
from repro.cluster.simdisk import SimDiskCluster
from repro.cluster.simnodes import DiskDbNode, InMemoryDbNode
from repro.cluster.sync import SyncDmvCluster
from repro.engine.indexes import encode_key
from repro.scheduler.versionaware import VersionAwareScheduler
from repro.traffic.engine import OpenLoopEngine
from repro.traffic.scenario import TenantSpec, TrafficScenario
from tests.test_heap_bounds import slaves_fed_one_write_set

REPO = Path(__file__).resolve().parents[1]
CLUSTER = REPO / "src" / "repro" / "cluster"


def cluster_modules():
    return sorted(p.name for p in CLUSTER.glob("*.py") if p.name != "__init__.py")


def test_no_cluster_module_over_650_lines():
    sizes = {p.name: len(p.read_text().splitlines()) for p in CLUSTER.glob("*.py")}
    assert {name: n for name, n in sizes.items() if n > 650} == {}


#: ``src/repro/cluster`` after its last deletion: the package must not grow.
CLUSTER_BUDGET = 4792


def test_cluster_package_line_budget():
    lines = sum(len(p.read_text().splitlines()) for p in CLUSTER.glob("*.py"))
    assert lines <= CLUSTER_BUDGET, lines


def test_sim_cluster_is_a_composition_root():
    assert SimDmvCluster.__bases__ == (object,)
    methods = [
        name
        for name, member in vars(SimDmvCluster).items()
        if inspect.isfunction(member) or isinstance(member, property)
    ]
    assert len(methods) <= 33, sorted(methods)


def test_no_feature_switchboard_on_the_cluster():
    # Each protocol fork is decided by the component that owns it (DESIGN.md
    # §2, "Who decides each fork"), not by asking the composition root.
    cluster = SimDmvCluster([])
    assert [name for name in dir(cluster) if name.endswith("_active")] == []
    reads = re.compile(r"cluster\.(\w+_active)\b|getattr\(\s*cluster,\s*\"(\w+_active)\"")
    for path in (REPO / "src" / "repro").rglob("*.py"):
        assert reads.findall(path.read_text()) == [], path
    assert "_support" not in vars(SyncDmvCluster)


def test_one_read_routing_rule():
    # Full and partial replication share one route_read body and one
    # freshness ledger, kept under every ack policy and interest setup.
    for name in ("_route_read_partial", "partial_routing", "note_slave_versions"):
        assert not hasattr(VersionAwareScheduler, name), name
    assert "partial_active" not in (CLUSTER / "commit.py").read_text()


def test_design_doc_module_tree_matches_the_code():
    design = (REPO / "DESIGN.md").read_text()
    section = design[design.index("## 4. Repository layout"):]
    section = section[: section.index("\n## 5.")]
    listed, in_cluster = [], False
    for line in section.splitlines():
        if re.match(r"^  \w+/", line):  # a package line of the tree
            in_cluster = line.startswith("  cluster/")
        elif in_cluster:
            match = re.match(r"^    (\w+\.py)\s+\S", line)
            assert match, f"unparsable line under cluster/: {line!r}"
            listed.append(match.group(1))
    assert sorted(listed) == cluster_modules()


def test_cost_config_is_a_cost_model_not_a_policy_bag():
    assert len(dataclasses.fields(CostConfig)) <= 30


def test_cluster_constructor_parameter_budgets():
    budgets = {
        SimDmvCluster: 19,
        SyncDmvCluster: 8,
        SimDiskCluster: 8,
        VersionAwareScheduler: 5,
    }
    for cls, budget in budgets.items():
        params = list(inspect.signature(cls.__init__).parameters)[1:]  # drop self
        assert len(params) <= budget, (cls.__name__, params)


def test_one_master_concurrency_control_above_the_engine():
    # Every master runs OCC read validation; no layer above the engine
    # threads a mode through.
    for package in ("cluster", "core", "failover"):
        for path in (REPO / "src" / "repro" / package).rglob("*.py"):
            assert "read_concurrency" not in path.read_text(), path


def test_no_garbage_collector_tuning_in_the_program():
    # What a full collection walks is cut by layout (see test_heap_bounds.py),
    # not by switching the collector off or down.
    for path in (REPO / "src").rglob("*.py"):
        source = path.read_text()
        for call in ("gc.disable", "gc.freeze", "gc.set_threshold"):
            assert call not in source, (path, call)


def test_the_receive_funnel_builds_no_list_for_what_it_sees_first():
    # A page or index key a write-set gives a slave for the first time takes
    # the write-set's shared queue head and the op's shared committed entry
    # (DESIGN.md §2 item 8); a slave builds a list of its own only when it
    # writes one a second time.
    def insert_and_move_a_key(table, txn):
        table.insert_row(txn, {"i_id": 7, "i_title": "new"})
        (loc,) = table.pk_lookup(txn, (1,))
        table.update_row(txn, loc, {"i_title": "moved"})

    (slave,), _write_set = slaves_fed_one_write_set(1, insert_and_move_a_key)
    received = slave.engine.table("item")
    assert len(slave.pending) == 2
    assert [type(queue) for queue in slave.pending.values()] == [tuple, tuple]
    buckets = [received.pk_index._buckets.get(encode_key((7,)))]
    buckets += [received.index("ix_title")._tree.get(encode_key((title,))) for title in ("new", "moved")]
    assert [type(bucket) for bucket in buckets] == [tuple, tuple, tuple]


def test_replica_node_replaced_the_per_driver_node_classes():
    assert not hasattr(repro.cluster.sync, "NodeHandle")
    assert not hasattr(repro.cluster.threaded, "ThreadedNode")


def test_one_statement_step_for_both_tiers():
    # SimNode.exec_statement is the one loop that runs a statement and
    # waits out its locks; a tier only prices a counter delta.
    assert (CLUSTER / "simnodes.py").read_text().count("except LockWait") == 1
    assert "exec_statement" not in vars(InMemoryDbNode)
    assert "exec_statement" not in vars(DiskDbNode)


def test_sequential_node_work_runs_in_the_waiting_process():
    # A job that the caller waits out alone runs inside the caller
    # (SimNode.run_job); spawning one (SimNode.job) is the on-disk tier's
    # parallel fan-out only.
    for name in ("clients.py", "channel.py", "migration.py", "failover.py", "straggler.py"):
        assert ".job(" not in (CLUSTER / name).read_text(), name


def test_the_statement_step_tallies_every_counter_the_cost_model_prices():
    # exec_statement hands CostModel the delta of COST_COUNTERS only; a
    # counter priced but not tallied would silently cost nothing.
    priced = re.findall(r'delta\.get\(\s*"([\w.]+)"', (CLUSTER / "costs.py").read_text())
    assert set(priced) == set(COST_COUNTERS)


def test_every_timed_hold_goes_through_resource_hold():
    # acquire / timeout / release is written once, interrupt-safe, in
    # Resource.hold; the leaky Server.serve and the unused Store are gone.
    assert not hasattr(repro.sim, "Server") and not hasattr(repro.sim, "Store")
    for path in (REPO / "src").rglob("*.py"):
        assert ".disk.acquire()" not in path.read_text(), path
    assert "cpu.acquire()" not in (CLUSTER / "migration.py").read_text()


def test_drivers_keep_no_orchestration_of_their_own():
    threaded = (CLUSTER / "threaded.py").read_text()
    for call in ("pre_commit(", "slave.receive(", "on_master_commit("):
        assert call not in threaded, call
    assert "_browser_loop" not in (CLUSTER / "simdisk.py").read_text()


def test_one_request_loop_for_every_simulated_client():
    # Browsers and open-loop tenants both go through clients.serve: one
    # place retries, and the closed loop's own give-up counter is gone.
    sources = {path: path.read_text() for path in (REPO / "src").rglob("*.py")}
    calls = [
        path.name for path, source in sources.items() for _ in re.findall(r"\.retry_backoff\(", source)
    ]
    assert calls == ["clients.py"]
    assert [path for path, source in sources.items() if "bench.retries_exhausted" in source] == []


def test_traffic_dsl_keeps_only_the_knobs_callers_set():
    assert len(dataclasses.fields(TenantSpec)) <= 7
    assert len(dataclasses.fields(TrafficScenario)) <= 4
    assert list(inspect.signature(OpenLoopEngine.start).parameters) == ["self"]


# -- surface ratchets: one registry of plans, few flags, few CI jobs --------------------
def _cli_options(package):
    source = (REPO / "src" / "repro" / package / "__main__.py").read_text()
    return re.findall(r"add_argument\(\s*\"(--[\w-]+)\"", source)


def test_cli_flag_budget():
    assert 1 <= len(_cli_options("chaos")) <= 6, _cli_options("chaos")
    assert 1 <= len(_cli_options("bench")) <= 7, _cli_options("bench")
    assert not (REPO / "src" / "repro" / "traffic" / "__main__.py").exists()


def test_ci_is_five_jobs_and_greps_nothing():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    jobs = re.findall(r"^  ([\w-]+):$", ci[ci.index("\njobs:"):], flags=re.M)
    assert len(jobs) <= 5, jobs
    # What a plan must show is declared on the plan and checked by the CLI.
    assert "grep" not in ci


def test_readme_plan_table_matches_the_registry():
    readme = (REPO / "README.md").read_text()
    section = readme[readme.index("## Plans"):]
    section = section[: section.index("\n## ", 1)]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"^\| `([\w-]+)` \|.*\|([^|]*)\|$", line)
        if match:
            rows[match.group(1)] = set(re.findall(r"`([\w.]+)`", match.group(2)))
    assert sorted(rows) == sorted(PLANS)
    for name, plan in PLANS.items():
        assert rows[name] == set(plan.must_fire) - set(FABRIC_COUNTERS), name


def test_figures_sweeps_and_examples_build_no_cluster_of_their_own():
    # Each replaces a base plan and calls run_plan; only the on-disk
    # baseline keeps a runner of its own.
    bench = REPO / "benchmarks"
    files = [
        *(REPO / "src" / "repro" / "bench").glob("*.py"),
        *bench.glob("test_fig*.py"),
        bench / "test_ablations.py",
        bench / "test_restart_mttr.py",
        *(REPO / "examples").glob("*.py"),
    ]
    assert [p.name for p in files if "SimDmvCluster(" in p.read_text()] == []


#: ``src/repro/bench`` once its five hand-built runners were deleted (974 before).
BENCH_BUDGET = 418


def test_bench_package_line_budget():
    lines = sum(
        len(p.read_text().splitlines()) for p in (REPO / "src" / "repro" / "bench").glob("*.py")
    )
    assert lines <= BENCH_BUDGET, lines
