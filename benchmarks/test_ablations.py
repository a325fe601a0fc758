"""Ablations: turning off the design choices the paper argues for.

Each ablation toggles one mechanism and measures the consequence the paper
predicts:

* version-aware scheduling vs blind load balancing — the abort rate the
  scheduler's same-version affinity is meant to suppress;
* lazy vs eager write-set application — per-replica apply work when
  readers need only part of the data;
* page transfer vs query-log replay for stale-node catch-up — the
  migration-time argument of §4.4;
* warm vs cold spare backups — the warm-up argument of §4.5 (measured in
  full in the Figure 7-9 benchmarks; summarised here via cache hit ratios).
"""

from conftest import audit

from repro.bench.harness import THROUGHPUT, bench_cluster, measured, steady_wips
from repro.bench.report import format_table
from repro.chaos import run_plan
from repro.core import MasterReplica, SlaveReplica
from repro.engine import bulk_load_replicas
from repro.sql import SqlExecutor
from repro.tpcw import tpcw_conflict_map


def _run_with_affinity(enabled: bool, rounds: int = 200):
    """Protocol-level harness: interleaved readers at consecutive versions.

    A master streams single-row updates to two slaves.  Each round opens a
    reader at the OLD version, commits an update, opens a reader at the NEW
    version, and only then lets the old reader touch the shared page — the
    exact interleaving Section 2.2 discusses.  With ``enabled`` both
    readers are placed by the shipped :class:`VersionAwareScheduler`
    (``route_read`` / ``note_read_done``), which separates the two tags
    onto different replicas; blind random placement does not.
    """
    from repro.common.errors import VersionInconsistency
    from repro.common.rng import RngStream
    from repro.core import ConflictClassMap
    from repro.engine import Column, TableSchema
    from repro.scheduler import VersionAwareScheduler

    schema = TableSchema(
        "item",
        [Column("i_id", "int", nullable=False), Column("i_stock", "int")],
        primary_key=("i_id",),
    )
    master = MasterReplica("m0")
    slaves = {node_id: SlaveReplica(node_id) for node_id in ("s0", "s1")}
    rows = [{"i_id": i, "i_stock": 10} for i in range(64)]
    engines = [master.engine] + [s.engine for s in slaves.values()]
    for engine in engines:
        engine.create_table(schema)
    bulk_load_replicas(engines, "item", rows)
    msql = SqlExecutor(master.engine)
    ssqls = {node_id: SqlExecutor(s.engine) for node_id, s in slaves.items()}
    conflict_map = ConflictClassMap.single_class(["item"])
    conflict_map.assign_masters(["m0"])
    scheduler = VersionAwareScheduler("sched0", conflict_map)
    for node_id in slaves:
        scheduler.add_slave(node_id)
    rng = RngStream(99, "ablation", "blind")

    def begin_read():
        if enabled:
            routed = scheduler.route_read(["item"])
            return routed.node_id, routed.tag
        # Blind: plain load balancing with no version knowledge.
        return rng.choice(sorted(slaves)), master.current_versions()

    def finish_read(node_id, reader):
        slaves[node_id].engine.commit(reader)
        scheduler.note_read_done(node_id)

    aborts = reads = 0
    for round_no in range(rounds):
        old_node, old_tag = begin_read()
        old_reader = slaves[old_node].begin_read_only(old_tag)
        # Commit an update to the shared row while the old reader is open.
        txn = master.begin_update(write_tables=["item"])
        msql.execute(txn, "UPDATE item SET i_stock = ? WHERE i_id = 1", (round_no,))
        ws = master.pre_commit(txn)
        for s in slaves.values():
            s.receive(ws)
        master.finalize(txn)
        scheduler.on_master_commit("m0", ws.versions)
        new_node, new_tag = begin_read()
        new_reader = slaves[new_node].begin_read_only(new_tag)
        ssqls[new_node].execute(new_reader, "SELECT i_stock FROM item WHERE i_id = 1")
        finish_read(new_node, new_reader)
        # Now the old reader touches the same row.
        reads += 1
        try:
            ssqls[old_node].execute(old_reader, "SELECT i_stock FROM item WHERE i_id = 1")
            finish_read(old_node, old_reader)
        except VersionInconsistency:
            aborts += 1
            slaves[old_node].engine.abort(old_reader)
            scheduler.note_read_done(old_node)
    return aborts / reads


def test_ablation_version_aware_scheduling(benchmark, figure_report):
    """Version affinity keeps conflicting-version readers apart (§2.2)."""

    def run():
        return _run_with_affinity(True), _run_with_affinity(False)

    rate_on, rate_off = benchmark.pedantic(run, rounds=1, iterations=1)
    report = format_table(
        "Ablation — version-aware scheduling vs blind round-robin "
        "(adversarial interleaving of consecutive-version readers)",
        ["scheduler", "version-inconsistency aborts / read"],
        [
            ["version-aware (paper)", f"{rate_on * 100:.1f}%"],
            ["blind round-robin", f"{rate_off * 100:.1f}%"],
        ],
    )
    figure_report("ablation_version_affinity", report)
    assert rate_on == 0.0
    assert rate_off > 0.2  # blind routing collides constantly


ITEM_ROWS = 3000


def _replication_pair():
    from repro.engine import Column, TableSchema

    schema = TableSchema(
        "item",
        [Column("i_id", "int", nullable=False), Column("i_stock", "int")],
        primary_key=("i_id",),
    )
    master = MasterReplica("m0")
    slave = SlaveReplica("s0")
    rows = [{"i_id": i, "i_stock": 10} for i in range(ITEM_ROWS)]
    for engine in (master.engine, slave.engine):
        engine.create_table(schema)
    bulk_load_replicas((master.engine, slave.engine), "item", rows)
    return master, slave


def test_ablation_lazy_vs_eager_apply(benchmark, figure_report):
    """Lazy application does work proportional to what readers touch."""

    def run():
        results = {}
        for mode in ("lazy", "eager"):
            master, slave = _replication_pair()
            sql = SqlExecutor(master.engine)
            for i in range(400):
                txn = master.begin_update(write_tables=["item"])
                sql.execute(txn, "UPDATE item SET i_stock = ? WHERE i_id = ?", (i, i * 7 % ITEM_ROWS))
                ws = master.pre_commit(txn)
                slave.receive(ws)
                if mode == "eager":
                    slave.apply_all_pending()
                master.finalize(txn)
            # A reader touches 10 hot rows only.
            ssql = SqlExecutor(slave.engine)
            ro = slave.begin_read_only(master.current_versions())
            for i in range(10):
                ssql.execute(ro, "SELECT i_stock FROM item WHERE i_id = ?", (i,))
            slave.engine.commit(ro)
            results[mode] = slave.counters.get("slave.ops_applied")
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    report = format_table(
        "Ablation — lazy vs eager write-set application (400 updates, 10-row reader)",
        ["mode", "page ops applied at the slave"],
        [["lazy (paper)", int(results["lazy"])], ["eager", int(results["eager"])]],
    )
    figure_report("ablation_lazy_apply", report)
    assert results["lazy"] < results["eager"] * 0.25


def test_ablation_multi_master_conflict_classes(benchmark, figure_report):
    """§2.1: disjoint conflict classes permit parallel update execution.

    The ordering mix is master-CPU-bound (Figure 3).  Splitting the two
    write-heavy conflict classes (ordering-path tables vs customer
    registration) across two masters relieves the bottleneck.
    """

    def run_one(multi: bool) -> float:
        shape = bench_cluster(
            num_slaves=4,
            conflict_map=tpcw_conflict_map(multi_master=multi),
            multi_master=multi,
        )
        plan = measured(THROUGHPUT, 60.0, mix="ordering", browsers=220, seed=7, cluster=shape)
        report = run_plan(plan)
        audit(report)
        # The two 20 s buckets after the first (the window's last 40 s).
        return steady_wips(report.window)

    def run():
        return run_one(False), run_one(True)

    single, multi = benchmark.pedantic(run, rounds=1, iterations=1)
    report = format_table(
        "Ablation — single vs multi-master (ordering mix, 4 slaves)",
        ["configuration", "steady-state WIPS"],
        [
            ["single master (all classes)", f"{single:.1f}"],
            ["two masters (disjoint classes)", f"{multi:.1f}"],
        ],
    )
    figure_report("ablation_multi_master", report)
    # The gain is bounded by the smaller class's share of the update work
    # (customer registrations ~26 % of ordering-mix updates), so expect a
    # solid but not dramatic improvement.
    assert multi > single * 1.05


def test_ablation_page_transfer_vs_log_replay(benchmark, figure_report):
    """§4.4: migrating changed pages collapses long update chains."""

    def run():
        master, support = _replication_pair()
        sql = SqlExecutor(master.engine)
        queries = []
        hot = 50  # heavy update activity on a small set of rows
        for i in range(1200):
            txn = master.begin_update(write_tables=["item"])
            statement = ("UPDATE item SET i_stock = ? WHERE i_id = ?", (i, i % hot))
            sql.execute(txn, *statement)
            queries.append(statement)
            ws = master.pre_commit(txn)
            support.receive(ws)
            master.finalize(txn)
        joiner = SlaveReplica("joiner")
        joiner.engine.create_table(master.engine.table("item").schema)
        joiner.engine.bulk_load("item", [{"i_id": i, "i_stock": 10} for i in range(ITEM_ROWS)])
        joiner.catching_up = True
        from repro.failover.reintegration import integrate_stale_node

        stats = integrate_stale_node(joiner, support)
        return {
            "log_entries": len(queries),
            "pages_sent": stats.pages_sent,
            "bytes_sent": stats.bytes_sent,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report = format_table(
        "Ablation — catch-up work: page transfer vs log replay (1200 updates on 50 hot rows)",
        ["strategy", "units of catch-up work"],
        [
            ["log replay (baseline)", f"{result['log_entries']} transactions to re-execute"],
            ["page transfer (paper)", f"{result['pages_sent']} pages "
             f"({result['bytes_sent']} bytes)"],
        ],
    )
    figure_report("ablation_page_transfer", report)
    # Long chains of modifications collapse into few pages.
    assert result["pages_sent"] * 10 < result["log_entries"]
