"""Micro-benchmarks of the building blocks (real wall-clock timing).

These complement the figure reproductions: they time the primitive
operations of the engine and the replication protocol on this machine —
write-set application, snapshot reads, SQL execution, checkpointing and
page migration.
"""

import pytest

from repro.common.versions import VersionVector
from repro.core import MasterReplica, SlaveReplica
from repro.engine import (
    Column,
    HeapEngine,
    IndexDef,
    TableSchema,
    TxnMode,
    bulk_load_replicas,
)
from repro.engine.rbtree import RedBlackTree
from repro.failover.reintegration import integrate_stale_node
from repro.sql import SqlExecutor
from repro.storage import FuzzyCheckpointer, StableStore

ITEM = TableSchema(
    "item",
    [
        Column("i_id", "int", nullable=False),
        Column("i_title", "str"),
        Column("i_subject", "str"),
        Column("i_stock", "int"),
    ],
    primary_key=("i_id",),
    indexes=[IndexDef("ix_subject", ("i_subject", "i_id"))],
)

SUBJECTS = ["ARTS", "HISTORY", "SCIENCE", "SPORTS"]


def make_pair(rows=2000):
    master = MasterReplica("m0")
    slave = SlaveReplica("s0")
    data = [
        {"i_id": i, "i_title": f"b{i:06d}", "i_subject": SUBJECTS[i % 4], "i_stock": 10}
        for i in range(rows)
    ]
    for node in (master.engine, slave.engine):
        node.create_table(ITEM)
    bulk_load_replicas((master.engine, slave.engine), "item", data)
    return master, slave


def test_bench_master_update_txn(benchmark):
    """One single-row update transaction on the master, end to end."""
    master, slave = make_pair()
    sql = SqlExecutor(master.engine)
    counter = iter(range(10**9))

    def run():
        i = next(counter) % 2000
        txn = master.begin_update()
        sql.execute(txn, "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ?", (i,))
        ws = master.pre_commit(txn)
        slave.receive(ws)
        master.finalize(txn)

    benchmark(run)


def test_bench_slave_snapshot_read(benchmark):
    """Tagged read on a slave with pending ops to materialise."""
    master, slave = make_pair()
    msql = SqlExecutor(master.engine)
    ssql = SqlExecutor(slave.engine)
    counter = iter(range(10**9))

    def run():
        i = next(counter) % 2000
        txn = master.begin_update()
        msql.execute(txn, "UPDATE item SET i_stock = 5 WHERE i_id = ?", (i,))
        ws = master.pre_commit(txn)
        slave.receive(ws)
        master.finalize(txn)
        ro = slave.begin_read_only(master.current_versions())
        ssql.execute(ro, "SELECT i_stock FROM item WHERE i_id = ?", (i,))
        slave.engine.commit(ro)

    benchmark(run)


def test_bench_sql_index_join(benchmark):
    """A 50-row index range + projection (the SearchResults shape)."""
    engine = HeapEngine()
    engine.create_table(ITEM)
    engine.bulk_load(
        "item",
        [
            {"i_id": i, "i_title": f"b{i:06d}", "i_subject": SUBJECTS[i % 4], "i_stock": 10}
            for i in range(4000)
        ],
    )
    sql = SqlExecutor(engine)

    def run():
        txn = engine.begin(TxnMode.READ_ONLY)
        rs = sql.execute(
            txn,
            "SELECT i_id, i_title FROM item WHERE i_subject = 'ARTS' "
            "ORDER BY i_id LIMIT 50",
        )
        engine.commit(txn)
        return rs

    result = benchmark(run)
    assert len(result.rows) == 50


def test_bench_rbtree_insert_delete(benchmark):
    """RB-tree churn: the master's index rebalancing cost."""
    def run():
        tree = RedBlackTree()
        for i in range(500):
            tree.insert((i * 7919) % 1000, i)
        for i in range(0, 500, 2):
            tree.delete((i * 7919) % 1000)
        return len(tree)

    benchmark(run)


def test_bench_fuzzy_checkpoint(benchmark):
    """Full fuzzy checkpoint of a 2000-row database."""
    master, _ = make_pair()
    stable = StableStore()
    ckpt = FuzzyCheckpointer(master.engine.store, stable)

    def run():
        master.engine.store.get(next(iter(master.engine.store.version_map()))).version += 1
        return ckpt.full_checkpoint(lambda page: False)

    benchmark(run)


def test_bench_page_migration(benchmark):
    """Version-aware page transfer between two slaves."""
    master, support = make_pair()
    sql = SqlExecutor(master.engine)
    for i in range(200):
        txn = master.begin_update()
        sql.execute(txn, "UPDATE item SET i_stock = ? WHERE i_id = ?", (i, i * 7 % 2000))
        ws = master.pre_commit(txn)
        support.receive(ws)
        master.finalize(txn)

    def run():
        joiner = SlaveReplica("joiner")
        joiner.engine.create_table(ITEM)
        joiner.engine.bulk_load(
            "item",
            [
                {"i_id": i, "i_title": f"b{i:06d}", "i_subject": SUBJECTS[i % 4], "i_stock": 10}
                for i in range(2000)
            ],
        )
        joiner.catching_up = True
        return integrate_stale_node(joiner, support)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.pages_sent > 0


def test_bench_writeset_discard(benchmark):
    """Master-failure cleanup: discarding unconfirmed write-sets."""
    master, slave = make_pair()
    sql = SqlExecutor(master.engine)

    def setup():
        for i in range(50):
            txn = master.begin_update()
            sql.execute(txn, "UPDATE item SET i_stock = 1 WHERE i_id = ?", (i,))
            ws = master.pre_commit(txn)
            slave.receive(ws)
            master.finalize(txn)
        return (VersionVector(),), {}

    def run(confirmed):
        return slave.discard_above(confirmed)

    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)


# -- write-set fast path -----------------------------------------------------


def _time_best(fn, repeats=5):
    """Best-of-N wall-clock timing (seconds) for one call of ``fn``."""
    import time

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_delta_encode_decode_vs_full_image(benchmark, figure_report):
    """Delta UPDATE round-trip (encode + size + apply) vs full-image ops."""
    from repro.common.ids import PageId
    from repro.storage.ops import OpKind, PageOp, apply_op, delta_update_op, encoded_size
    from repro.storage.page import Page

    wide = tuple([7, "title-string-with-some-padding", "ARTS"] + list(range(9)))
    after = wide[:3] + (999,) + wide[4:]
    index_positions = ((2, 0),)
    n = 500

    def full_roundtrip():
        page = Page(PageId("t", 0), 4)
        page.put(1, wide)
        total = 0
        for _ in range(n):
            op = PageOp(PageId("t", 0), OpKind.UPDATE, 1, after, wide)
            total += encoded_size(op)
            apply_op(page, op)
        return total

    def delta_roundtrip():
        page = Page(PageId("t", 0), 4)
        page.put(1, wide)
        total = 0
        for _ in range(n):
            op = delta_update_op(PageId("t", 0), 1, wide, after, index_positions)
            total += encoded_size(op)
            apply_op(page, op)
        return total

    full_bytes = full_roundtrip() / n
    delta_bytes = delta_roundtrip() / n
    t_full = _time_best(full_roundtrip) / n
    t_delta = _time_best(delta_roundtrip) / n
    benchmark.pedantic(delta_roundtrip, rounds=3, iterations=1)

    assert delta_bytes < full_bytes / 2  # single-column change on a 12-col row
    figure_report(
        "micro_delta_encoding",
        "delta-encoded UPDATE vs full-image (12-col row, 1 changed col)\n"
        f"  wire bytes/op : full {full_bytes:7.1f}   delta {delta_bytes:7.1f}"
        f"   ({1 - delta_bytes / full_bytes:.0%} smaller)\n"
        f"  encode+apply  : full {t_full * 1e6:7.2f}us delta {t_delta * 1e6:7.2f}us",
    )


def test_bench_deep_queue_materialise_coalesced_vs_sequential(benchmark, figure_report):
    """Materialising a deep pending queue: coalesced vs one-op-at-a-time."""
    from collections import deque

    from repro.common.ids import PageId
    from repro.storage.ops import apply_op, delta_update_op
    from repro.storage.page import Page

    page_id = PageId("t", 0)
    capacity = 8
    depth = 4000
    base = Page(page_id, capacity)
    wide = tuple([0, "title-string-with-some-padding", "ARTS"] + list(range(9)))
    for slot in range(capacity):
        base.put(slot, (slot,) + wide[1:])

    queue = []
    shadow = {slot: base.get(slot) for slot in range(capacity)}
    for v in range(1, depth + 1):
        slot = v % capacity
        before = shadow[slot]
        after = before[:3] + (v,) + before[4:]
        queue.append((v, delta_update_op(page_id, slot, before, after, ((2, 0),))))
        shadow[slot] = after

    def sequential():
        page = base.snapshot()
        for version, op in queue:
            apply_op(page, op)
            page.version = max(page.version, version)
        return page

    def coalesced():
        page = base.snapshot()
        slave = SlaveReplica("bench")
        slave.pending_ops = len(queue)  # as if the queue had been received
        plan, top, popped = slave._coalesce(deque(queue), None)
        slave._apply_plan(page, plan, top, popped)
        return page

    assert coalesced().slots == sequential().slots
    t_seq = _time_best(sequential)
    t_coal = _time_best(coalesced)
    benchmark.pedantic(coalesced, rounds=3, iterations=1)

    assert t_coal < t_seq  # the coalesced path must win on a deep queue
    figure_report(
        "micro_coalesced_materialise",
        f"deep-queue materialisation ({depth} pending ops, {capacity} slots)\n"
        f"  sequential apply : {t_seq * 1e3:8.2f} ms\n"
        f"  coalesced apply  : {t_coal * 1e3:8.2f} ms   ({t_seq / t_coal:.1f}x faster)",
    )


def test_bench_receive_fan_in(benchmark, figure_report):
    """One write-set stream into 1 vs 8 slaves: buffered ops/s per slave.

    The master derives each op's index delta once; a slave's receive is a
    queue append plus a loop over that shared tuple, so what eight slaves
    cost is eight times the loop, not eight times the key derivation.
    """
    master = MasterReplica("m0")
    template = HeapEngine()
    for engine in (master.engine, template):
        engine.create_table(ITEM)
    rows = [
        {"i_id": i, "i_title": f"b{i:06d}", "i_subject": SUBJECTS[i % 4], "i_stock": 10}
        for i in range(2000)
    ]
    bulk_load_replicas((master.engine, template), "item", rows)
    sql = SqlExecutor(master.engine)
    write_sets = []
    for i in range(300):
        txn = master.begin_update()
        sql.execute(txn, "UPDATE item SET i_subject = 'MOVED' WHERE i_id = ?", (i,))
        sql.execute(txn, "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ?", (i + 300,))
        sql.execute(txn, "DELETE FROM item WHERE i_id = ?", (i + 600,))
        sql.execute(
            txn, "INSERT INTO item (i_id, i_title, i_subject, i_stock) VALUES (?, 'new', 'ARTS', 1)",
            (5000 + i,),
        )
        write_sets.append(master.pre_commit(txn))
        master.finalize(txn)
    ops = sum(len(ws.ops) for ws in write_sets)

    def fresh_slaves(count):
        slaves = [SlaveReplica(f"s{i}") for i in range(count)]
        for slave in slaves:
            slave.engine.create_table(ITEM).copy_from(template.table("item"))
        return slaves

    def fan_in(slaves):
        for ws in write_sets:
            for slave in slaves:
                slave.receive(ws)
        return slaves

    def best_seconds(count, repeats=3):
        import time

        best = float("inf")
        for _ in range(repeats):
            slaves = fresh_slaves(count)  # a receive is not repeatable: dedup
            t0 = time.perf_counter()
            fan_in(slaves)
            best = min(best, time.perf_counter() - t0)
            assert all(slave.pending_ops == ops for slave in slaves)
        return best

    one, eight = best_seconds(1), best_seconds(8)
    benchmark.pedantic(fan_in, setup=lambda: ((fresh_slaves(8),), {}), rounds=3, iterations=1)
    figure_report(
        "micro_receive_fan_in",
        f"receive fan-in: {len(write_sets)} write-sets, {ops} ops, index deltas derived once\n"
        f"  1 slave  : {ops / one:10.0f} ops/s per slave\n"
        f"  8 slaves : {ops / (eight / 8):10.0f} ops/s per slave",
    )


def test_bench_batched_vs_unbatched_broadcast(figure_report):
    """Simulated network time for bursty broadcast: batched vs per-message."""
    from repro.cluster.channel import NET_ACK_BYTES
    from repro.cluster.costs import CostConfig

    master, slave = make_pair(rows=200)
    sql = SqlExecutor(master.engine)
    write_sets = []
    for i in range(200):
        txn = master.begin_update()
        sql.execute(txn, "UPDATE item SET i_stock = ? WHERE i_id = ?", (i, i))
        ws = master.pre_commit(txn)
        slave.receive(ws)
        master.finalize(txn)
        write_sets.append(ws)

    cfg = CostConfig()
    burst = 10  # concurrent pre-commits per group-commit window
    unbatched = sum(
        cfg.net_delay(ws.byte_size()) + cfg.net_delay(NET_ACK_BYTES)
        for ws in write_sets
    )
    batched = 0.0
    for i in range(0, len(write_sets), burst):
        group = write_sets[i : i + burst]
        payload = sum(ws.byte_size() for ws in group)
        batched += cfg.batch_delay(payload, len(group)) + cfg.net_delay(NET_ACK_BYTES)

    assert batched < unbatched
    figure_report(
        "micro_broadcast_batching",
        f"broadcast of {len(write_sets)} write-sets (bursts of {burst}), simulated net time\n"
        f"  per-message : {unbatched * 1e3:8.3f} ms\n"
        f"  batched     : {batched * 1e3:8.3f} ms   ({1 - batched / unbatched:.0%} less)",
    )


def test_bench_tracing_disabled_overhead(figure_report):
    """Disabled tracing must cost <=5 % of a seeded cluster run.

    The bound is computed, not guessed from noisy timer deltas: an enabled
    run counts how many spans the workload would emit, a tight loop prices
    one disabled-path hook (disabled ``tracer.span`` plus a null-span
    child/annotate/finish chain — strictly more work than any real call
    site does when tracing is off), and their product is the worst-case
    instrumentation cost, which must stay under 5 % of the untraced
    wall-clock time.
    """
    import time

    from conftest import quick_mode

    from repro.cluster.simcluster import SimDmvCluster
    from repro.obs import NULL_TRACER
    from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale

    scale = TpcwScale(num_items=60, num_customers=200)
    horizon = 12.0 if quick_mode() else 25.0

    def seeded_run(trace):
        cluster = SimDmvCluster(TPCW_SCHEMAS, num_slaves=2, seed=3, trace=trace)
        cluster.load(TpcwDataGenerator(scale, seed=3))
        cluster.warm_all_caches()
        cluster.start_browsers(6, MIXES["ordering"], scale, think_time_mean=0.2)
        cluster.sim.schedule(horizon - 4.0, cluster.stop_browsers)
        cluster.run(until=horizon)
        return cluster

    t_off = _time_best(lambda: seeded_run(False), repeats=3)
    traced = seeded_run(True)
    spans = traced.tracer.finished_count + len(traced.tracer.open_spans())
    assert spans > 0

    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        s = NULL_TRACER.span("execute", node="m0", attempt=1)
        s.child("apply", page="p").annotate(popped=1).finish(status="ok")
    per_hook = (time.perf_counter() - t0) / n

    worst_case = spans * per_hook
    overhead = worst_case / t_off
    assert overhead <= 0.05, (
        f"disabled-path instrumentation bound {overhead:.2%} exceeds 5% "
        f"({spans} spans x {per_hook * 1e9:.0f}ns vs {t_off:.3f}s run)"
    )
    figure_report(
        "micro_tracing_overhead",
        f"tracing off: {horizon:.0f}s simulated run in {t_off:.3f}s wall\n"
        f"  spans a traced run emits : {spans}\n"
        f"  disabled hook cost       : {per_hook * 1e9:7.0f} ns\n"
        f"  worst-case overhead      : {overhead:.3%} (budget 5%)",
    )


# -- engine hot path ---------------------------------------------------------


def test_bench_kernel_event_dispatch(benchmark, figure_report):
    """Raw event-kernel dispatch rate, and the zero-delay fast-path share.

    A ping-pong process pair exchanging zero-delay events is the worst
    case for the scheduler: every resume is immediate, so the fast path
    (bypassing the heap for delay-0 wakeups of the next runnable) should
    carry nearly all of the traffic.
    """
    from repro.sim.kernel import Simulator, Timeout

    n = 5_000

    def run():
        sim = Simulator()

        def ping():
            for _ in range(n):
                yield Timeout(sim, 0.0)

        sim.spawn(ping())
        sim.run()
        return sim

    sim = benchmark(run)
    assert sim.fast_resumes > 0
    events = n
    fast_share = min(sim.fast_resumes / events, 1.0)
    assert fast_share >= 0.9  # the zero-delay loop must ride the fast path
    figure_report(
        "micro_kernel_dispatch",
        f"event kernel: {events} zero-delay resumes per run\n"
        f"  fast-path resumes : {sim.fast_resumes} ({fast_share:.0%} of dispatches)",
    )


def test_bench_page_slot_read_throughput(benchmark, figure_report):
    """Tight page-slot fetch loop: the cost of one ``Page.get``.

    The ``__slots__``/array-backed page layout pays off here — this is the
    innermost loop of every scan and index probe.
    """
    import time

    from repro.common.ids import PageId
    from repro.storage.page import Page

    capacity = 64
    page = Page(PageId("t", 0), capacity)
    for slot in range(capacity):
        page.put(slot, (slot, f"b{slot:06d}", "ARTS", 10))
    n = 50_000

    def run():
        get = page.get
        total = 0
        for i in range(n):
            row = get(i & 63)
            total += row[0]
        return total

    benchmark(run)
    t0 = time.perf_counter()
    run()
    per_read = (time.perf_counter() - t0) / n
    figure_report(
        "micro_page_slot_reads",
        f"page-slot reads ({capacity}-slot page, {n} fetches)\n"
        f"  per read : {per_read * 1e9:7.0f} ns "
        f"({1 / per_read / 1e6:.2f} M reads/s)",
    )


def test_bench_plan_cache_hit_rate(benchmark, figure_report):
    """Repeated statement execution must hit the per-executor plan cache.

    The workload shape mirrors a TPC-W browser: a handful of distinct
    statement texts executed thousands of times with different bind
    parameters.  Everything after the first compile of each text must be
    a cache hit.
    """
    engine = HeapEngine()
    engine.create_table(ITEM)
    engine.bulk_load(
        "item",
        [
            {"i_id": i, "i_title": f"b{i:06d}", "i_subject": SUBJECTS[i % 4], "i_stock": 10}
            for i in range(200)
        ],
    )

    statements = [
        "SELECT i_stock FROM item WHERE i_id = ?",
        "SELECT i_id, i_title FROM item WHERE i_subject = 'ARTS' ORDER BY i_id LIMIT 20",
        "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ?",
    ]
    rounds = 400

    def run():
        sql = SqlExecutor(engine)
        for i in range(rounds):
            txn = engine.begin()
            sql.execute(txn, statements[0], (i % 200,))
            sql.execute(txn, statements[1])
            sql.execute(txn, statements[2], (i % 200,))
            engine.commit(txn)
        return sql

    sql = benchmark(run)
    executions = rounds * len(statements)
    hit_rate = sql.plan_cache_hits / executions
    assert sql.plan_cache_misses == len(statements)  # one compile per text
    assert hit_rate >= 0.99
    figure_report(
        "micro_plan_cache",
        f"plan cache: {executions} executions over {len(statements)} statement texts\n"
        f"  hits {sql.plan_cache_hits}  misses {sql.plan_cache_misses} "
        f"(hit rate {hit_rate:.1%})",
    )


def test_ordering_mix_delta_savings(figure_report):
    """TPC-W ordering mix must ship >=30% fewer write-set bytes via deltas."""
    from conftest import audit, quick_mode

    from repro.bench.harness import THROUGHPUT, bench_cluster, measured, steady_wips
    from repro.chaos import run_plan

    duration = 14.0 if quick_mode() else 20.0
    plan = measured(
        THROUGHPUT, duration, mix="ordering", browsers=100, cluster=bench_cluster(num_slaves=4)
    )
    report = run_plan(plan)
    audit(report)
    window = report.window
    rep = window.counters
    shipped = rep.get("net.bytes_shipped", 0.0)
    saved = rep.get("net.bytes_saved_delta", 0.0)
    savings = saved / (shipped + saved) if shipped + saved else 0.0

    assert savings >= 0.30
    per_batch = rep.get("net.write_sets_sent", 0.0) / max(rep.get("net.batches", 1.0), 1.0)
    figure_report(
        "micro_delta_savings_ordering",
        f"ordering mix, 4 slaves, 100 clients, {duration:.0f}s simulated\n"
        f"  wips {steady_wips(window):.1f}  abort rate {window.metrics.abort_rate():.2%}\n"
        f"  bytes shipped {shipped:,.0f}"
        f"  saved by deltas {saved:,.0f}"
        f"  ({savings:.1%})\n"
        f"  write-sets/batch {per_batch:.2f}  ops coalesced"
        f" {rep.get('slave.ops_coalesced', 0.0):,.0f}",
    )
