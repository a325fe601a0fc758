"""Layer probes: direct calls into each layer's public functions.

Each probe builds a fixed, seeded input outside the timed region, performs
a fixed number of operations (so per-probe call counts repeat exactly),
checks the result (so a probe cannot get faster by doing less) and reports
operations per CPU second.  Layers are named after ``src/repro/`` packages.
A probe times one layer's entry points *including* what they call below.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from repro.bench.calibration import BENCH_ROWS_PER_PAGE, BENCH_SCALE
from repro.cluster.sync import datagen_tables
from repro.common.ids import PageId
from repro.common.rng import RngStream
from repro.core.master import MasterReplica
from repro.core.slave import SlaveReplica
from repro.engine.engine import HeapEngine, make_update_controller
from repro.engine.txn import TxnMode
from repro.failover.reintegration import integrate_stale_node
from repro.obs import Tracer
from repro.scheduler.versionaware import VersionAwareScheduler
from repro.sim.kernel import Simulator
from repro.sql.executor import SqlExecutor
from repro.sql.parser import parse_statement
from repro.storage.checkpoint import FuzzyCheckpointer, StableStore
from repro.storage.ops import OpKind, PageOp, apply_ops, delta_update_op
from repro.storage.page import Page
from repro.tpcw import interactions, tpcw_conflict_map
from repro.tpcw.datagen import TpcwDataGenerator
from repro.tpcw.schema import TPCW_SCHEMAS
from repro.traffic.arrivals import ConstantRate, iter_arrivals

from workloads import DATASET_SEED


class ProbeFailure(AssertionError):
    """A probe's result check failed."""


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise ProbeFailure(what)


def _rate(count: int, body: Callable[[], None]) -> float:
    """``count`` operations per CPU second of ``body()``."""
    start = time.process_time()
    body()
    return count / (time.process_time() - start)


def _new_engine(update_controller: bool = False) -> HeapEngine:
    engine = HeapEngine(
        controller=make_update_controller("occ") if update_controller else None,
        rows_per_page=BENCH_ROWS_PER_PAGE,
    )
    for schema in TPCW_SCHEMAS:
        engine.create_table(schema)
    return engine


# -- sim ---------------------------------------------------------------------------
def probe_sim(scale: float) -> Dict[str, float]:
    processes, steps = 200, max(1, int(1500 * scale))
    sim = Simulator()

    def worker(index: int):
        for step in range(steps):
            # Alternate heap-scheduled delays with zero-delay hand-offs, the
            # two dispatch paths every cluster run mixes.
            yield sim.timeout(0.0 if step % 2 else 0.001 * (1 + (index + step) % 7))

    spawned = [sim.spawn(worker(i), name=f"w{i}") for i in range(processes)]
    start = time.process_time()
    sim.run()
    cpu = time.process_time() - start
    _check(all(p.triggered and p.ok for p in spawned), "sim: a process did not finish")
    heap_events = processes * ((steps + 1) // 2)
    events = sim.fast_resumes + heap_events
    return {
        "sim.events_per_s": events / cpu,
        "sim.fast_resume_share": sim.fast_resumes / events,
    }


# -- storage -------------------------------------------------------------------------
def probe_storage_slots(scale: float) -> Dict[str, float]:
    count = max(1, int(3_600_000 * scale))
    page = Page(PageId("probe", 0), capacity=64)
    rows = [(i, f"row{i}", float(i)) for i in range(64)]

    def body() -> None:
        for i in range(count):
            slot = i & 63
            page.put(slot, rows[slot])
            if page.get(slot) is not rows[slot]:
                raise ProbeFailure("storage: slot read back another row")

    rate = _rate(2 * count, body)
    _check(page.stamp == count and page.live_rows == min(count, 64), "storage: slot bookkeeping")
    return {"storage.slot_ops_per_s": rate}


def probe_storage_apply(scale: float) -> Dict[str, float]:
    rounds = max(1, int(5500 * scale))
    page_id = PageId("probe", 0)
    base = tuple([0, "title", 1.5, 10, "x" * 20])
    ops: List[PageOp] = []
    for slot in range(32):
        ops.append(PageOp(page_id, OpKind.INSERT, slot, row=base))
        after = base[:3] + (11,) + base[4:]
        ops.append(delta_update_op(page_id, slot, base, after))
        ops.append(PageOp(page_id, OpKind.UPDATE, slot, row=after, before=base))
        ops.append(PageOp(page_id, OpKind.DELETE, slot, before=after))
    pages = [Page(page_id, capacity=32) for _ in range(rounds)]
    applied = 0

    def body() -> None:
        nonlocal applied
        for page in pages:
            applied += apply_ops(page, ops)

    rate = _rate(rounds * len(ops), body)
    _check(applied == rounds * len(ops), "storage: apply_ops count")
    _check(all(p.live_rows == 0 and p.stamp == len(ops) for p in pages), "storage: final image")
    return {"storage.apply_ops_per_s": rate}


def probe_storage_checkpoint(scale: float, engine: HeapEngine) -> Dict[str, float]:
    rounds = max(1, int(6 * scale))
    pages = engine.store.page_count()
    flushed = 0

    def body() -> None:
        nonlocal flushed
        for _ in range(rounds):
            stable = StableStore()
            flushed += FuzzyCheckpointer(engine.store, stable).full_checkpoint(
                engine.page_is_dirty
            )
            if len(stable) != pages:
                raise ProbeFailure("storage: checkpoint missed pages")

    rate = _rate(rounds * pages, body)
    _check(flushed == rounds * pages, "storage: checkpoint flushed count")
    return {"storage.checkpoint_pages_per_s": rate}


# -- tpcw + engine ---------------------------------------------------------------------
def probe_datagen(scale: float) -> tuple:
    rounds = max(1, int(3 * scale))
    tables = []
    start = time.process_time()
    for _ in range(rounds):
        tables = [
            (name, list(rows))
            for name, rows in datagen_tables(TpcwDataGenerator(BENCH_SCALE, DATASET_SEED))
        ]
    cpu = time.process_time() - start
    by_name = dict(tables)
    total = sum(len(rows) for rows in by_name.values())
    _check(len(by_name["item"]) == BENCH_SCALE.num_items, "tpcw: item count")
    _check(len(by_name["customer"]) == BENCH_SCALE.num_customers, "tpcw: customer count")
    return {"tpcw.datagen_rows_per_s": rounds * total / cpu}, tables


def probe_bulk_load(scale: float, tables) -> tuple:
    """Loads three replicas' worth; they become the fixtures of later probes."""
    total = sum(len(rows) for _name, rows in tables)
    engines = [_new_engine(update_controller=True), _new_engine(), _new_engine()]

    def body() -> None:
        for engine in engines:
            for name, rows in tables:
                engine.bulk_load(name, rows)

    rate = _rate(len(engines) * total, body)
    for engine in engines:
        _check(sum(engine.row_counts().values()) == total, "engine: bulk-loaded row count")
    return {"engine.bulk_load_rows_per_s": rate}, engines


def probe_engine_reads(scale: float, engine: HeapEngine) -> Dict[str, float]:
    rounds = max(1, int(500 * scale))
    item = engine.table("item")
    keys = [(i,) for i in range(1, BENCH_SCALE.num_items + 1)]
    txn = engine.begin(TxnMode.READ_ONLY)

    def pk_body() -> None:
        for _ in range(rounds):
            for key in keys:
                row = item.fetch(txn, item.pk_lookup(txn, key)[0])
                if row[0] != key[0]:
                    raise ProbeFailure("engine: pk read returned another row")

    pk_rate = _rate(rounds * len(keys), pk_body)

    range_rounds = max(1, int(720 * scale))
    seen = 0

    def range_body() -> None:
        nonlocal seen
        for _ in range(range_rounds):
            for loc in item.index_range(txn, "ix_item_title", None, None):
                if item.fetch(txn, loc) is not None:
                    seen += 1

    range_rate = _rate(range_rounds * len(keys), range_body)
    engine.commit(txn)
    _check(seen == range_rounds * len(keys), "engine: index range row count")
    return {"engine.pk_reads_per_s": pk_rate, "engine.index_range_rows_per_s": range_rate}


def probe_engine_updates(scale: float, engine: HeapEngine) -> Dict[str, float]:
    count = max(1, int(12_000 * scale))
    item = engine.table("item")
    position = item.schema.position("i_stock")
    items = BENCH_SCALE.num_items

    def body() -> None:
        for i in range(count):
            txn = engine.begin(TxnMode.UPDATE, write_intent=("item",))
            loc = item.pk_lookup(txn, (1 + i % items,))[0]
            item.update_row(txn, loc, {"i_stock": i})
            engine.prepare_commit(txn)
            engine.versions.increment(txn.tables_written)
            engine.stamp_commit(txn, {"item": engine.versions.get("item")})
            engine.finish_commit(txn)

    base_version = engine.versions.get("item")
    rate = _rate(count, body)
    txn = engine.begin(TxnMode.READ_ONLY)
    last = count - 1
    row = item.fetch(txn, item.pk_lookup(txn, (1 + last % items,))[0])
    engine.commit(txn)
    _check(row[position] == last, "engine: last update not visible")
    _check(engine.versions.get("item") == base_version + count, "engine: commit versions")
    return {"engine.update_txns_per_s": rate}


# -- sql -----------------------------------------------------------------------------
_STATEMENTS = [
    value
    for name, value in sorted(vars(interactions).items())
    if name.isupper() and isinstance(value, str) and value.split(" ", 1)[0] in
    ("SELECT", "UPDATE", "INSERT", "DELETE")
]


def probe_sql(scale: float, engine: HeapEngine) -> Dict[str, float]:
    parse_rounds = max(1, int(180 * scale))
    parsed = 0

    def parse_body() -> None:
        nonlocal parsed
        for _ in range(parse_rounds):
            for sql in _STATEMENTS:
                parsed += parse_statement(sql) is not None

    parse_rate = _rate(parse_rounds * len(_STATEMENTS), parse_body)
    _check(parsed == parse_rounds * len(_STATEMENTS), "sql: parse count")
    _check(len(_STATEMENTS) >= 30, "sql: statement set shrank")

    executor = SqlExecutor(engine)
    customers, items = BENCH_SCALE.num_customers, BENCH_SCALE.num_items
    txn = engine.begin(TxnMode.READ_ONLY)
    # One untimed pass per statement compiles its plan: the probes measure
    # execution with the plan cache hot.
    executor.execute(txn, interactions.GET_NAME, (1,))
    subjects = sorted({row[0] for row in executor.execute(txn, "SELECT i_subject FROM item").rows})
    expected_rows = sum(
        len(executor.execute(txn, interactions.NEW_PRODUCTS, (s,))) for s in subjects
    )

    point_count = max(1, int(60_000 * scale))

    def point_body() -> None:
        for i in range(point_count):
            if len(executor.execute(txn, interactions.GET_NAME, (1 + i % customers,))) != 1:
                raise ProbeFailure("sql: point select row count")

    point_rate = _rate(point_count, point_body)

    join_rounds = max(1, int(100 * scale))
    joined = 0

    def join_body() -> None:
        nonlocal joined
        for _ in range(join_rounds):
            for subject in subjects:
                joined += len(executor.execute(txn, interactions.NEW_PRODUCTS, (subject,)))

    join_rate = _rate(join_rounds * len(subjects), join_body)
    engine.commit(txn)
    _check(joined == join_rounds * expected_rows and expected_rows > 0, "sql: join row count")

    update_count = max(1, int(10_000 * scale))
    warm = engine.begin(TxnMode.UPDATE, write_intent=("item",))
    executor.execute(warm, interactions.UPDATE_STOCK, (0, 1))
    engine.commit(warm)

    def update_body() -> None:
        for i in range(update_count):
            update = engine.begin(TxnMode.UPDATE, write_intent=("item",))
            result = executor.execute(update, interactions.UPDATE_STOCK, (1, 1 + i % items))
            if result.rowcount != 1:
                raise ProbeFailure("sql: update row count")
            engine.commit(update)

    update_rate = _rate(update_count, update_body)
    _check(executor.plan_cache_misses == 4, "sql: plan cache was not hot")
    return {
        "sql.parse_per_s": parse_rate,
        "sql.exec_point_per_s": point_rate,
        "sql.exec_join_per_s": join_rate,
        "sql.exec_update_per_s": update_rate,
    }


# -- core ----------------------------------------------------------------------------
def probe_core(scale: float, master_engine: HeapEngine, slave_engine: HeapEngine) -> Dict[str, float]:
    """Master pre-commit -> slave receive -> lazy materialisation of deep queues.

    ``depth`` rounds of one-row update transactions over ``width`` hot items:
    every write-set the master produces is received by the slave, leaving
    ``depth`` pending ops on each hot page, which one snapshot read per page
    then materialises.  The slave's rows must end equal to the master's.
    """
    width, depth = 100, max(1, int(480 * scale))
    master = MasterReplica("m0", engine=master_engine)
    slave = SlaveReplica("s0", engine=slave_engine)
    item = master_engine.table("item")
    base_version = master_engine.versions.get("item")
    write_sets = []
    precommit_cpu = 0.0
    for round_no in range(depth):
        # Open one transaction per hot item (distinct pages, no lock
        # conflicts), then time only the pre-commit + finalize of each.
        open_txns = []
        for i in range(width):
            txn = master.begin_update(("item",))
            loc = item.pk_lookup(txn, (1 + i,))[0]
            item.update_row(txn, loc, {"i_stock": round_no * width + i})
            open_txns.append(txn)
        start = time.process_time()
        for txn in open_txns:
            write_sets.append(master.pre_commit(txn))
            master.finalize(txn)
        precommit_cpu += time.process_time() - start
    total = width * depth
    _check(all(len(ws) == 1 for ws in write_sets), "core: write-set op count")
    _check(
        master_engine.versions.get("item") == base_version + total, "core: version increments"
    )

    def receive_body() -> None:
        for write_set in write_sets:
            slave.receive(write_set)

    receive_rate = _rate(total, receive_body)
    _check(slave.pending_ops == total, "core: ops buffered on the slave")
    queued = [op for queue in slave.pending.values() for _v, op in queue]
    _check(
        sorted(map(id, queued)) == sorted(id(ws.ops[0]) for ws in write_sets),
        "core: buffered ops differ from the write-sets' ops",
    )

    slave_item = slave_engine.table("item")
    reader = slave.begin_read_only(slave.received_versions.copy())
    rows = []

    def materialize_body() -> None:
        for i in range(width):
            rows.append(slave_item.fetch(reader, slave_item.pk_lookup(reader, (1 + i,))[0]))

    materialize_rate = _rate(total, materialize_body)
    slave_engine.commit(reader)
    check = master.begin_read_only()
    expected = [item.fetch(check, item.pk_lookup(check, (1 + i,))[0]) for i in range(width)]
    master_engine.commit(check)
    _check(rows == expected, "core: slave rows differ from the master's")
    _check(slave.pending_ops == 0, "core: ops left pending after the snapshot reads")
    return {
        "core.precommit_per_s": total / precommit_cpu,
        "core.receive_ops_per_s": receive_rate,
        "core.materialize_ops_per_s": materialize_rate,
    }


# -- scheduler ------------------------------------------------------------------------
def probe_scheduler(scale: float) -> Dict[str, float]:
    count = max(1, int(50_000 * scale))
    conflict_map = tpcw_conflict_map()
    conflict_map.assign_masters(["m0"])
    scheduler = VersionAwareScheduler(
        "sched0", conflict_map, rng=RngStream(0, "probe", "scheduler")
    )
    slave_ids = [f"s{i}" for i in range(8)]
    for node_id in slave_ids:
        scheduler.add_slave(node_id)
    served = dict.fromkeys(slave_ids, 0)
    tables = ["item", "author"]

    def read_body() -> None:
        for i in range(count):
            routed = scheduler.route_read(tables)
            served[routed.node_id] += 1
            if i % 3:  # leave some reads outstanding so load balancing has work
                scheduler.note_read_done(routed.node_id)
            if i % 64 == 0:
                scheduler.on_master_commit("m0", {"item": i})

    read_rate = _rate(count, read_body)
    _check(sum(served.values()) == count and min(served.values()) > 0, "scheduler: read spread")

    masters = set()
    update_count = 12 * count  # route_update is a dozen times cheaper

    def update_body() -> None:
        for _ in range(update_count):
            masters.add(scheduler.route_update(("orders", "order_line", "item")))

    update_rate = _rate(update_count, update_body)
    _check(masters == {"m0"}, "scheduler: update not routed to the master")
    return {
        "scheduler.route_reads_per_s": read_rate,
        "scheduler.route_updates_per_s": update_rate,
    }


# -- failover -------------------------------------------------------------------------
def probe_failover(scale: float, support_engine: HeapEngine) -> Dict[str, float]:
    """An empty joiner pulls every page of a loaded support slave."""
    rounds = max(1, int(2 * scale))
    support = SlaveReplica("s0", engine=support_engine)
    pages = support_engine.store.page_count()
    sent = 0
    cpu = 0.0
    for _ in range(rounds):
        joiner = SlaveReplica("s9", engine=_new_engine())
        joiner.catching_up = True
        start = time.process_time()
        stats = integrate_stale_node(joiner, support, wanted={})
        cpu += time.process_time() - start
        sent += stats.pages_sent
        _check(
            joiner.engine.row_counts() == support_engine.row_counts(),
            "failover: joiner rows differ from the support slave's",
        )
    _check(sent == rounds * pages, "failover: pages migrated")
    return {"failover.migrate_pages_per_s": sent / cpu}


# -- traffic / obs ---------------------------------------------------------------------
def probe_traffic(scale: float) -> Dict[str, float]:
    until = 36_000.0 * scale
    rate = 40.0
    count = 0
    in_order = True
    previous = -1.0
    start = time.process_time()
    for at in iter_arrivals(
        "poisson", RngStream(0, "probe", "traffic"), ConstantRate(rate), until
    ):
        in_order &= previous < at < until
        previous = at
        count += 1
    cpu = time.process_time() - start
    expected = rate * until
    _check(abs(count - expected) < 6 * expected**0.5 + 10, "traffic: arrival count")
    _check(in_order, "traffic: arrivals out of order or past the horizon")
    return {"traffic.arrivals_per_s": count / cpu}


def probe_obs(scale: float) -> Dict[str, float]:
    count = max(1, int(140_000 * scale))
    clock = [0.0]
    tracer = Tracer(now=lambda: clock[0], capacity=1 << 12)

    def body() -> None:
        for i in range(count):
            clock[0] += 0.001
            root = tracer.span("txn", txn_id=i, node="m0")
            child = root.child("execute", verb="SELECT")
            clock[0] += 0.001
            child.finish()
            root.finish(status="ok")

    rate = _rate(2 * count, body)
    _check(tracer.finished_count == 2 * count and not tracer.open_spans(), "obs: span count")
    _check(tracer.stages.get("execute").count == count, "obs: stage histogram count")
    return {"obs.spans_per_s": rate}


def run_probes(scale: float = 1.0) -> Dict[str, float]:
    """All 22 layer probes; ``scale`` shrinks the fixed counts (smoke runs)."""
    out: Dict[str, float] = {}
    out.update(probe_sim(scale))
    out.update(probe_storage_slots(scale))
    out.update(probe_storage_apply(scale))
    datagen, tables = probe_datagen(scale)
    out.update(datagen)
    bulk, (master_engine, slave_engine, support_engine) = probe_bulk_load(scale, tables)
    out.update(bulk)
    out.update(probe_storage_checkpoint(scale, support_engine))
    out.update(probe_engine_reads(scale, support_engine))
    out.update(probe_failover(scale, support_engine))
    out.update(probe_core(scale, master_engine, slave_engine))
    out.update(probe_sql(scale, master_engine))
    out.update(probe_engine_updates(scale, master_engine))
    out.update(probe_scheduler(scale))
    out.update(probe_traffic(scale))
    out.update(probe_obs(scale))
    return out


if __name__ == "__main__":
    for name, value in run_probes().items():
        print(f"{name:36s} {value:14.1f}")
