"""Trace-driven integration tests: assert on spans, not sleeps or counters.

Each test drives the simulated cluster (scripted connections or the chaos
harness), then interrogates the span log through the ``tests/obs`` helpers:
laziness is proven by apply-span start times, retransmission handling by
parent links, abort hygiene by terminal span states — properties that
counter totals cannot express.
"""

from dataclasses import replace

import pytest

from repro.chaos.faults import FaultPlan, LinkFault
from repro.chaos.invariants import check_trace_hygiene
from repro.chaos.plans import PLANS, Plan
from repro.chaos.scenario import run_plan
from repro.cluster.costs import CostConfig
from repro.cluster.clients import SimConnection
from repro.cluster.simcluster import SimDmvCluster
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwDataGenerator, TpcwScale
from tests.obs import (
    assert_all_closed,
    assert_span_order,
    children_of,
    spans_for_txn,
)

SCALE = TpcwScale(num_items=80, num_customers=230)

#: The smallest epoch (sealed by its only member) and a batching one that
#: a lone transaction can only leave through the ``epoch_ms`` timer.
EPOCH_SIZES = pytest.mark.parametrize("epoch_max_txns", [1, 8])


def epoch_cost(epoch_max_txns):
    return replace(CostConfig(), epoch_max_txns=epoch_max_txns, epoch_ms=5.0)


#: A quarter of all frames dropped for the first 40 of 60 s.
LOSSY = Plan(
    name="lossy",
    faults=FaultPlan.fixed(LinkFault(at=0.0, drop_p=0.25, until=40.0)),
    seed=5,
    duration=60.0,
    settle=15.0,
    browsers=8,
)


def build_cluster(**kwargs):
    kwargs.setdefault("num_slaves", 1)
    kwargs.setdefault("trace", True)
    cluster = SimDmvCluster(TPCW_SCHEMAS, **kwargs)
    cluster.load(TpcwDataGenerator(SCALE, seed=11))
    cluster.warm_all_caches()
    return cluster


def scripted_update(cluster, item_id, delay=0.0, amount=1):
    """One update transaction against the item table at ``delay``."""
    conn = SimConnection(cluster)
    if delay:
        yield cluster.sim.timeout(delay)
    yield conn.begin_update(["item"])
    yield conn.query(
        "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?", (amount, item_id)
    )
    yield conn.commit()
    return conn


def scripted_read(cluster, item_id, delay=0.0, sink=None):
    """One tagged read of the item table at ``delay``."""
    conn = SimConnection(cluster)
    if delay:
        yield cluster.sim.timeout(delay)
    yield conn.begin_read(["item"])
    txn_id = conn._txn.txn_id
    yield conn.query("SELECT i_stock FROM item WHERE i_id = ?", (item_id,))
    yield conn.commit()
    if sink is not None:
        sink.append(txn_id)
    return txn_id


class TestLazyApplyTiming:
    @EPOCH_SIZES
    def test_apply_spans_start_after_reader_arrival(self, epoch_max_txns):
        """The write-set is broadcast eagerly at ~t=0, but the slave's apply
        span must start only once the tagged reader shows up at t=10 —
        the lazy half of Dynamic Multiversioning, proven by span timing."""
        cluster = build_cluster(cost_config=epoch_cost(epoch_max_txns))
        cluster.sim.spawn(scripted_update(cluster, 1), name="upd")
        readers = []
        cluster.sim.spawn(
            scripted_read(cluster, 1, delay=10.0, sink=readers), name="rd"
        )
        cluster.run(until=30.0)
        tracer = cluster.tracer
        assert_all_closed(tracer)
        assert readers, "scripted read never completed"
        broadcasts = tracer.spans_named("broadcast")
        applies = tracer.spans_named("apply")
        assert broadcasts and applies
        # Eager propagation: broadcast happens right after the commit...
        assert max(b.end for b in broadcasts) < 10.0
        # ...but materialisation waits for the reader's arrival.
        assert min(a.start for a in applies) >= 10.0
        # The apply belongs to the reader's transaction, nested under the
        # execute span of the statement that touched the page.
        reader_spans = spans_for_txn(tracer, readers[0], node="s0")
        assert any(s.name == "apply" for s in reader_spans)
        execute = next(s for s in reader_spans if s.name == "execute")
        apply_children = [s for s in children_of(tracer, execute) if s.name == "apply"]
        assert apply_children
        assert apply_children[0].tags["popped"] >= 1

    @EPOCH_SIZES
    def test_update_txn_span_order(self, epoch_max_txns):
        """An update commit walks schedule -> execute -> precommit ->
        broadcast -> ack, in that causal order."""
        cluster = build_cluster(cost_config=epoch_cost(epoch_max_txns))
        cluster.sim.spawn(scripted_update(cluster, 2), name="upd")
        cluster.run(until=20.0)
        tracer = cluster.tracer
        assert_all_closed(tracer)
        root = next(
            s for s in tracer.spans_named("txn") if s.tags.get("kind") == "update"
        )
        assert root.tags["status"] == "committed"
        assert root.tags["conflict_class"] >= 0
        matched = assert_span_order(
            tracer, "schedule", "execute", "precommit", "broadcast", "ack",
            txn_id=root.txn_id,
        )
        pre = next(s for s in matched if s.name == "precommit")
        # The precommit span carries the commit version vector + page ids.
        assert pre.tags["versions"].get("item", 0) >= 1
        assert pre.tags["page_count"] >= 1

    def test_read_txn_root_closed_committed(self):
        cluster = build_cluster()
        readers = []
        cluster.sim.spawn(scripted_read(cluster, 3, sink=readers), name="rd")
        cluster.run(until=10.0)
        root = spans_for_txn(cluster.tracer, readers[0], node="s0")[0]
        assert root.name == "txn"
        assert root.tags["status"] == "committed"
        assert root.tags["kind"] == "read"


class TestCpuWait:
    def test_execute_spans_carry_the_cpu_queueing_before_them(self):
        """Eight reads land on one two-core slave at the same instant: the
        first two statements start at once, the rest queue for a core, and
        each ``execute`` span says how long, ending where its span opens."""
        cluster = build_cluster()
        readers = []
        for item_id in range(1, 9):
            cluster.sim.spawn(scripted_read(cluster, item_id, sink=readers), name="rd")
        cluster.run(until=10.0)
        assert len(readers) == 8
        executes = [
            s for s in cluster.tracer.spans_named("execute") if s.tags["node"] == "s0"
        ]
        assert len(executes) == 8
        waits = sorted(s.tags["cpu_wait_ms"] for s in executes)
        cores = cluster.cost.config.cores_per_node
        assert waits[:cores] == [0.0] * cores
        assert all(w > 0 for w in waits[cores:])
        assert waits[-1] > waits[cores]  # queued behind more than one statement
        # The wait ends at the grant, which is where the span opens.
        for span in executes:
            root = spans_for_txn(cluster.tracer, span.txn_id, node="s0")[0]
            queued_at = span.start - span.tags["cpu_wait_ms"] / 1000.0
            assert root.start <= queued_at + 1e-9


class TestRetransmitNesting:
    @EPOCH_SIZES
    def test_retransmit_spans_nest_under_their_broadcast(self, epoch_max_txns):
        """Under a lossy link, every retransmit span is a child of the
        broadcast span whose ack never arrived — and sits inside its
        parent's time window."""
        report = run_plan(replace(LOSSY, cost=epoch_cost(epoch_max_txns)), trace=True)
        assert report.counters.get("net.retransmits", 0) > 0
        tracer = report.tracer
        assert tracer.log.dropped == 0
        broadcasts = {s.span_id: s for s in tracer.spans_named("broadcast")}
        retransmits = tracer.spans_named("retransmit")
        assert retransmits, "drop fault produced no retransmit spans"
        for retry in retransmits:
            parent = broadcasts.get(retry.parent_id)
            assert parent is not None, f"{retry!r} does not nest under a broadcast"
            assert parent.start <= retry.start
            assert retry.end <= parent.end
            assert retry.tags["attempt"] >= 1
        # The Fig.6 stage table has both replication stages at any epoch size.
        assert tracer.stages.get("broadcast").count > 0
        assert tracer.stages.get("ack").count > 0
        # Every member of an epoch, sealing or not, waits out the one ack
        # barrier of its write-set: its ack span ends when the last
        # broadcast of that write-set resolves.
        barrier_end = {}
        for span in broadcasts.values():
            key = (span.tags["node"], span.tags["seq"])
            barrier_end[key] = max(barrier_end.get(key, 0.0), span.end)
        acks = tracer.spans_named("ack")
        for ack in acks:
            assert ack.end == barrier_end[(ack.tags["node"], ack.tags["seq"])]
        if epoch_max_txns > 1:
            assert len(acks) > len(barrier_end), "no epoch had a second member"

    def test_trace_hygiene_invariant_in_report(self):
        report = run_plan(LOSSY, trace=True)
        hygiene = next(r for r in report.invariants if r.name == "trace-hygiene")
        assert hygiene.ok, hygiene.detail
        assert "per-stage latency breakdown" in report.summary()


class TestAbortClosure:
    @staticmethod
    def _victim(cluster, sink):
        """An update transaction held open across the master's death."""
        from repro.common.errors import NodeUnavailable, TransactionAborted

        conn = SimConnection(cluster)
        yield conn.begin_update(["item"])
        yield conn.query(
            "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?", (1, 5)
        )
        yield cluster.sim.timeout(5.0)  # master dies during this window
        try:
            yield conn.commit()
        except (NodeUnavailable, TransactionAborted):
            conn.cleanup()
        sink.append(conn)

    def test_aborted_txn_closes_all_spans_on_master_kill(self):
        """Killing the master mid-transaction must not leak open spans: the
        victim's tree reaches a terminal close with status=aborted."""
        cluster = build_cluster(num_slaves=2)
        victims = []
        cluster.sim.spawn(self._victim(cluster, victims), name="victim")
        cluster.kill_node_at("m0", 2.0)
        cluster.run(until=60.0)
        assert victims, "victim script never finished"
        tracer = cluster.tracer
        assert_all_closed(tracer)
        aborted = [
            s for s in tracer.spans_named("txn") if s.tags.get("status") == "aborted"
        ]
        assert aborted, "master kill produced no aborted transactions"
        root = aborted[0]
        assert root.tags["kind"] == "update"
        # Every stage span under the aborted root is closed too.
        children = children_of(tracer, root)
        assert children and all(c.closed for c in children)
        result = check_trace_hygiene(cluster)
        assert result.ok, result.detail

    def test_workload_survives_master_kill_without_leaking_spans(self):
        """Organic browser traffic through a master kill + reconfiguration
        drains to zero open spans (the quiescence half of trace hygiene)."""
        cluster = build_cluster(num_slaves=2)
        cluster.start_browsers(8, MIXES["ordering"], SCALE, think_time_mean=0.3)
        cluster.kill_node_at("m0", 10.0)
        cluster.sim.schedule(40.0, cluster.stop_browsers)
        cluster.run(until=70.0)
        assert_all_closed(cluster.tracer)
        assert cluster.metrics.completed > 0
        result = check_trace_hygiene(cluster)
        assert result.ok, result.detail

    def test_hygiene_checker_reports_open_spans(self):
        cluster = build_cluster()
        cluster.tracer.span("txn", kind="leaked")
        result = check_trace_hygiene(cluster)
        assert not result.ok
        assert "still open" in result.detail


class TestTracingDeterminism:
    def test_fingerprint_identical_with_tracing_on_and_off(self):
        """The tracer never schedules events and never touches counters, so
        a traced chaos run reproduces the untraced fingerprint exactly."""
        plan = replace(PLANS["default"], settle=15.0, browsers=6)
        off = run_plan(plan, seed=11, duration=60.0)
        on = run_plan(plan, seed=11, duration=60.0, trace=True)
        assert on.fingerprint == off.fingerprint
        assert on.completed == off.completed
        assert off.tracer is None and on.tracer is not None
        assert on.tracer.finished_count > 0
