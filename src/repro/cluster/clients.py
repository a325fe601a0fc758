"""Client side of the simulated clusters.

:class:`Metrics` is what the clients perceive, :class:`SimConnection` turns
the TPC-W connection protocol into kernel events against the in-memory
tier, and :class:`BrowserPool` is the closed-loop emulated-browser driver
both simulated tiers share (the on-disk tier hands it its own connection
type).  :func:`serve` is the one request loop under every simulated
client: the browsers and the open-loop
:class:`~repro.traffic.engine.OpenLoopEngine` both hand it one request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.common.counters import Counters
from repro.common.errors import NodeUnavailable, TransactionAborted
from repro.common.rng import RngStream
from repro.cluster.costs import CostConfig
from repro.obs import NULL_SPAN
from repro.sim.kernel import Simulator
from repro.sim.stats import Histogram, TimeSeries, WindowedRate
from repro.tpcw.connection import Connection
from repro.tpcw.interactions import SharedSequences
from repro.tpcw.mixes import Mix
from repro.tpcw.schema import TpcwScale
from repro.tpcw.session import EmulatedBrowser
from repro.traffic.budget import RetryBudget, retry_budget

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simcluster import SimDmvCluster
    from repro.cluster.simnodes import InMemoryDbNode


@dataclass
class Metrics:
    """Client-perceived measurements of one experiment run."""

    wips: WindowedRate = field(default_factory=lambda: WindowedRate(window=20.0, name="wips"))
    latency: Histogram = field(default_factory=lambda: Histogram("latency"))
    latency_series: TimeSeries = field(default_factory=lambda: TimeSeries("latency"))
    #: Commit-path latency of replicated update commits (pre-commit through
    #: ack barrier) — the distribution a straggler slave distorts under
    #: all-slave acks and a quorum protects.
    commit_latency: Histogram = field(default_factory=lambda: Histogram("commit"))
    #: Requests by outcome (:func:`serve`'s rule) and failed attempts.
    completed: int = 0
    retried: int = 0
    failed: int = 0
    shed: int = 0
    aborts_by_reason: Dict[str, int] = field(default_factory=dict)

    def record_completion(self, time: float, latency: float) -> None:
        self.completed += 1
        self.wips.mark(time)
        self.latency.record(latency)
        self.latency_series.record(time, latency)

    def record_retry(self, reason: str) -> None:
        self.retried += 1
        self.aborts_by_reason[reason] = self.aborts_by_reason.get(reason, 0) + 1

    def abort_rate(self) -> float:
        total = self.completed + self.retried
        return self.retried / total if total else 0.0


class SimConnection(Connection):
    """Connection whose effects are kernel events (driven by browsers)."""

    def __init__(self, cluster: "SimDmvCluster") -> None:
        self.cluster = cluster
        #: Tenant label for per-tenant admission control (open-loop traffic
        #: sets it; the closed-loop browsers keep the default).
        self.tenant = "default"
        self._node: Optional["InMemoryDbNode"] = None
        self._txn = None
        self._is_update = False
        #: Update-admission slot held while an update executes (see
        #: :meth:`UpdateRouter.admit_update`); ownership moves to
        #: ``commit_update`` at commit, otherwise :meth:`cleanup` releases it.
        self._mpl_slot: Optional[str] = None
        #: Root span of the current transaction attempt.  Ownership moves
        #: to :meth:`CommitPipeline.commit_update` for update commits; any
        #: span still held here is closed as aborted by :meth:`cleanup`.
        self._root = NULL_SPAN

    def _deadline_expired(self) -> bool:
        return self.deadline is not None and self.cluster.sim.now() >= self.deadline

    def begin_read(self, tables: Sequence[str]):
        # Admission + deadline gates run before any span or routing state
        # exists, so a rejection leaves the connection untouched.
        self.cluster.router.admission_check("read", self.tenant)
        if self._deadline_expired():
            raise self.cluster.router.deadline_cancel("read-begin")
        root = self._root = self.cluster.tracer.span(
            "txn", kind="read", tables=",".join(tables)
        )
        with root.child("schedule", kind="read") as sched:
            routed = self.cluster.scheduler.route_read(list(tables))
            sched.annotate(node=routed.node_id, status="routed")
        node = self.cluster.node(routed.node_id)
        self._node = node
        self._is_update = False
        if node.slave is not None:
            self._txn = node.slave.begin_read_only(routed.tag)
        else:
            # The router's master fallback (every covering slave owed an
            # ack, or none was active): the master's engine
            # is current by construction, so no version tag is needed.
            self._txn = node.master.begin_read_only()
        if root.recording:
            self._txn.obs_span = root
            # The txn id exists only now; stamp it on the already-closed
            # schedule span too so the whole tree shares it.
            root.txn_id = sched.txn_id = self._txn.txn_id
            root.annotate(node=node.node_id, tag=routed.tag.as_dict())
        return self.cluster.sim.timeout(self.cluster.cost.config.rtt())

    def begin_update(self, tables: Sequence[str]):
        self._is_update = True
        self._root = self.cluster.tracer.span(
            "txn", kind="update", tables=",".join(tables)
        )
        return self.cluster.sim.spawn(self._begin_update(list(tables)), name="begin-update")

    def _begin_update(self, tables: List[str]):
        root = self._root
        sched = root.child("schedule", kind="update")
        try:
            node, self._mpl_slot = yield from self.cluster.router.admit_update(
                tables, tenant=self.tenant, deadline=self.deadline
            )
        except BaseException as exc:
            sched.finish(status="error", error=type(exc).__name__)
            raise
        sched.finish(node=node.node_id, status="routed")
        self._node = node
        self._txn = node.master.begin_update(write_tables=tables)
        if root.recording:
            self._txn.obs_span = root
            root.txn_id = sched.txn_id = self._txn.txn_id
            root.annotate(
                node=node.node_id,
                conflict_class=self.cluster.conflict_map.class_of(tables[0])
                if tables
                else -1,
            )
        yield self.cluster.sim.timeout(self.cluster.cost.config.rtt())

    def query(self, sql: str, params: Sequence = ()):
        node, txn = self._node, self._txn
        if txn is None:
            raise RuntimeError("no open transaction")
        if not node.alive or not txn.active:
            # The node died between statements; its engine already rolled
            # the transaction back.
            self._node = self._txn = None
            raise NodeUnavailable(f"node {node.node_id} failed mid-transaction")
        if self._deadline_expired():
            # Doomed mid-transaction: stop executing statements for it.
            # State stays attached so ``cleanup`` rolls the txn back.
            raise self.cluster.router.deadline_cancel("execute")
        return self.cluster.sim.spawn(self._execute(node, txn, sql, params), name="query")

    def _execute(self, node: "InMemoryDbNode", txn, sql: str, params: Sequence):
        """The query process (kept: DESIGN.md §11.6): round trip, then the statement."""
        yield self.cluster.sim.timeout(self.cluster.cost.config.rtt())
        return (yield from node.run_job(node.exec_statement(txn, sql, params)))

    def commit(self):
        node, txn = self._node, self._txn
        if txn is None:
            raise RuntimeError("no open transaction")
        self._node = self._txn = None
        if not node.alive or not txn.active:
            self._release_mpl_slot()
            if not self._is_update:
                self.cluster.scheduler.note_read_done(node.node_id)
            raise NodeUnavailable(f"node {node.node_id} failed before commit")
        if not self._is_update:
            node.engine.commit(txn)
            self.cluster.scheduler.note_read_done(node.node_id)
            root, self._root = self._root, NULL_SPAN
            root.finish(status="committed")
            return self.cluster.sim.timeout(self.cluster.cost.config.rtt())
        # Root-span ownership moves to commit_update, which closes it when
        # the replication pipeline resolves (committed or aborted).  So
        # does the admission slot: commit_update holds it through the
        # replication pipeline and releases it on any exit path.
        self._root = NULL_SPAN
        slot, self._mpl_slot = self._mpl_slot, None
        return self.cluster.sim.spawn(
            self.cluster.pipeline.commit_update(
                node, txn, mpl_slot=slot, deadline=self.deadline
            ),
            name="commit",
        )

    def abort(self):
        self.cleanup()
        return self.cluster.sim.timeout(self.cluster.cost.config.rtt())

    def _release_mpl_slot(self) -> None:
        slot, self._mpl_slot = self._mpl_slot, None
        if slot is not None:
            self.cluster.router.release(slot)

    def cleanup(self) -> None:
        """Roll back whatever is still open (safe to call repeatedly)."""
        self._release_mpl_slot()
        node, txn = self._node, self._txn
        self._node = self._txn = None
        root, self._root = self._root, NULL_SPAN
        root.finish(status="aborted")
        if txn is None or node is None:
            return
        if node.alive:
            node.engine.abort(txn)
        if not self._is_update:
            self.cluster.scheduler.note_read_done(node.node_id)


def serve(
    sim: Simulator,
    session: EmulatedBrowser,
    name: str,
    connect: Callable[[], Connection],
    arrived_at: float,
    config: CostConfig,
    max_attempts: int,
    budget: Optional[RetryBudget],
    metrics: Metrics,
    counters: Counters,
):
    """Drive interaction ``name`` of ``session`` until it completes, fails
    or is shed, and return ``(outcome, cause, failed_attempts)``; the
    return is the client ack.  The one outcome rule of every client:

    * **completed** — latency runs from ``arrived_at`` across attempts;
    * **shed** — refused without being served: an admission reject (never
      retried: that would defeat the shed) or a drained retry budget;
    * **failed** — the client gave up: the deadline ``arrived_at +
      request_deadline`` passed (checked before every dial and after every
      failed attempt), or ``max_attempts`` attempts failed.

    Retries back off (jittered, exponential) on the session's own stream,
    so a mass failure does not resynchronise clients into retry waves.
    """
    request_deadline = config.request_deadline
    deadline = arrived_at + request_deadline if request_deadline > 0 else None
    failed_attempts = 0
    while True:
        if deadline is not None and sim.now() >= deadline:
            # Doomed before we even dialled: cancel client-side.
            metrics.failed += 1
            return "failed", "deadline", failed_attempts
        conn = connect()
        conn.deadline = deadline
        gen = session.start(name, conn)
        try:
            yield from gen  # it holds no try/with: a failed effect ends it at once
        except (TransactionAborted, NodeUnavailable) as exc:
            conn.cleanup()
            reason = getattr(exc, "reason", "node-failure")
            metrics.record_retry(reason)
            failed_attempts += 1
        else:
            metrics.record_completion(sim.now(), sim.now() - arrived_at)
            return "completed", None, failed_attempts
        if reason == "admission-reject":
            metrics.shed += 1
            return "shed", reason, failed_attempts
        if reason == "deadline" or (deadline is not None and sim.now() >= deadline):
            # Retrying doomed work is the metastability amplifier.
            metrics.failed += 1
            return "failed", "deadline", failed_attempts
        if failed_attempts >= max_attempts:
            metrics.failed += 1
            return "failed", "attempts", failed_attempts
        if budget is not None and not budget.try_spend(sim.now()):
            # Give up instead of retrying in lock-step with every other
            # client: the retry storm is what turns a burst into a
            # metastable outage.
            counters.add("traffic.retry_budget_exhausted")
            metrics.shed += 1
            return "shed", "retry-budget", failed_attempts
        yield sim.timeout(session.retry_backoff(failed_attempts))


class BrowserPool:
    """Closed-loop emulated browsers driving one simulated cluster.

    Owns the browsers, the stop flag, the last started profile and the
    pool-wide retry budget.  ``connect`` builds the tier's connection type,
    so the in-memory and the on-disk cluster share one loop.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: RngStream,
        config: CostConfig,
        metrics: Metrics,
        counters: Counters,
        connect: Callable[[], Connection],
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.config = config
        self.metrics = metrics
        self.counters = counters
        self.connect = connect
        self.browsers: List[EmulatedBrowser] = []
        self._stop = False
        #: Last started profile (mix, scale, sequences, think, retries) so
        #: chaos flash-crowd events can add load mid-run.
        self._profile = None
        #: Pool-wide retry cap; the open-loop engine keeps per-tenant
        #: budgets of its own.
        self.retry_budget = retry_budget(config)

    def start(
        self,
        count: int,
        mix: Mix,
        scale: TpcwScale,
        sequences: Optional[SharedSequences] = None,
        think_time_mean: float = 7.0,
        max_retries: int = 8,
    ) -> None:
        sequences = sequences if sequences is not None else SharedSequences(scale)
        self._profile = (mix, scale, sequences, think_time_mean, max_retries)
        base = len(self.browsers)
        for i in range(count):
            browser = EmulatedBrowser(
                browser_id=base + i,
                mix=mix,
                scale=scale,
                sequences=sequences,
                rng=self.rng.child(f"eb{base + i}"),
                now=self.sim.now,
                think_time_mean=think_time_mean,
            )
            self.browsers.append(browser)
            self.sim.spawn(self._loop(browser, max_retries + 1), name=f"eb{base + i}")

    def flash_crowd(self, count: int) -> None:
        """Add ``count`` browsers mid-run with the last started profile.

        Chaos hook for flash write load: the extra browsers share the
        original pool's mix, scale and shared sequences, and exit with
        everyone else at :meth:`stop`.
        """
        if self._profile is None:
            raise RuntimeError("flash_crowd before start_browsers")
        mix, scale, sequences, think, retries = self._profile
        self.start(
            count, mix, scale, sequences=sequences,
            think_time_mean=think, max_retries=retries,
        )

    def stop(self) -> None:
        """Ask every browser loop to exit at its next interaction boundary.

        Used by ``run_plan`` to quiesce the workload before running
        invariant checks: in-flight interactions finish (or exhaust their
        retries), then the cluster drains to a stable state.
        """
        self._stop = True

    def _loop(self, browser: EmulatedBrowser, max_attempts: int):
        # Latency runs from the moment this browser *wanted* the
        # interaction.  Closed-loop clients still under-report overload
        # (they stop offering load while stalled: coordinated omission).
        sim = self.sim
        while not self._stop:
            name = browser.pick()
            yield from serve(
                sim, browser, name, self.connect, sim.now(), self.config,
                max_attempts, self.retry_budget, self.metrics, self.counters,
            )
            yield sim.timeout(browser.think_time())
