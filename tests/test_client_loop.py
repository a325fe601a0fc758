"""The one request loop under every simulated client: :func:`serve`.

A scripted session plays one outcome per attempt (``None`` completes, an
exception aborts) against a scripted connection, on a bare simulator, so
each clause of the outcome rule is checked alone: what the request ended
as, after how many dials and backoffs, and what it left in the ledgers.
"""

import pytest

from repro.cluster.clients import Metrics, serve
from repro.cluster.costs import CostConfig
from repro.cluster.simcluster import SimDmvCluster
from repro.common.counters import Counters
from repro.common.errors import NodeUnavailable, TransactionAborted
from repro.sim.kernel import Simulator
from repro.tpcw import MIXES, TPCW_SCHEMAS, TpcwScale
from repro.tpcw.datagen import cached_rows
from repro.traffic.budget import RetryBudget

SERVICE = 0.1
BACKOFF = 0.5


class ScriptedConnection:
    deadline = None

    def __init__(self):
        self.cleanups = 0

    def cleanup(self):
        self.cleanups += 1


class ScriptedSession:
    """Each dial takes ``SERVICE`` seconds, then plays the next outcome."""

    def __init__(self, sim, script):
        self.sim = sim
        self.script = list(script)
        self.dials = 0
        self.backoffs = []

    def start(self, name, conn):
        self.dials += 1
        outcome = self.script.pop(0)

        def interaction():
            yield self.sim.timeout(SERVICE)
            if outcome is not None:
                raise outcome

        return interaction()

    def retry_backoff(self, attempts):
        self.backoffs.append(attempts)
        return BACKOFF


def run_serve(script, start_at=0.0, deadline=0.0, max_attempts=3, budget=None):
    """Serve one request that arrived at 0 and is first dialled at ``start_at``."""
    sim = Simulator()
    session = ScriptedSession(sim, script)
    conns, metrics, counters = [], Metrics(), Counters()

    def connect():
        conns.append(ScriptedConnection())
        return conns[-1]

    def request():
        yield sim.timeout(start_at)
        result = yield from serve(
            sim, session, "home", connect, 0.0, CostConfig(request_deadline=deadline),
            max_attempts, budget, metrics, counters,
        )
        return result

    result = sim.run_until_complete(sim.spawn(request()))
    return result, session, conns, metrics, counters


def abort(reason):
    return TransactionAborted(reason, reason=reason)


def test_completion_latency_runs_from_arrival_across_attempts():
    # Dialled 0.2 s after arrival; the first attempt dies with its node,
    # the retry (after one backoff) completes at 0.2 + 0.1 + 0.5 + 0.1.
    result, session, conns, metrics, _ = run_serve(
        [NodeUnavailable("m0 died"), None], start_at=0.2
    )
    assert result == ("completed", None, 1)
    assert session.backoffs == [1]
    assert [conn.cleanups for conn in conns] == [1, 0]
    assert metrics.latency_series.values == [pytest.approx(0.9)]
    assert (metrics.completed, metrics.retried, metrics.failed, metrics.shed) == (1, 1, 0, 0)
    assert metrics.aborts_by_reason == {"node-failure": 1}


def test_node_failure_is_retried_until_the_attempt_ceiling():
    result, session, _, metrics, _ = run_serve(
        [NodeUnavailable("m0 died"), abort("occ-conflict")], max_attempts=2
    )
    assert result == ("failed", "attempts", 2)
    assert session.dials == 2
    assert session.backoffs == [1]
    assert (metrics.completed, metrics.retried, metrics.failed) == (0, 2, 1)


def test_deadline_passed_before_dialling_fails_without_a_dial():
    result, session, _, metrics, _ = run_serve([None], start_at=1.5, deadline=1.0)
    assert result == ("failed", "deadline", 0)
    assert session.dials == 0
    assert (metrics.failed, metrics.retried) == (1, 0)


def test_deadline_passing_during_backoff_fails_before_the_next_dial():
    # The first attempt ends at 0.1, inside the deadline; the backoff
    # carries the request past it, so the retry is never dialled.
    result, session, _, metrics, _ = run_serve([NodeUnavailable("m0 died"), None], deadline=0.4)
    assert result == ("failed", "deadline", 1)
    assert session.dials == 1
    assert metrics.failed == 1


def test_server_side_deadline_abort_fails_without_retry():
    result, session, _, metrics, _ = run_serve([abort("deadline"), None], deadline=5.0)
    assert result == ("failed", "deadline", 1)
    assert session.backoffs == []
    assert metrics.aborts_by_reason == {"deadline": 1}
    assert metrics.failed == 1


def test_admission_reject_is_shed_and_not_retried():
    budget = RetryBudget(rate=1.0, burst=1.0)
    result, session, _, metrics, counters = run_serve(
        [abort("admission-reject"), None], budget=budget
    )
    assert result == ("shed", "admission-reject", 1)
    assert session.dials == 1 and session.backoffs == []
    assert (metrics.shed, metrics.failed, metrics.retried) == (1, 0, 1)
    assert budget.spent == 0
    assert counters.get("traffic.retry_budget_exhausted") == 0


def test_drained_budget_sheds_and_is_counted():
    budget = RetryBudget(rate=1.0, burst=1.0)
    assert budget.try_spend(0.0)  # empty: 0.1 s of refill is no token
    result, session, _, metrics, counters = run_serve(
        [NodeUnavailable("m0 died"), None], budget=budget
    )
    assert result == ("shed", "retry-budget", 1)
    assert session.backoffs == []
    assert (metrics.shed, metrics.failed) == (1, 0)
    assert budget.exhausted == 1
    assert counters.get("traffic.retry_budget_exhausted") == 1


def test_closed_loop_browsers_shed_admission_rejects():
    # A scheduler admitting ~1 request per second under 8 busy browsers:
    # every reject ends its request as shed, so each one is exactly one
    # failed attempt — none is retried into another reject.
    scale = TpcwScale(num_items=80, num_customers=230)
    cluster = SimDmvCluster(
        TPCW_SCHEMAS,
        num_slaves=2,
        seed=4,
        cost_config=CostConfig(admission_rate=1.0, admission_burst=1.0),
    )
    cluster.load_tables(cached_rows(scale, 11))
    cluster.start_browsers(8, MIXES["shopping"], scale, think_time_mean=0.3)
    cluster.sim.schedule(15.0, cluster.stop_browsers)
    cluster.run(until=20.0)
    metrics = cluster.metrics
    assert metrics.shed > 0
    assert metrics.aborts_by_reason["admission-reject"] == metrics.shed
    assert metrics.completed > 0
    # Every dial ended as a completion or a failed attempt.
    dials = sum(browser.interactions_run for browser in cluster._browsers)
    assert dials == metrics.completed + metrics.retried
