"""Client-side overload defenses: retry budgets and circuit breaking.

Both are pure state machines on the virtual clock — no events, no RNG —
so constructing them never perturbs a seeded run; they only exist at all
when the corresponding :class:`~repro.cluster.costs.CostConfig` knobs are
non-zero.

A :class:`RetryBudget` is a token bucket spent one token per *retry*
(first attempts are free): when a burst of rejections empties it, further
failed requests give up immediately instead of amplifying the original
burst into a retry storm — the classic metastable-failure ingredient.

A :class:`CircuitBreaker` watches the rolling window of request outcomes
and, past a failure-fraction threshold, sheds new requests client-side
(without touching the cluster) until a cooldown passes and a half-open
probe succeeds.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

#: Rolling outcome-window size (last N request outcomes) the breaker
#: judges, and the minimum volume before it may open.
BREAKER_WINDOW = 20
#: Seconds an open breaker waits before letting one half-open probe
#: through; a successful probe closes it, a failed one re-opens it.
BREAKER_COOLDOWN = 5.0


class RetryBudget:
    """Token bucket limiting the *rate* of retries a client may issue."""

    def __init__(self, rate: float, burst: float = 0.0, now: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError("retry budget rate must be positive")
        self.rate = rate
        self.burst = burst if burst > 0 else rate
        self._tokens = self.burst
        self._last = now
        self.spent = 0
        self.exhausted = 0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now

    def tokens(self, now: float) -> float:
        self._refill(now)
        return self._tokens

    def try_spend(self, now: float) -> bool:
        """Spend one retry token; False means the budget is exhausted."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.spent += 1
            return True
        self.exhausted += 1
        return False


def retry_budget(config) -> Optional[RetryBudget]:
    """The retry budget a :class:`~repro.cluster.costs.CostConfig` asks
    for (None while ``retry_budget_rate`` is 0): one per browser pool, one
    per open-loop tenant."""
    if config.retry_budget_rate <= 0:
        return None
    return RetryBudget(config.retry_budget_rate, config.retry_budget_burst)


class CircuitBreaker:
    """Rolling-window failure-fraction breaker with half-open probing."""

    def __init__(
        self,
        failure_threshold: float,
        window: int = BREAKER_WINDOW,
        cooldown: float = BREAKER_COOLDOWN,
    ) -> None:
        if not 0 < failure_threshold <= 1:
            raise ValueError("failure threshold must be in (0, 1]")
        self.failure_threshold = failure_threshold
        self.window = max(2, window)
        self.cooldown = cooldown
        self._outcomes: Deque[bool] = deque(maxlen=self.window)
        self.state = "closed"  # closed | open | half-open
        self._opened_at = 0.0
        self.opens = 0
        self.short_circuits = 0

    def allow(self, now: float) -> bool:
        """May a new request be sent right now?

        While open, everything is shed until ``cooldown`` elapses; then
        exactly one probe is let through (half-open) and its outcome
        decides whether the breaker closes or re-opens.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            if now - self._opened_at >= self.cooldown:
                self.state = "half-open"
                return True
            self.short_circuits += 1
            return False
        # half-open: one probe is already in flight; shed the rest.
        self.short_circuits += 1
        return False

    def record(self, ok: bool, now: float) -> None:
        """Feed one terminal request outcome into the rolling window."""
        if self.state == "half-open":
            if ok:
                self.state = "closed"
                self._outcomes.clear()
            else:
                self.state = "open"
                self._opened_at = now
            return
        self._outcomes.append(ok)
        if self.state == "closed" and len(self._outcomes) >= self.window:
            failures = sum(1 for outcome in self._outcomes if not outcome)
            if failures / len(self._outcomes) >= self.failure_threshold:
                self.state = "open"
                self._opened_at = now
                self.opens += 1

    def record_shed(self, now: float) -> None:
        """A request ended shed (admission reject, drained budget).

        It says nothing about the server's health, so a closed breaker
        ignores it; but a shed half-open probe never tested the server, so
        the breaker re-opens and probes again after the cooldown instead
        of waiting forever for a verdict that will not come.
        """
        if self.state == "half-open":
            self.state = "open"
            self._opened_at = now
