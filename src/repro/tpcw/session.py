"""Emulated browser sessions (the TPC-W client model).

An :class:`EmulatedBrowser` owns one session context, picks interactions
according to the configured mix, and exposes think-time draws.  The actual
driving loop lives with the transport (synchronous trampoline or simulation
process); retries after transaction aborts also happen there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Tuple

from repro.common.rng import RngStream
from repro.tpcw.interactions import INTERACTIONS, InteractionContext, SharedSequences
from repro.tpcw.mixes import Mix, UPDATE_INTERACTIONS
from repro.tpcw.schema import TpcwScale

#: TPC-W think time: exponential with mean 7 s, capped at 70 s.
THINK_TIME_MEAN = 7.0
THINK_TIME_CAP = 70.0
#: Browser retry backoff: first delay and ceiling of the per-browser
#: jittered exponential backoff.
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_CAP = 5.0


@dataclass
class EmulatedBrowser:
    """One emulated browser: session state + interaction selection."""

    browser_id: int
    mix: Mix
    scale: TpcwScale
    sequences: SharedSequences
    rng: RngStream
    now: Callable[[], float] = lambda: 0.0
    think_time_mean: float = THINK_TIME_MEAN
    interactions_run: int = 0

    def __post_init__(self) -> None:
        self.ctx = InteractionContext(
            rng=self.rng.child("ctx"),
            scale=self.scale,
            sequences=self.sequences,
            now=self.now,
            customer_id=self.rng.randint(1, self.scale.num_customers),
        )

    def pick(self) -> str:
        """Choose the next interaction name according to the mix."""
        return self.mix.pick(self.rng)

    def start(self, name: str, conn) -> Generator:
        """Instantiate the chosen interaction against a connection."""
        self.interactions_run += 1
        return INTERACTIONS[name](conn, self.ctx)

    def is_update(self, name: str) -> bool:
        return name in UPDATE_INTERACTIONS

    def think_time(self) -> float:
        return min(self.rng.expovariate(self.think_time_mean), THINK_TIME_CAP)

    def retry_backoff(self, attempts: int) -> float:
        """Jittered exponential backoff before retry number ``attempts``.

        Drawn from this browser's own deterministic stream, so a mass abort
        (node failure) de-synchronises instead of producing lock-step retry
        waves: each browser sleeps ``RETRY_BACKOFF_BASE * 2^(attempts-1)``
        (capped) scaled by an independent uniform [0.5, 1.5) jitter.
        """
        delay = min(RETRY_BACKOFF_BASE * (2 ** (max(1, attempts) - 1)), RETRY_BACKOFF_CAP)
        return delay * self.rng.uniform(0.5, 1.5)
