"""Capacity-limited resources for the simulation kernel.

``Resource`` models a counted resource (CPU cores, disk channels).
:meth:`Resource.hold` is the "charge service time" idiom every simulated
node uses: acquire a slot, hold it for a duration, release it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.kernel import Event, Simulator


class Resource:
    """A counted resource with FIFO granting.

    Usage from a process: ``yield from resource.hold(duration)``, or
    ``yield from resource.acquire()`` ... ``resource.release()`` around
    work done while the slot is held.
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        # Cumulative busy time bookkeeping for utilisation reporting.
        self._busy_integral = 0.0
        self._last_change = 0.0

    def _account(self) -> None:
        now = self.sim.now()
        self._busy_integral += self.in_use * (now - self._last_change)
        self._last_change = now

    def request(self) -> Event:
        """Return an event that succeeds when a slot is granted."""
        if self.in_use < self.capacity and not self._waiters:
            self._account()
            self.in_use += 1
            return self.sim.succeeded  # uncontended: granted already
        event = Event(self.sim)
        self._waiters.append(event)
        return event

    def acquire(self):
        """Interrupt-safe acquisition: ``yield from resource.acquire()``.

        If the waiting process is interrupted in the same instant its grant
        fires, the slot is handed back instead of leaking.
        """
        grant = self.request()
        try:
            yield grant
        except BaseException:
            if grant.triggered and grant.ok:
                self.release()
            else:
                grant.cancel("acquire interrupted")
            raise

    def hold(self, seconds: float):
        """Hold one slot for ``seconds``: ``yield from resource.hold(t)``.

        Acquires through :meth:`acquire`, so an interrupt while queued or
        while holding never leaks the slot.
        """
        yield from self.acquire()
        try:
            yield self.sim.timeout(seconds)
        finally:
            self.release()

    def release(self) -> None:
        """Release one held slot, waking the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError("release without matching request")
        self._account()
        self.in_use -= 1
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue  # waiter was cancelled/interrupted
            self.in_use += 1  # handed over at the same instant: nothing to account
            waiter.succeed(None)
            break

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of capacity busy over ``elapsed`` time units."""
        if elapsed <= 0:
            return 0.0
        self._account()
        return self._busy_integral / (elapsed * self.capacity)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)
