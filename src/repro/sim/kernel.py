"""Event loop, events and generator processes.

Design notes
------------
* The event heap is ordered by ``(time, sequence)``; the sequence number
  makes simultaneous events fire in schedule order, which keeps whole
  cluster runs deterministic.
* A :class:`Process` wraps a generator.  The generator may yield:
    - a :class:`Timeout` — resume after virtual delay,
    - any :class:`Event` — resume when it succeeds (with its value),
    - another :class:`Process` — resume when the child finishes.
* Uncaught exceptions in a process fail its completion event.  If nothing
  is waiting on that event the exception is re-raised from
  :meth:`Simulator.run` — errors never pass silently.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

ProcessGen = Generator["Event", Any, Any]


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, either successfully (``succeed``)
    or with an exception (``fail``).  Waiters registered before or after the
    trigger both observe the outcome.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "ok", "value", "defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._callbacks: List[Callable[[Event], None]] = []
        self.triggered = False
        self.ok = False
        self.value: Any = None
        self.defused = False

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        if self._callbacks:
            self.sim._ready(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = exc
        self.sim._ready(self)
        return self

    def cancel(self, reason: str = "cancelled") -> "Event":
        """Trigger the event as a *defused* failure.

        Waiters (if any) still see the error, but an untriggered event that
        nobody waits on can be cancelled without poisoning the run loop —
        used when a resource waiter's owner dies.
        """
        self.defused = True
        return self.fail(RuntimeError(reason))

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.triggered:
            # Already fired: deliver on the next loop iteration to keep
            # callback ordering consistent with the not-yet-fired case.
            self.sim.schedule(0.0, fn, self)
        else:
            self._callbacks.append(fn)


class Timeout(Event):
    """An event that succeeds after a fixed virtual delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.sim, self._callbacks, self.value = sim, [], None
        self.triggered = self.ok = self.defused = False
        when = sim._now + delay
        if when > sim._now:
            sim._seq += 1
            heapq.heappush(sim._heap, (when, sim._seq, self._fire, ()))
        else:  # zero, or below float resolution: now
            sim.fast_resumes += 1
            sim._ready_q.append((self._fire, ()))

    def _fire(self) -> None:
        if self.triggered:
            return
        self.triggered = self.ok = True
        callbacks = self._callbacks
        if len(callbacks) == 1 and self.sim.idle():
            # The delivery would be the very next dispatch: run it now.  A
            # lone waiter keeps every process step a dispatch of its own.
            self._callbacks = ()
            callbacks[0](self)
        else:
            self.sim._ready(self)


class AnyOf(Event):
    """Succeeds when the first of several events succeeds.

    The value is the (event, value) pair of the first trigger.  Failures of
    the first-triggering event propagate.
    """

    __slots__ = ("_done",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._done = False
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._done:
            return
        self._done = True
        if event.ok:
            self.succeed((event, event.value))
        else:
            self.fail(event.value)


class AllOf(Event):
    """Succeeds when every child event has succeeded (barrier).

    The value is the list of child values in construction order.  The first
    child failure fails the barrier.
    """

    __slots__ = ("_children", "_remaining", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._remaining = len(self._children)
        self._done = False
        if not self._children:
            self.succeed([])
            return
        for event in self._children:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._done:
            return
        if not event.ok:
            self._done = True
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._done = True
            self.succeed([e.value for e in self._children])


class Process(Event):
    """A running generator; doubles as its own completion event."""

    __slots__ = ("name", "_gen", "_target", "_interrupts", "dead")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "proc") -> None:
        self.sim, self._callbacks, self.value = sim, [], None
        self.triggered = self.ok = self.defused = self.dead = False
        self.name, self._gen, self._target, self._interrupts = name, gen, None, []
        sim.fast_resumes += 1
        sim._ready_q.append((self._step, (None,)))

    @property
    def alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resumption.

        Interrupting a finished process is a no-op, which lets failure
        injectors kill node process groups without bookkeeping races.
        """
        if self.triggered:
            return
        self._interrupts.append(Interrupt(cause))
        # Detach from whatever it was waiting on and wake immediately.
        self.sim.schedule(0.0, self._step, None)

    # -- generator stepping -------------------------------------------------
    def _step(self, event: Optional[Event]) -> None:
        """Resume with the awaited ``event``'s outcome (None: first step or
        interrupt).  A stale target or an already-delivered interrupt is a no-op."""
        interrupts = self._interrupts
        if event is None:
            if self.triggered or (not interrupts and self._target is not None):
                return
        elif self._target is not event:
            return
        self._target = None
        self.sim.active = self
        try:
            if interrupts:
                yielded = self._gen.throw(interrupts.pop(0))
            elif event is None:
                yielded = next(self._gen)
            elif event.ok:
                yielded = self._gen.send(event.value)
            else:
                yielded = self._gen.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
        except Interrupt as exc:
            # Interrupt escaped the generator: treat as cancellation.
            self.dead = True
            self.succeed(exc.cause)
        except BaseException as exc:  # noqa: BLE001 - must forward all
            self.fail(exc)
        else:
            if not isinstance(yielded, Event):
                self.fail(TypeError(f"process {self.name} yielded {yielded!r}"))
                return
            self._target = yielded
            if yielded.triggered:
                self.sim.fast_resumes += 1
                self.sim._ready_q.append((self._step, (yielded,)))
            else:
                yielded._callbacks.append(self._step)


class Simulator:
    """The event loop: a heap of timed callbacks plus a virtual clock.

    Zero-delay callbacks — event deliveries, process wake-ups, immediate
    timeouts — dominate every workload, so they bypass the heap entirely
    and go onto a FIFO *ready queue*.  This is ordering-exact with the
    pure-heap implementation: a heap entry due at the current time ``T``
    was necessarily pushed at some earlier time (positive delays only land
    strictly in the future), hence with a smaller sequence number than any
    ready entry appended *at* ``T``.  Draining due heap entries first and
    then the ready queue in FIFO order therefore reproduces the exact
    ``(time, seq)`` dispatch order.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._ready_q: Deque[Tuple[Callable, tuple]] = deque()
        self._seq = 0
        self._unhandled: List[BaseException] = []
        self.active: Optional[Process] = None  #: the running process (a node job's owner)
        #: Dispatches queued on the ready queue, not the heap: a plain
        #: attribute, not a :class:`Counters` entry, so no fingerprint hashes it.
        self.fast_resumes = 0
        #: An event that has already succeeded: a process that yields it
        #: resumes behind whatever is queued now.
        self.succeeded = Event(self).succeed(None)
        # Bound constructors, no Python frame per call: event(), timeout(delay),
        # any_of(events), all_of(events), spawn(gen, name="proc") starts a process.
        self.event = partial(Event, self)
        self.timeout = partial(Timeout, self)
        self.any_of = partial(AnyOf, self)
        self.all_of = partial(AllOf, self)
        self.spawn = partial(Process, self)

    def now(self) -> float:
        return self._now

    def idle(self) -> bool:
        """Nothing queued and no heap entry due now: whatever is queued next
        is the very next dispatch."""
        return not self._ready_q and not (self._heap and self._heap[0][0] <= self._now)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        when = self._now + delay
        if when <= self._now:  # zero, or below float resolution: now
            self.fast_resumes += 1
            self._ready_q.append((fn, args))
            return
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, fn, args))

    # -- event outcome delivery ----------------------------------------------
    def _ready(self, event: Event) -> None:
        """Queue each waiter of a triggered event, or an undefused failure
        nobody waits on, which :meth:`run` raises."""
        callbacks, event._callbacks = event._callbacks, ()  # takes no more waiters
        if callbacks:
            self.fast_resumes += len(callbacks)
            for fn in callbacks:
                self._ready_q.append((fn, (event,)))
        elif not (event.ok or event.defused):
            self.fast_resumes += 1
            self._ready_q.append((self._unhandled.append, (event.value,)))

    # -- main loop -------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the virtual time at which the loop stopped.  Re-raises the
        first unhandled process exception, if any.
        """
        heap = self._heap
        ready = self._ready_q
        pop = heapq.heappop
        unhandled = self._unhandled
        while True:
            # Due heap entries (pushed before now, so smaller seq) first.
            if heap and heap[0][0] <= self._now:
                _when, _seq, fn, args = pop(heap)
                fn(*args)
            elif ready:
                fn, args = ready.popleft()
                fn(*args)
            elif heap:
                when = heap[0][0]
                if until is not None and when > until:
                    self._now = until
                    break
                _when, _seq, fn, args = pop(heap)
                self._now = when
                fn(*args)
            else:
                if until is not None and until > self._now:
                    self._now = until
                break
            if unhandled:
                raise unhandled.pop(0)
        return self._now

    def run_until_complete(self, process: Process, limit: float = 1e12) -> Any:
        """Run until ``process`` finishes; return its value (or raise)."""
        self.run(until=None if limit is None else self._now + limit)
        if not process.triggered:
            raise RuntimeError(f"process {process.name} did not finish by t={self._now}")
        if not process.ok:
            raise process.value
        return process.value
