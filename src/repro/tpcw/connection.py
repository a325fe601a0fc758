"""The transport-agnostic connection protocol for TPC-W interactions.

Interactions are *generator functions*: every database call is expressed as
``result = yield conn.<call>(...)``.  The object yielded is an **effect**:

* in the embedded synchronous cluster, effects are :class:`Immediate`
  wrappers and :func:`run_sync` trampolines through them;
* in the simulation, effects are kernel events and the emulated-browser
  process forwards them to the event loop (network + CPU time elapse).

This keeps the fourteen interactions written exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence


@dataclass(frozen=True)
class Immediate:
    """A pre-resolved effect (synchronous execution)."""

    value: Any


class Connection:
    """What an interaction may ask of the system.

    Methods return effects to be ``yield``-ed.  One interaction may open
    several transactions in sequence, but never more than one at a time.
    """

    #: Absolute virtual-clock deadline stamped at arrival, or None.
    #: Drivers that propagate it through routing, execution and commit
    #: cancel doomed work at each stage instead of finishing it.
    deadline: Optional[float] = None

    def begin_read(self, tables: Sequence[str]):
        """Open a read-only transaction touching ``tables``."""
        raise NotImplementedError

    def begin_update(self, tables: Sequence[str]):
        """Open an update transaction whose write-set is within ``tables``."""
        raise NotImplementedError

    def query(self, sql: str, params: Sequence = ()):
        """Execute one statement in the open transaction -> ResultSet."""
        raise NotImplementedError

    def commit(self):
        raise NotImplementedError

    def abort(self):
        raise NotImplementedError


def run_sync(gen: Generator) -> Any:
    """Drive an interaction generator whose effects are :class:`Immediate`."""
    value = None
    while True:
        try:
            effect = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if not isinstance(effect, Immediate):
            raise TypeError(
                f"synchronous driver got non-immediate effect {effect!r}; "
                "use the simulation driver for event effects"
            )
        value = effect.value
