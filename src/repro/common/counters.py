"""Lightweight instrumentation counters.

A :class:`Counters` object is threaded through the storage engine, the
replication protocol and the schedulers.  The simulation's cost model reads
the *deltas* produced by one request to charge service time, and the
benchmark harness reads the totals to report abort rates, bytes shipped,
cache hit ratios, and so on.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence


class Counters:
    """A named bag of monotonic counters with cheap snapshot/delta support."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        self._values[name] += amount

    def get(self, name: str) -> float:
        return self._values.get(name, 0.0)

    def snapshot(self) -> Dict[str, float]:
        """Copy of all counter values at this instant."""
        return dict(self._values)

    def delta_since(self, snapshot: Mapping[str, float]) -> Dict[str, float]:
        """Per-counter difference between now and a prior :meth:`snapshot`.

        Iterates the *union* of current and snapshot keys: a counter that
        moved backwards since the snapshot (a :meth:`reset` mid-window, or
        a merge of negative corrections) produces a negative delta instead
        of silently vanishing — which it would if only the live dict were
        scanned, because ``defaultdict`` drops no keys but ``reset`` does.
        """
        out: Dict[str, float] = {}
        for name, value in self._values.items():
            diff = value - snapshot.get(name, 0.0)
            if diff:
                out[name] = diff
        for name, old in snapshot.items():
            if name not in self._values and old:
                out[name] = -old
        return out

    def tally(self, names: Sequence[str]) -> List[float]:
        """Values of ``names`` now: a :meth:`snapshot` of just those."""
        return [self._values.get(name, 0.0) for name in names]

    def delta_of(self, names: Sequence[str], tally: Sequence[float]) -> Dict[str, float]:
        """:meth:`delta_since` of just ``names``, from their :meth:`tally`."""
        get = self._values.get
        return {name: diff for name, old in zip(names, tally) if (diff := get(name, 0.0) - old)}

    def reset(self) -> None:
        self._values.clear()

    def merge(self, values: Mapping[str, float]) -> None:
        """Accumulate a plain mapping of counter deltas into this bag."""
        for name, value in values.items():
            self._values[name] += value

    def merge_from(self, other: "Counters") -> None:
        """Accumulate another bag's totals into this one."""
        self.merge(other._values)

    @classmethod
    def merged(cls, many: Iterable["Counters"]) -> "Counters":
        """Cluster-wide totals: one bag summing every node's counters.

        ``run_plan`` reports a run's counters this way (``net.batches``,
        ``net.bytes_shipped``, ``net.bytes_saved_delta``,
        ``slave.ops_coalesced``, ...), summed across all its nodes.
        """
        total = cls()
        for counters in many:
            total.merge_from(counters)
        return total

    def fingerprint(self) -> str:
        """Stable short hash of every counter value (order-independent).

        Two runs of the same seeded experiment must produce the same
        fingerprint; ``run_plan`` reports it so a soak failure can be
        replayed bit-for-bit from the seed and checked for drift.
        """
        import hashlib

        digest = hashlib.sha256()
        for name, value in sorted(self._values.items()):
            digest.update(f"{name}={value!r};".encode())
        return digest.hexdigest()[:16]

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._values.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in self)
        return f"Counters({inner})"
