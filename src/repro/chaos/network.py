"""The lossy-network model: per-link drop/duplication/delay + partitions.

Every directed ``(source, target)`` pair of cluster endpoints (nodes and
scheduler agents) has one :class:`LinkState`.  A link starts *clean* —
perfectly reliable, zero extra latency — so the model costs nothing on
ordinary runs: the replication channel only rolls the dice (and only
schedules ack-timeout timers) on links that a fault plan has touched.

All randomness is drawn from per-link child streams of one seeded
:class:`~repro.common.rng.RngStream`, so a chaos run replays bit-for-bit
from its seed: the same messages are dropped, duplicated and delayed at
the same virtual times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.common.rng import RngStream

#: Wildcard endpoint matching every node/agent id in a fault rule.
ANY = "*"


@dataclass
class LinkState:
    """Loss characteristics of one directed link.

    ``partitions`` is a nesting counter so overlapping partitions compose:
    the link is cut while any partition covering it is unhealed.
    """

    source: str
    target: str
    rng: RngStream
    drop_p: float = 0.0
    dup_p: float = 0.0
    #: Mean of the exponential extra one-way latency (0 = none).
    extra_delay_mean: float = 0.0
    partitions: int = 0

    @property
    def partitioned(self) -> bool:
        return self.partitions > 0

    @property
    def lossy(self) -> bool:
        """True once any fault applies — the trigger for chaos bookkeeping."""
        return (
            self.partitions > 0
            or self.drop_p > 0.0
            or self.dup_p > 0.0
            or self.extra_delay_mean > 0.0
        )

    # -- dice rolls (deterministic per link) --------------------------------------
    def drops(self) -> bool:
        """Roll whether one message on this link is lost in flight."""
        if self.partitions > 0:
            return True
        return self.drop_p > 0.0 and self.rng.random() < self.drop_p

    def duplicates(self) -> bool:
        """Roll whether one message is delivered twice."""
        return self.dup_p > 0.0 and self.rng.random() < self.dup_p

    def extra_delay(self) -> float:
        """Extra one-way latency for one message (exponential draw)."""
        if self.extra_delay_mean <= 0.0:
            return 0.0
        return self.rng.expovariate(self.extra_delay_mean)


class NetworkModel:
    """All links of one cluster, plus wildcard fault rules.

    Links are created lazily the first time an endpoint pair communicates;
    fault rules installed with wildcards apply to existing *and* future
    links, so ``set_fault(ANY, ANY, drop_p=0.05)`` makes the whole fabric
    5 % lossy without enumerating endpoints up front.
    """

    def __init__(self, rng: RngStream) -> None:
        self._rng = rng
        self._links: Dict[Tuple[str, str], LinkState] = {}
        #: Installed (src_pattern, dst_pattern, drop, dup, delay) rules, in
        #: order; later rules override earlier ones on the links they match.
        self._rules: List[Tuple[str, str, float, float, float]] = []
        #: Active partition group pairs (for lazily created links).
        self._partitions: List[Tuple[frozenset, frozenset]] = []

    def link(self, source: str, target: str) -> LinkState:
        key = (source, target)
        state = self._links.get(key)
        if state is None:
            state = LinkState(source, target, self._rng.child(f"{source}->{target}"))
            for src, dst, drop_p, dup_p, delay in self._rules:
                if _matches(src, source) and _matches(dst, target):
                    state.drop_p, state.dup_p, state.extra_delay_mean = drop_p, dup_p, delay
            for group_a, group_b in self._partitions:
                if _crosses(source, target, group_a, group_b):
                    state.partitions += 1
            self._links[key] = state
        return state

    # -- fault installation --------------------------------------------------------
    def set_fault(
        self,
        source: str = ANY,
        target: str = ANY,
        drop_p: float = 0.0,
        dup_p: float = 0.0,
        extra_delay_mean: float = 0.0,
    ) -> None:
        """Make every link matching ``(source, target)`` lossy."""
        self._rules.append((source, target, drop_p, dup_p, extra_delay_mean))
        for (src, dst), state in self._links.items():
            if _matches(source, src) and _matches(target, dst):
                state.drop_p, state.dup_p, state.extra_delay_mean = (
                    drop_p, dup_p, extra_delay_mean,
                )

    def clear_fault(self, source: str = ANY, target: str = ANY) -> None:
        """Restore matching links to perfect reliability (partitions aside)."""
        self.set_fault(source, target, 0.0, 0.0, 0.0)

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Cut every link crossing between the two endpoint groups."""
        pair = (frozenset(group_a), frozenset(group_b))
        self._partitions.append(pair)
        for (src, dst), state in self._links.items():
            if _crosses(src, dst, *pair):
                state.partitions += 1

    def heal(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Undo one matching :meth:`partition` (partitions nest)."""
        pair = (frozenset(group_a), frozenset(group_b))
        try:
            self._partitions.remove(pair)
        except ValueError:
            raise ValueError(f"no active partition {sorted(pair[0])} | {sorted(pair[1])}")
        for (src, dst), state in self._links.items():
            if _crosses(src, dst, *pair) and state.partitions > 0:
                state.partitions -= 1


def _matches(pattern: str, endpoint: str) -> bool:
    return pattern == ANY or pattern == endpoint


def _crosses(source: str, target: str, group_a: frozenset, group_b: frozenset) -> bool:
    return (source in group_a and target in group_b) or (
        source in group_b and target in group_a
    )
