"""Deterministic random-number streams.

Every stochastic component (workload generator, think times, load balancer
tie-breaking, failure injection) draws from its own named stream derived
from a single experiment seed.  This makes whole-cluster experiments
reproducible bit-for-bit while keeping the streams statistically
independent.
"""

from __future__ import annotations

import array
import bisect
import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a child seed from ``root_seed`` and a path of stream names.

    Uses SHA-256 so that nearby root seeds produce unrelated child streams.
    """
    digest = hashlib.sha256()
    digest.update(str(root_seed).encode())
    for name in names:
        digest.update(b"/")
        digest.update(name.encode())
    return int.from_bytes(digest.digest()[:8], "big")


class RngStream:
    """A named, reproducible random stream (thin wrapper over ``random.Random``)."""

    def __init__(self, root_seed: int, *names: str) -> None:
        self.name = "/".join(names) if names else "root"
        self._rng = rng = random.Random(derive_seed(root_seed, *names))
        # Bind the hot draw methods straight to the underlying Random
        # instance: instance attributes shadow the wrapper methods below,
        # eliminating one Python frame per draw.  Pure aliasing — the draw
        # sequence is bit-for-bit identical to calling through the wrappers.
        self.random = rng.random
        self.randint = rng.randint
        self.uniform = rng.uniform
        self.choice = rng.choice
        self.shuffle = rng.shuffle
        self.getrandbits = rng.getrandbits

    def child(self, *names: str) -> "RngStream":
        """Derive a sub-stream; children are independent of the parent draws."""
        return RngStream(self._rng.randint(0, 2**62), self.name, *names)

    # -- primitive draws (shadowed by bound aliases set in __init__) -------
    def random(self) -> float:
        return self._rng.random()

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def uniform(self, a: float, b: float) -> float:
        return self._rng.uniform(a, b)

    def expovariate(self, mean: float) -> float:
        """Exponential draw parameterised by its *mean* (not rate)."""
        if mean <= 0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(seq, k)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        return self._rng.choices(list(items), weights=list(weights), k=1)[0]

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Return an index in ``[0, n)`` with Zipf(``skew``) rank weights.

        Implemented by inverse-transform sampling over the exact harmonic
        CDF (cached per ``(n, skew)``); used to model the high-locality
        access pattern the paper relies on (hot working set much smaller
        than the database).
        """
        if n <= 0:
            raise ValueError("zipf_index needs n >= 1")
        cdf = _zipf_cdf(n, skew)
        u = self._rng.random() * cdf[-1]
        return bisect.bisect_left(cdf, u)


def _zipf_cdf(n: int, skew: float) -> "array.array":
    """Cumulative (unnormalised) Zipf weights 1/k^skew for k = 1..n."""
    key = (n, skew)
    cached = _ZIPF_CDF_CACHE.get(key)
    if cached is None:
        cached = array.array("d")
        total = 0.0
        for k in range(1, n + 1):
            total += 1.0 / (k**skew)
            cached.append(total)
        _ZIPF_CDF_CACHE[key] = cached
    return cached


_ZIPF_CDF_CACHE: dict = {}
