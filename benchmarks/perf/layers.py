"""Host-time attribution: cProfile self time rolled up by ``src/repro/<package>/``.

The generator-based layers (``cluster``, ``tpcw``, ``traffic``) cannot be
timed by wrapping their entry points — a generator's frames run inside
whoever drives it — so the instrument is the profiler's per-function self
time, summed by the package a function's file belongs to.  Self time of
built-ins and the standard library (``dict.get``, ``heapq.heappush``,
``sorted`` …) is charged to the package that called them, through the
profile's caller edges.  ``cProfile`` taxes every Python call but not work
inside native code, so the shares are a guide to where to look, not a
prediction of the saving; ``obs.profile_overhead_ratio`` says how heavy the
tax was.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

import repro

#: Layers reported by name; every other file (``obs``, ``disk``, ``chaos``,
#: ``bench``, the benchmark's own frames) lands in ``other``.
LAYERS = (
    "sim", "storage", "engine", "sql", "core", "cluster",
    "scheduler", "failover", "tpcw", "traffic", "common",
)
CALL_COUNT_LAYERS = LAYERS[:7]
_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _layer_of(filename: str):
    """The layer a source file belongs to; None for built-ins and stdlib."""
    if not filename.startswith(_PACKAGE_ROOT):
        return None
    package = filename[len(_PACKAGE_ROOT):].split(os.sep, 1)[0]
    return package if package in LAYERS else "other"


def roll_up(profiler) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(self-time share per layer incl. "other", call count per layer)``."""
    stats = pstats.Stats(profiler).stats  # func -> (cc, nc, tt, ct, callers)
    owners_of: Dict[tuple, Dict[str, float]] = {}

    def owners(func: tuple, path: frozenset) -> Dict[str, float]:
        """Which layers a non-repro function's self time is charged to."""
        layer = _layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        known = owners_of.get(func)
        if known is not None:
            return known
        callers = stats[func][4] if func in stats else {}
        # callers: caller func -> (nc, cc, tt, ct); tt is this function's
        # self time while called from that caller.
        total = sum(edge[2] for edge in callers.values())
        if func in path or total <= 0:
            return {"other": 1.0}
        shares: Dict[str, float] = {}
        for caller, edge in callers.items():
            for name, weight in owners(caller, path | {func}).items():
                shares[name] = shares.get(name, 0.0) + weight * edge[2] / total
        owners_of[func] = shares
        return shares

    seconds = dict.fromkeys(LAYERS + ("other",), 0.0)
    calls = dict.fromkeys(LAYERS + ("other",), 0)
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = _layer_of(func[0])
        if layer is not None:
            calls[layer] += nc
        for name, weight in owners(func, frozenset()).items():
            seconds[name] += tt * weight
    total = sum(seconds.values())
    return {name: value / total for name, value in seconds.items()}, calls
