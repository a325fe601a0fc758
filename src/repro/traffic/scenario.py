"""The traffic scenario DSL: tenants x rate shapes.

A :class:`TrafficScenario` is declarative data: a tuple of
:class:`TenantSpec` (each a named workload with its own rate shape,
arrival process, TPC-W mix, key skew, SLO and attempt ceiling), so "a
flash crowd on a hot conflict class beside a steady batch tenant" is one
literal::

    TrafficScenario(
        name="crowd-beside-batch",
        duration=200.0,
        tenants=(
            TenantSpec(
                "web",
                shape=ConstantRate(12.0) + BurstRate(extra=60.0, start=60.0, duration=30.0),
                mix="ordering",
                key_skew=1.1,
            ),
            TenantSpec("batch", shape=ConstantRate(2.0), mix="shopping", process="uniform"),
        ),
    )

The builders below are the load shapes of the open-loop entries of
:data:`repro.chaos.plans.PLANS`; a plan pairs each with a fault schedule
and a cost configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.traffic.arrivals import (
    BurstRate,
    ConstantRate,
    DiurnalRate,
    RateShape,
)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's offered load and service expectations."""

    name: str
    shape: RateShape
    #: TPC-W mix name (see :data:`repro.tpcw.mixes.MIXES`).
    mix: str = "ordering"
    #: Arrival process: ``poisson`` (thinned non-homogeneous) or
    #: ``uniform`` (deterministic pacing along the rate curve).
    process: str = "poisson"
    #: Zipf exponent over the tenant's session pool: > 0 concentrates
    #: requests on a few hot sessions (hot carts -> hot conflict classes);
    #: 0 picks sessions uniformly.
    key_skew: float = 0.0
    #: Latency SLO threshold for per-tenant attainment accounting.
    slo_latency: float = 1.0
    #: Per-request retry ceiling (the budget may cut retries off earlier).
    max_attempts: int = 8


@dataclass(frozen=True)
class TrafficScenario:
    """A composed load shape: tenants + duration."""

    name: str
    duration: float
    tenants: Tuple[TenantSpec, ...]
    #: Injection stops this many seconds before ``duration`` so in-flight
    #: requests and retransmissions drain before the invariant audit.
    settle: float = 25.0

    @property
    def inject_until(self) -> float:
        return max(0.0, self.duration - self.settle)

    def bursts(self) -> List[Tuple[float, float]]:
        """All tenants' deliberate surge windows, sorted by start."""
        out: List[Tuple[float, float]] = []
        for tenant in self.tenants:
            out.extend(tenant.shape.bursts())
        return sorted(out)

    def bursting_tenants(self) -> List[str]:
        return [t.name for t in self.tenants if t.shape.bursts()]

    def describe(self) -> str:
        parts = [
            f"{t.name}: {t.process} {t.shape.peak():g}/s peak, mix={t.mix}"
            + (f", zipf={t.key_skew:g}" if t.key_skew else "")
            for t in self.tenants
        ]
        return f"traffic scenario {self.name!r} ({'; '.join(parts)})"


def flash_crowd_scenario(
    duration: float = 200.0,
    base_rate: float = 12.0,
    burst_extra: float = 120.0,
    burst_start_frac: float = 0.3,
    burst_frac: float = 0.15,
) -> TrafficScenario:
    """The metastability demo: a Zipf-hot web tenant flash-crowds while a
    uniform batch tenant keeps its steady trickle.

    With defenses OFF the burst's retry amplification keeps the cluster
    saturated long after injection returns to the base rate; with the
    admission controller + deadlines + retry budgets ON, excess arrivals
    are shed cheaply at the door and goodput recovers within the
    burst-recovery window.
    """
    burst_start = round(duration * burst_start_frac, 3)
    burst_len = round(duration * burst_frac, 3)
    return TrafficScenario(
        name="flash-crowd",
        duration=duration,
        tenants=(
            TenantSpec(
                "web",
                shape=ConstantRate(base_rate)
                + BurstRate(extra=burst_extra, start=burst_start, duration=burst_len),
                mix="ordering",
                key_skew=1.1,
                slo_latency=1.0,
            ),
            TenantSpec(
                "batch",
                shape=ConstantRate(2.0),
                mix="shopping",
                process="uniform",
                slo_latency=2.0,
            ),
        ),
    )


def diurnal_scenario(
    duration: float = 240.0,
    base_rate: float = 10.0,
    amplitude: float = 0.6,
) -> TrafficScenario:
    """A day/night curve: load swings ±60 % around the base over 2 cycles."""
    return TrafficScenario(
        name="diurnal",
        duration=duration,
        tenants=(
            TenantSpec(
                "web",
                shape=DiurnalRate(base_rate, amplitude=amplitude, period=duration / 2.0),
                mix="shopping",
            ),
        ),
    )


def multi_tenant_scenario(duration: float = 200.0) -> TrafficScenario:
    """Three tenants with distinct mixes, processes and skew: the tenant
    isolation question (does one tenant's burst starve the others?)."""
    burst_start = round(duration * 0.35, 3)
    return TrafficScenario(
        name="multi-tenant",
        duration=duration,
        tenants=(
            TenantSpec(
                "storefront",
                shape=ConstantRate(8.0)
                + BurstRate(extra=40.0, start=burst_start, duration=round(duration * 0.1, 3)),
                mix="ordering",
                key_skew=0.9,
            ),
            TenantSpec("browse", shape=ConstantRate(6.0), mix="browsing"),
            TenantSpec(
                "reporting",
                shape=ConstantRate(1.5),
                mix="shopping",
                process="uniform",
                slo_latency=3.0,
            ),
        ),
    )
