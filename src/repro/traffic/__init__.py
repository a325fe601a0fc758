"""Open-loop traffic engine: seeded arrival processes + scenario DSL.

The closed-loop TPC-W browser pool self-throttles — every in-flight
request delays the next one — so it can never produce the arrival bursts,
hot-key skew or retry storms that overload real clusters.  This package
injects requests at *scheduled virtual-clock times independent of
completions* (open loop), composed from seeded rate shapes (constant,
diurnal, flash crowd) per tenant, and drives them through the simulated
cluster with client-side retry budgets and circuit breaking.

Entry points:

* :mod:`repro.traffic.arrivals` — rate shapes and arrival processes.
* :mod:`repro.traffic.scenario` — the scenario DSL (tenants + shapes; a
  :class:`~repro.chaos.plans.Plan` adds the fault schedule).
* :mod:`repro.traffic.engine` — the open-loop injector.
* ``python -m repro.chaos --plan overload`` (or ``overload-undefended``,
  ``diurnal``, ``multi-tenant``) — run one of the named scenarios.
"""

from repro.traffic.arrivals import (
    BurstRate,
    CompositeRate,
    ConstantRate,
    DiurnalRate,
    RateShape,
    iter_arrivals,
)
from repro.traffic.budget import CircuitBreaker, RetryBudget
from repro.traffic.engine import OpenLoopEngine, TenantStats, TrafficStats
from repro.traffic.scenario import (
    TenantSpec,
    TrafficScenario,
    diurnal_scenario,
    flash_crowd_scenario,
    multi_tenant_scenario,
)

__all__ = [
    "BurstRate",
    "CircuitBreaker",
    "CompositeRate",
    "ConstantRate",
    "DiurnalRate",
    "OpenLoopEngine",
    "RateShape",
    "RetryBudget",
    "TenantSpec",
    "TenantStats",
    "TrafficScenario",
    "TrafficStats",
    "diurnal_scenario",
    "flash_crowd_scenario",
    "iter_arrivals",
    "multi_tenant_scenario",
]
