"""The metastability demo: defenses-OFF vs defenses-ON under a flash crowd.

The arms are the ``overload-undefended`` and ``overload`` plans of
:data:`repro.chaos.plans.PLANS`: the *same* seeded open-loop flash-crowd
scenario on the *same* server shape (bounded update MPL + epoch commit on
a deliberately slow cost model); the only difference is the defense stack
(admission control, request deadlines, retry budgets, circuit breaking).

The headline number is **SLO-goodput degraded duration** after the burst
ends: with defenses off the burst's backlog and retry amplification keep
goodput below the recovery threshold long after offered load returns to
the base rate (the metastable failure state — often it never recovers);
with defenses on the excess is shed cheaply at the door and goodput
recovers within seconds.  The acceptance gate requires OFF to stay
degraded at least ``min_ratio`` (default 2x) longer than ON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.chaos.plans import DEFENSE_COUNTERS, PLANS
from repro.chaos.scenario import run_plan


@dataclass
class OverloadArm:
    """One arm (defenses on or off) of the comparison."""

    defenses: str
    fingerprint: str
    invariants_ok: bool
    invariant_failures: tuple
    pre_burst_rate: float
    recovered: bool
    degraded_duration: float
    slo_attainment: float
    counters: Dict[str, float]


@dataclass
class OverloadComparison:
    """Both arms + the degraded-duration ratio gate."""

    seed: int
    duration: float
    min_ratio: float
    off: OverloadArm
    on: OverloadArm

    @property
    def ratio(self) -> float:
        """OFF degraded duration over ON's (inf when ON recovers instantly)."""
        if self.off.degraded_duration <= 0:
            return 0.0
        if self.on.degraded_duration <= 0:
            return float("inf")
        return self.off.degraded_duration / self.on.degraded_duration

    @property
    def ok(self) -> bool:
        """ON must be healthy AND OFF must stay degraded >= min_ratio longer."""
        if not self.on.invariants_ok or not self.on.recovered:
            return False
        return self.off.degraded_duration >= self.min_ratio * max(
            self.on.degraded_duration, 1e-9
        )

    def summary(self) -> str:
        def arm_line(arm: OverloadArm) -> str:
            recovery = (
                f"degraded {arm.degraded_duration:.1f}s"
                + ("" if arm.recovered else " (never recovered)")
            )
            return (
                f"  defenses {arm.defenses:>3}: {recovery}, "
                f"slo={100.0 * arm.slo_attainment:.1f}%, "
                f"invariants {'OK' if arm.invariants_ok else 'FAIL'}, "
                f"fingerprint {arm.fingerprint}"
            )

        ratio = self.ratio
        ratio_text = "inf" if ratio == float("inf") else f"{ratio:.1f}"
        return "\n".join(
            [
                f"overload metastability demo (seed={self.seed}, "
                f"duration={self.duration:g}s, flash crowd):",
                arm_line(self.off),
                arm_line(self.on),
                f"  degraded-duration ratio OFF/ON = {ratio_text}x "
                f"(gate: >= {self.min_ratio:g}x) -> "
                + ("PASS" if self.ok else "FAIL"),
            ]
        )


#: Counters recorded per arm: the defense counters (they fire with the
#: defenses on and stay zero with them off) and the client-side totals.
_ARM_COUNTERS = DEFENSE_COUNTERS + (
    "traffic.breaker_short_circuits",
    "traffic.requests_injected",
    "bench.retries_exhausted",
)


def _run_arm(defenses: str, seed: int, duration: float) -> OverloadArm:
    plan = PLANS["overload" if defenses == "on" else "overload-undefended"]
    report = run_plan(plan, seed=seed, duration=duration)
    recovery = report.traffic.burst_recovery()
    pre_rate, recovered_at, degraded = recovery if recovery else (0.0, None, 0.0)
    totals = report.traffic.totals()
    return OverloadArm(
        defenses=defenses,
        fingerprint=report.fingerprint,
        invariants_ok=report.ok(),
        invariant_failures=tuple(
            str(result) for result in report.invariants if not result.ok
        ),
        pre_burst_rate=pre_rate,
        recovered=recovered_at is not None,
        degraded_duration=degraded,
        slo_attainment=totals.slo_attainment(),
        counters={
            name: report.counters.get(name, 0) for name in _ARM_COUNTERS
        },
    )


def run_overload_comparison(
    seed: int = 0,
    duration: float = 200.0,
    min_ratio: float = 2.0,
) -> OverloadComparison:
    """Run both arms of the flash-crowd comparison on one seed."""
    return OverloadComparison(
        seed=seed,
        duration=duration,
        min_ratio=min_ratio,
        off=_run_arm("off", seed, duration),
        on=_run_arm("on", seed, duration),
    )
