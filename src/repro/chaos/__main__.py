"""CLI entry point: ``PYTHONPATH=src python -m repro.chaos --plan NAME``.

Runs one plan of :data:`repro.chaos.plans.PLANS` at its declared seed and
length, prints the report (fault plan, client metrics, chaos counters,
invariant verdicts, fingerprint) and exits non-zero if the run failed any
of the plan's expectations: an invariant, the commit floor, a counter that
had to fire or stay zero.  With ``--trace`` the plan runs twice — untraced,
then traced — and the traced run must reproduce the untraced fingerprint;
this one invocation is the whole CI ``soak`` contract.
"""

from __future__ import annotations

import argparse
import sys

from repro.chaos.plans import PLANS
from repro.chaos.scenario import run_plan
from repro.obs import write_chrome_trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.chaos", description="Run one named, seeded chaos plan."
    )
    parser.add_argument(
        "--plan",
        choices=sorted(PLANS),
        default="default",
        help="named scenario (README 'Plans' has the table)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="experiment seed (default: the plan's)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="virtual seconds (default: the plan's; its expectations are "
        "calibrated for that length)",
    )
    parser.add_argument(
        "--expect-fingerprint",
        default=None,
        help="fail unless the metrics fingerprint matches (reproducibility gate)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="re-run with transaction spans recorded: must reproduce the "
        "untraced fingerprint; prints the per-stage latency table and "
        "writes a Chrome-trace JSON (see --trace-out)",
    )
    parser.add_argument(
        "--trace-out",
        default="chaos-trace.json",
        metavar="PATH",
        help="Chrome-trace output path when --trace is set "
        "(open in Perfetto / chrome://tracing)",
    )
    args = parser.parse_args(argv)

    plan = PLANS[args.plan]
    untraced = run_plan(plan, seed=args.seed, duration=args.duration)
    report = (
        run_plan(plan, seed=args.seed, duration=args.duration, trace=True)
        if args.trace
        else untraced
    )
    print(report.summary())
    if args.trace:
        events = write_chrome_trace(args.trace_out, report.tracer)
        print(f"trace: {events} events -> {args.trace_out}")
    failures = plan.failures(report)
    if report.fingerprint != untraced.fingerprint:
        failures.append(
            f"traced fingerprint {report.fingerprint} != untraced {untraced.fingerprint}"
        )
    if args.expect_fingerprint and report.fingerprint != args.expect_fingerprint:
        failures.append(
            f"fingerprint {report.fingerprint} != expected {args.expect_fingerprint}"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"plan {plan.name}: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
