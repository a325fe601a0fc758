#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name, correctness checked.

One run (what the PR driver calls)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

runs workload ``W`` in this process and prints, as the last line of stdout,
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics (tracing and profiling off), with ``--trace 1`` the
per-layer metrics (layer probes, a traced re-run, a profiled re-run).

One full set (what a person runs)::

    python3 benchmarks/perf/run.py --seed N [--workload W] [--out DIR]

runs each workload's two runs in fresh subprocesses, one after the other
(never two at once: host metrics need a quiet core), and writes
``DIR/result.json`` for ``compare.py``.  ``--smoke`` is the same at a tenth
of the length plus schema and determinism checks.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root; this file computes exactly that set or fails.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
# The program under test is this checkout's source tree, wherever it is.
sys.path.insert(0, str(REPO / "src"))

SETUP_REPEATS = 3
SMOKE_SHRINK = 0.1


def _with_units(section: str, values: Dict[str, float], problems: List[str]) -> Dict[str, dict]:
    """Attach declared units; names must match the declaration exactly."""
    units = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for name in sorted(set(units) ^ set(values)):
        problems.append(f"{section}: {name} is {'missing' if name in units else 'undeclared'}")
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{section}: {name} is {value}")
    return {
        name: {"value": values[name], "unit": units[name]}
        for name in units
        if name in values
    }


def _audit(run, problems: List[str]) -> Dict[str, int]:
    """Invariants all OK, every attempted interaction accounted for."""
    import metrics

    for result in run.invariants:
        if not result.ok:
            problems.append(f"invariant {result}")
    acct = metrics.accounting(run)
    if acct["in_flight"] != 0:
        problems.append(f"{acct['in_flight']} interactions still in flight at quiescence")
    if acct["attempted"] != acct["completed"] + acct["failed"] + acct["shed"] + acct["in_flight"]:
        problems.append(f"accounting does not close: {acct}")
    return acct


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            out_dir: Optional[Path]) -> dict:
    """One workload in this process; returns the detail record."""
    import layers
    import metrics
    import probes
    from workloads import BY_NAME, run_workload

    workload = BY_NAME[name]
    problems: List[str] = []
    repeats = 1 if (trace or smoke) else SETUP_REPEATS
    base = run_workload(workload, seed, seconds, setup_repeats=repeats)
    acct = _audit(base, problems)
    reference = metrics.fingerprint(base)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "sim_duration_s": base.sim_duration,
        "fingerprint": reference,
        "samples": {
            "interactions": len(base.cluster.metrics.latency),
            "commits": len(base.cluster.metrics.commit_latency),
        },
        "accounting": acct,
        "host": {
            "run_cpu_s": base.run_cpu_s,
            "run_wall_s": base.run_wall_s,
            "run_calibrated_s": base.run_calibrated_s,
            "setup_cpu_s": base.setup.cpu_s,
            "setup_wall_s": base.setup.wall_s,
            "setup_calibrated_s": base.setup.calibrated_s,
        },
        "latency_ms": {
            "interaction": metrics.latency_summary(base.cluster.metrics.latency),
            "commit": metrics.latency_summary(base.cluster.metrics.commit_latency),
        },
        "end_to_end": _with_units("end_to_end", metrics.end_to_end(base), problems),
    }
    if trace:
        values = probes.run_probes(SMOKE_SHRINK if smoke else 1.0)
        values.update(metrics.work_counts(base))
        completed, base_cpu = acct["completed"], base.run_calibrated_s
        del base  # three replica sets at once would triple peak memory

        traced = run_workload(workload, seed, seconds, trace=True)
        _audit(traced, problems)
        if metrics.fingerprint(traced) != reference:
            problems.append("traced run's fingerprint differs from the untraced run's")
        values.update(metrics.stage_figures(traced))
        values["obs.trace_overhead_ratio"] = traced.run_calibrated_s / base_cpu
        if out_dir is not None:
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(str(out_dir / f"{name}.chrome_trace.json"), traced.cluster.tracer)
        del traced

        profiler = cProfile.Profile()
        profiled = run_workload(workload, seed, seconds, around_run=profiler.runcall)
        if metrics.fingerprint(profiled) != reference:
            problems.append("profiled run's fingerprint differs from the untraced run's")
        values["obs.profile_overhead_ratio"] = profiled.run_calibrated_s / base_cpu
        shares, calls = layers.roll_up(profiler)
        for layer, share in shares.items():
            values[f"{layer}.host_share"] = share
        for layer in layers.CALL_COUNT_LAYERS:
            values[f"{layer}.calls_per_interaction"] = calls[layer] / completed
        detail["per_layer"] = _with_units("per_layer", values, problems)
    detail["problems"] = problems
    return detail


def _print_detail(detail: dict) -> None:
    acct, samples = detail["accounting"], detail["samples"]
    print(
        f"{detail['workload']}  seed={detail['seed']}  seconds={detail['seconds']:g}  "
        f"sim={detail['sim_duration_s']:g}s  fingerprint={detail['fingerprint']}"
    )
    print(
        f"  attempted={acct['attempted']} completed={acct['completed']} failed={acct['failed']} "
        f"shed={acct['shed']} retried={acct['retried']}  latency samples="
        f"{samples['interactions']} commit samples={samples['commits']}"
    )
    host = detail["host"]
    print(
        f"  run {host['run_calibrated_s']:.2f} calibrated cpu-s ({host['run_cpu_s']:.2f} raw, "
        f"{host['run_wall_s']:.2f} wall)  set-up {host['setup_calibrated_s']:.2f} "
        f"({host['setup_cpu_s']:.2f} raw, {host['setup_wall_s']:.2f} wall)"
    )
    for section in ("end_to_end", "per_layer"):
        for name, metric in detail.get(section, {}).items():
            print(f"  {name:34s} {metric['value']:16.6g} {metric['unit']}")
    for problem in detail["problems"]:
        print(f"  PROBLEM: {problem}")


def worker_main(args) -> int:
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    detail = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, out_dir)
    _print_detail(detail)
    if out_dir is not None:
        (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(
            json.dumps(detail, indent=1)
        )
    acct = detail["accounting"]
    result = {
        "correct": not detail["problems"],
        "attempted": acct["attempted"],
        "failed": acct["attempted"] - acct["completed"],
        "metrics": detail["per_layer" if args.trace else "end_to_end"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- full sets -------------------------------------------------------------------------
def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, capture_output=True, text=True, check=True
    ).stdout.strip()


def _environment() -> dict:
    try:
        sha = _git("rev-parse", "HEAD") + ("+dirty" if _git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # an exported checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def _spawn(name: str, seed: int, seconds: float, trace: int, out_dir: Path, smoke: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace), "--out", str(out_dir),
    ] + (["--smoke"] if smoke else [])
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    print(f"  [{name} --trace {trace}: exit {done.returncode}, "
          f"{time.perf_counter() - started:.1f} s wall]", flush=True)
    if done.returncode != 0:
        raise SystemExit(f"{name} --trace {trace} failed (exit {done.returncode})")
    return json.loads((out_dir / f"{name}.trace{trace}.json").read_text())


def set_main(args) -> int:
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    seconds = args.seconds * (SMOKE_SHRINK if args.smoke else 1.0)
    out_dir = Path(args.out) if args.out else HERE / "out" / ("smoke" if args.smoke else "set")
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = {
        "schema": 1,
        "seed": args.seed,
        "seconds": seconds,
        "environment": _environment(),
        "workloads": {},
    }
    for name in names:
        if args.smoke:
            # The traced invocation carries the untraced run's end-to-end
            # metrics too; the second process must reproduce its fingerprint.
            record = _spawn(name, args.seed, seconds, 1, out_dir, True)
            again = _spawn(name, args.seed, seconds, 0, out_dir, True)
            if again["fingerprint"] != record["fingerprint"]:
                raise SystemExit(f"{name}: same seed, another fingerprint in a second process")
        else:
            record = _spawn(name, args.seed, seconds, 0, out_dir, False)
            traced = _spawn(name, args.seed, seconds, 1, out_dir, False)
            if traced["fingerprint"] != record["fingerprint"]:
                raise SystemExit(f"{name}: --trace 1 fingerprint differs from --trace 0")
            record["per_layer"] = traced["per_layer"]
        result["workloads"][name] = record
    result["wall_s"] = time.perf_counter() - started
    path = out_dir / "result.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"{'smoke' if args.smoke else 'set'} OK: {len(names)} workload(s), "
          f"{result['wall_s']:.0f} s wall -> {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload in this process (needs --workload)")
    parser.add_argument("--out", help="directory for result / detail / Chrome-trace JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the length; schema and determinism checks")
    args = parser.parse_args(argv)
    if args.trace is None:
        return set_main(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return worker_main(args)


if __name__ == "__main__":
    sys.exit(main())
