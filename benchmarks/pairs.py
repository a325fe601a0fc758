#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

    python3 benchmarks/pairs.py --parent DIR [--change DIR] [--workload order_writes]
        [--pairs 10] [--seed 0] [--seconds 8] [--metric host_interactions_per_s]

Runs ``benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0``
in the parent checkout and in the change checkout (default: the one holding
this script), one run at a time, the side that goes first alternating from
pair to pair so that both see the same drift of the machine.  Every run of
both sides must print the same fingerprint: same seed, same simulated
cluster.  It prints each pair, then each side's median and interquartile
range, the change's win count and whether the medians lie further apart
than the parent's interquartile range (the test a host-time claim has to
pass), and appends one JSON line with all of it, and every end-to-end
metric of every run, to ``benchmarks/history.jsonl``.  Exits 1 if a fingerprint differs or a run
fails.  Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values):
    """(q1, median, q3) of ``values`` (inclusive method: exact for n >= 2)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(parent, change, higher_is_better=True):
    """The verdict figures of paired runs ``parent[i]`` / ``change[i]``."""
    sign = 1 if higher_is_better else -1
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    return {
        "parent": {"median": p_median, "q1": p_q1, "q3": p_q3, "values": parent},
        "change": {"median": c_median, "q1": c_q1, "q3": c_q3, "values": change},
        "wins": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
        "median_change": c_median / p_median - 1,
        "beyond_parent_iqr": sign * (c_median - p_median) > p_q3 - p_q1,
    }


def run_once(checkout: Path, args) -> dict:
    """One untraced run in ``checkout``: its metrics and fingerprint."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as out:
        done = subprocess.run(
            [sys.executable, "benchmarks/perf/run.py", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0",
             "--out", out],
            cwd=checkout, capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise SystemExit(f"{checkout}: run.py exited {done.returncode}\n{done.stderr}")
        detail = json.loads((Path(out) / f"{args.workload}.trace0.json").read_text())
    return {"metrics": {name: m["value"] for name, m in detail["end_to_end"].items()},
            "fingerprint": detail["fingerprint"]}


def revision(checkout: Path) -> str:
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=checkout, capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", type=Path, default=HERE.parent, help="change checkout")
    parser.add_argument("--workload", default="order_writes")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--metric", default="host_interactions_per_s")
    parser.add_argument("--history", type=Path, default=HERE / "history.jsonl")
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    higher = next(m for m in spec["end_to_end"] if m["name"] == args.metric)["better"] == "higher"

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": {}, "change": {}}  # every end-to-end metric, run by run
    fingerprints = set()
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args)
            for name, value in result["metrics"].items():
                runs[side].setdefault(name, []).append(value)
            fingerprints.add(result["fingerprint"])
        p, c = runs["parent"][args.metric][-1], runs["change"][args.metric][-1]
        print(f"pair {index + 1:2d}  parent {p:10.2f}  change {c:10.2f}  ({c / p - 1:+.1%})",
              flush=True)

    verdict = summarise(runs["parent"][args.metric], runs["change"][args.metric], higher)
    for side in ("parent", "change"):
        figures = verdict[side]
        print(f"{side:6s}  median {figures['median']:10.2f}  "
              f"IQR {figures['q1']:.2f}-{figures['q3']:.2f}")
    print(f"change wins {verdict['wins']} of {args.pairs}; median {verdict['median_change']:+.1%}; "
          f"beyond the parent's IQR: {'yes' if verdict['beyond_parent_iqr'] else 'no'}")
    same = len(fingerprints) == 1
    print(f"fingerprint {'identical: ' + next(iter(fingerprints)) if same else 'DIFFERS'}")
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "metric": args.metric, "pairs": args.pairs,
        "parent_rev": revision(sides["parent"]), "change_rev": revision(sides["change"]),
        "fingerprints": sorted(fingerprints), "end_to_end": runs, **verdict,
    }
    with args.history.open("a") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
