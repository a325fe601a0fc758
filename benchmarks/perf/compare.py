#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

For every (workload, end-to-end metric) prints A's value, B's value, the
relative change, the bound from ``BENCHMARK.json`` and a verdict:

* ``same`` — equal, or changed by no more than the bound;
* ``better`` / ``worse`` — B is beyond the bound in that direction;
* ``unresolved`` — not comparable: a value is missing or not finite, or the
  two sets ran another length.

Simulated metrics of one ``(seed, seconds)`` repeat exactly, so they are
compared exactly first; when they differ the bound decides and the row says
so.  Exits 1 when any row is ``worse``, 2 when none is but some are
``unresolved``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
#: Measured on the host's clock; every other end-to-end metric is simulated.
HOST_METRICS = {"host_interactions_per_s", "setup_s", "peak_rss_mb"}


def verdict(metric: dict, a, b, same_length: bool):
    """``(verdict, relative change or None, note)`` for one row."""
    if not same_length:
        return "unresolved", None, "run lengths differ"
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)) or a == 0:
        return "unresolved", None, "value missing, zero or not finite"
    change = (b - a) / abs(a)
    simulated = metric["name"] not in HOST_METRICS
    if a == b:
        return "same", change, "exact" if simulated else ""
    worsening = change if metric["better"] == "lower" else -change
    note = "simulated values differ; judged by the bound" if simulated else ""
    if worsening > metric["bound"]:
        return "worse", change, note
    if worsening < -metric["bound"]:
        return "better", change, note
    return "same", change, note


def compare(a_doc: dict, b_doc: dict):
    """Yield ``(workload, metric name, a, b, change, bound, verdict, note)``."""
    same_length = a_doc.get("seconds") == b_doc.get("seconds")
    for workload in (w["name"] for w in SPEC["workloads"]):
        a_run = a_doc["workloads"].get(workload)
        b_run = b_doc["workloads"].get(workload)
        if a_run is None and b_run is None:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = (a_run or {}).get("end_to_end", {}).get(name, {}).get("value")
            b = (b_run or {}).get("end_to_end", {}).get(name, {}).get("value")
            outcome, change, note = verdict(metric, a, b, same_length)
            if a_run and b_run and a_run["seed"] != b_run["seed"]:
                note = (note + "; " if note else "") + "seeds differ"
            yield workload, name, a, b, change, metric["bound"], outcome, note


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 64
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in argv)
    counts = {"same": 0, "better": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':20s} {'metric':26s} {'A':>14s} {'B':>14s} {'change':>9s} "
          f"{'bound':>7s}  verdict")
    for workload, name, a, b, change, bound, outcome, note in compare(a_doc, b_doc):
        counts[outcome] += 1
        shown = ["-" if v is None else f"{v:.6g}" for v in (a, b)]
        delta = "-" if change is None else f"{change:+.2%}"
        print(f"{workload:20s} {name:26s} {shown[0]:>14s} {shown[1]:>14s} {delta:>9s} "
              f"{bound:>7.1%}  {outcome}{'  (' + note + ')' if note else ''}")
    print("  ".join(f"{key}={value}" for key, value in counts.items()))
    if counts["worse"]:
        return 1
    return 2 if counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
