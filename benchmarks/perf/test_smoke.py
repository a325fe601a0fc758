"""``pytest benchmarks/perf``: the benchmark's own smoke test (about a minute).

Outside tier-1's ``testpaths``: it checks the benchmark, not the program.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_smoke_run_reports_every_declared_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    result = json.loads((tmp_path / "result.json").read_text())
    assert sorted(result["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for record in result["workloads"].values():
        assert not record["problems"]
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            reported = {name: m["unit"] for name, m in record[section].items()}
            assert reported == declared
