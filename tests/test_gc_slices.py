"""``benchmarks/gc_slices.py`` still runs on this source and the frozen harness.

The script imports ``benchmarks/perf`` as it is (no copy), so a change to
what the harness calls would break it quietly; this runs it once, short, in
its own process, and reads its table back.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_gc_slices_prints_one_row_per_timed_slice():
    done = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "gc_slices.py"), "--seconds", "0.3"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("hot_scaleout  seed=0  seconds=0.3")
    rows = [line.split() for line in lines[2:-2]]
    assert [int(row[0]) for row in rows] == list(range(1, 17))
    for row in rows:
        rate, cpu, gen0, gen1, gen2, gc_s, full_s = map(float, row[1:])
        assert rate > 0 and cpu > 0 and min(gen0, gen1, gen2, gc_s, full_s) >= 0
    assert lines[-2].startswith("median rate ")
    final = re.fullmatch(
        r"tracked heap after the quiesced run: (\d+) objects; (\d+) when the run started "
        r"\(x(\d+\.\d\d)\)",
        lines[-1],
    )
    assert final, lines[-1]
    after, started, ratio = int(final[1]), int(final[2]), float(final[3])
    assert after > 0 and started > 0 and ratio == round(after / started, 2)
