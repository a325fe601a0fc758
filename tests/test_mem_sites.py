"""``benchmarks/mem_sites.py`` still runs on this source and the frozen harness.

Like ``test_gc_slices.py``: the script imports ``benchmarks/perf`` as it is,
so this runs it short, in its own process, once per snapshot point (``--at``),
and reads its table back.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def mem_sites(*args):
    """The script's header lines and its table rows, run short."""
    done = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "mem_sites.py"), "--seconds", "0.3",
         "--top", "5", *args],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("hot_scaleout  seed=0  seconds=0.3")
    assert lines[1].startswith("ru_maxrss ") and "not peak_rss_mb" in lines[1]
    assert lines[2].startswith("traced current ")
    rows = [line.split() for line in lines[4:]]
    assert len(rows) == 5
    sizes = [float(row[0]) for row in rows]
    assert sizes == sorted(sizes, reverse=True) and sizes[-1] > 0
    for _kib, blocks, where in rows:
        assert int(blocks) > 0 and where.rpartition(":")[2].isdigit()
    assert rows[0][2].startswith("src/repro/")
    return lines[0]


def test_mem_sites_prints_the_largest_retained_sites():
    assert mem_sites().endswith("  at=settle")


def test_mem_sites_at_setup_snapshots_before_the_first_event():
    assert mem_sites("--at", "setup").endswith("  at=setup")


def test_mem_sites_at_growth_prints_what_the_run_added_by_site():
    assert mem_sites("--at", "growth").endswith("  at=growth")
