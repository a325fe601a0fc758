"""Shared benchmark fixtures: figure-report collection and output files.

Each benchmark regenerates one paper table/figure and registers a textual
report; every simulated DMV run it makes is audited (:func:`audit`).  Reports are written to ``benchmarks/results/`` and echoed in the
pytest terminal summary so ``pytest benchmarks/ --benchmark-only`` shows
the reproduced rows/series directly.
"""

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

_REPORTS = []


@pytest.fixture
def figure_report():
    """Callable fixture: figure_report(name, text) records one report."""

    def record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text)
        _REPORTS.append((name, text))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("paper figure reproductions")
    for name, text in _REPORTS:
        terminalreporter.write_line(text)
        terminalreporter.write_line(f"[saved to benchmarks/results/{name}.txt]")


def audit(report) -> None:
    """Fail — never xfail — unless the settled cluster of ``report`` (a
    :class:`repro.chaos.RunReport`) passed every invariant."""
    failed = [str(result) for result in report.invariants if not result.ok]
    if failed:
        pytest.fail("invariants failed once the cluster settled:\n" + "\n".join(failed))


def quick_mode() -> bool:
    """REPRO_BENCH_QUICK=1 shrinks experiment durations (CI smoke runs)."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"
