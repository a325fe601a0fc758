"""``benchmarks/pairs.py``'s verdict on paired runs: wins, medians, the parent's IQR."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py"
SPEC = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)


def test_a_gain_beyond_the_parents_spread_wins_every_pair():
    verdict = pairs.summarise([10.0, 11.0, 12.0, 13.0], [12.0, 13.0, 14.0, 15.0])
    assert verdict["wins"] == 4
    assert verdict["parent"]["median"] == 11.5 and verdict["change"]["median"] == 13.5
    assert (verdict["parent"]["q1"], verdict["parent"]["q3"]) == (10.75, 12.25)
    assert verdict["beyond_parent_iqr"]
    assert abs(verdict["median_change"] - 2 / 11.5) < 1e-12


def test_lower_is_better_counts_drops_as_wins_and_needs_more_than_the_iqr():
    verdict = pairs.summarise(
        [10.0, 11.0, 12.0, 13.0], [9.0, 10.0, 11.0, 12.0], higher_is_better=False
    )
    assert verdict["wins"] == 4
    assert not verdict["beyond_parent_iqr"]  # 1.0 apart, the parent's IQR is 1.5
