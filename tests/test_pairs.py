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


DECLARED = [
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "rss", "better": "lower", "bound": 0.1},
    {"name": "unmeasured", "better": "lower", "bound": 0.1},
]


def test_every_end_to_end_metric_gets_medians_its_bound_and_a_verdict():
    runs = {
        "parent": {"rate": [10.0, 11.0, 12.0, 13.0], "setup_s": [1.0, 1.0, 1.1, 1.1],
                   "rss": [100.0, 100.0, 101.0, 101.0]},
        "change": {"rate": [12.0, 13.0, 14.0, 15.0], "setup_s": [1.5, 1.5, 1.4, 1.4],
                   "rss": [100.0, 101.0, 100.0, 101.0]},
    }
    rows = {row["metric"]: row for row in pairs.end_to_end_table(runs, DECLARED)}
    assert set(rows) == {"rate", "setup_s", "rss"}  # what neither side measured is left out
    assert (rows["rate"]["parent"], rows["rate"]["change"], rows["rate"]["bound"]) == (11.5, 13.5, 0.25)
    assert rows["rate"]["verdict"] == "better"
    assert abs(rows["setup_s"]["delta"] - (1.45 / 1.05 - 1)) < 1e-12
    assert rows["setup_s"]["verdict"] == "worse"  # 38 % slower: beyond its 25 % bound
    assert rows["rss"]["verdict"] == "same"


def test_a_drop_within_the_bound_is_not_worse_and_a_zero_parent_has_a_verdict():
    runs = {
        "parent": {"rate": [10.0, 10.0, 10.0], "rss": [0.0, 0.0, 0.0]},
        "change": {"rate": [8.0, 8.0, 8.0], "rss": [0.0, 0.0, 0.0]},
    }
    rows = {row["metric"]: row for row in pairs.end_to_end_table(runs, DECLARED)}
    assert rows["rate"]["verdict"] == "same"  # -20 %, inside the 25 % bound
    assert (rows["rss"]["delta"], rows["rss"]["verdict"]) == (0.0, "same")
