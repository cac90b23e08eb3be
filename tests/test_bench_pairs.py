"""``tools/bench_pairs.py``: the summary of alternating benchmark pairs.

The summary is checked on fixed numbers: the quartiles, the pair count the
change won (ties for neither side) and the claim rule, at least nine tenths
of the pairs won and a median gain beyond the parent's interquartile range.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # quartiles 12.25, 16.75


def test_quartiles_are_inclusive_and_one_value_is_all_three():
    assert pairs.quartiles(PARENT) == (12.25, 14.5, 16.75)
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_gain_beyond_the_parents_spread_in_every_pair_holds():
    change = [p - 5.0 for p in PARENT]
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["change"] == (7.25, 9.5, 11.75)
    assert s["relative"] == pytest.approx(-5.0 / 14.5)
    assert s["holds"]


def test_a_gain_within_the_parents_spread_does_not_hold():
    s = pairs.summarize(PARENT, [p - 4.0 for p in PARENT], "lower")  # 4.0 < IQR 4.5
    assert s["wins"] == 10 and not s["holds"]


def test_a_tie_and_a_loss_cost_the_claim():
    change = [p - 6.0 for p in PARENT]
    change[0] = PARENT[0]  # a tie counts for neither side
    assert pairs.summarize(PARENT, change, "lower")["wins"] == 9
    assert pairs.summarize(PARENT, change, "lower")["holds"]
    change[1] = PARENT[1] + 1.0
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and not s["holds"]


def test_higher_is_better_reverses_the_sign():
    s = pairs.summarize(PARENT, [p + 5.0 for p in PARENT], "higher")
    assert s["wins"] == 10 and s["holds"]
    assert pairs.summarize(PARENT, [p - 5.0 for p in PARENT], "higher")["wins"] == 0
