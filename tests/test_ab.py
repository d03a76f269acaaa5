"""The verdict, the value change and the output change of tools/ab.py, on synthetic
inputs (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

# the other tree's samples: median 1.045, quartile spread q3 - q1 = 0.055
OTHER = [1.0 + i / 100 for i in range(10)]


def _lower_by(gap: float, lost: int = 0, tied: int = 0) -> list:
    """OTHER less gap, except the first `lost` pairs (this tree slower) and the next `tied`."""
    return ([v + 0.5 for v in OTHER[:lost]] + OTHER[lost:lost + tied]
            + [v - gap for v in OTHER[lost + tied:]])


def test_nine_of_ten_with_a_gap_above_the_spread_passes():
    judged = ab.verdict(_lower_by(0.2, lost=1), OTHER, 0.25)
    assert judged.wins == (9, 1)
    assert judged.gain and judged.within


def test_eight_of_ten_fails():
    judged = ab.verdict(_lower_by(0.2, lost=2), OTHER, 0.25)
    assert judged.wins == (8, 2)
    assert not judged.gain


def test_a_gap_below_the_spread_fails():
    judged = ab.verdict(_lower_by(0.05), OTHER, 0.25)
    assert judged.wins == (10, 0)
    assert not judged.gain


@pytest.mark.parametrize("tied, gain", [(1, True), (2, False)])
def test_ties_count_for_neither(tied, gain):
    judged = ab.verdict(_lower_by(0.2, tied=tied), OTHER, 0.25)
    assert judged.wins == (10 - tied, 0)
    assert judged.gain is gain
    assert ab.wins(OTHER, OTHER) == (0, 0)


@pytest.mark.parametrize("factor, within", [(1.2, True), (1.3, False)])
def test_a_median_worse_by_more_than_the_bound_is_flagged(factor, within):
    judged = ab.verdict([factor * v for v in OTHER], OTHER, 0.25)
    assert judged.wins == (0, 10)
    assert judged.within is within and not judged.gain


def test_higher_is_better_flips_the_sides():
    judged = ab.verdict([v + 0.2 for v in OTHER], OTHER, 0.1, better="higher")
    assert judged.wins == (10, 0)
    assert judged.gain and judged.within


def _outcome_line(value: float) -> str:
    """A WRIGHT outcome line that holds value."""
    return f"{value.hex()} {(1e-16).hex()} 30"


def test_value_change_is_absolute_and_relative_to_at_least_one():
    assert ab.value_change(_outcome_line(0.25), _outcome_line(0.5)) == (0.25, 0.25)
    assert ab.value_change(_outcome_line(-300.0), _outcome_line(-200.0)) == (100.0, 0.5)


def test_output_change_is_largest_relative_change_and_differing_hashes():
    other = {"p": {"a": 0.5, "b": 2.0}, "S": 1.0, "gaps": {"a": 3},
             "csv_sha256": {"t1.csv": "ab", "t2.csv": "cd"}}
    this = {"p": {"a": 0.5, "b": 2.5}, "S": 0.9, "gaps": {"a": 3},
            "csv_sha256": {"t1.csv": "ab", "t2.csv": "ce"}}
    assert ab.output_change(this, other) == (0.25, 1)
    assert ab.output_change(other, other) == (0.0, 0)
    assert ab.output_change({"p": {"a": 0.0}}, {"p": {"a": 0.0, "b": 1.0}}) == (0.0, 1)
