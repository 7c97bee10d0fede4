"""The verdict and bound rules of scripts/bench_pair.py, on made-up paired
values."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)
verdict = bench_pair.verdict
against_bound = bench_pair.against_bound

# parent runs 100..109: median 104.5, quartiles 102.25 and 106.75 (spread 4.5)
PARENT = [100.0 + k for k in range(10)]


def test_all_pairs_won_by_a_wide_margin():
    change = [v + 20.0 for v in PARENT]
    assert verdict(PARENT, change, "higher") == "faster"
    assert verdict(PARENT, change, "lower") == "slower"


def test_nine_of_ten_is_enough_and_eight_is_not():
    nine = [v + 20.0 for v in PARENT[:9]] + [PARENT[9] - 1.0]
    eight = [v + 20.0 for v in PARENT[:8]] + [PARENT[8] - 1.0, PARENT[9] - 1.0]
    assert verdict(PARENT, nine, "higher") == "faster"
    assert verdict(PARENT, eight, "higher") == "unresolved"


def test_fewer_than_ten_pairs_are_unresolved():
    # five pairs all won by a wide margin: too few for nine of ten
    change = [v + 20.0 for v in PARENT[:5]]
    assert verdict(PARENT[:5], change, "higher") == "unresolved"
    assert verdict(PARENT[:5], change, "lower") == "unresolved"


def test_ties_count_for_neither_side():
    # 8 wins and 2 ties: 8/10 wins, short of nine tenths
    change = [v + 20.0 for v in PARENT[:8]] + PARENT[8:]
    assert verdict(PARENT, change, "higher") == "unresolved"
    # 9 wins and 1 tie still reach nine tenths
    change = [v + 20.0 for v in PARENT[:9]] + PARENT[9:]
    assert verdict(PARENT, change, "higher") == "faster"


def test_every_pair_won_but_medians_within_parent_spread():
    change = [v + 4.0 for v in PARENT]  # shift 4.0 <= spread 4.5
    assert verdict(PARENT, change, "higher") == "unresolved"
    change = [v + 5.0 for v in PARENT]
    assert verdict(PARENT, change, "higher") == "faster"


def test_lower_is_better_direction():
    setup = [0.15 + 0.001 * k for k in range(10)]
    assert verdict(setup, [v - 0.05 for v in setup], "lower") == "faster"
    assert verdict(setup, [v + 0.05 for v in setup], "lower") == "slower"
    assert verdict(setup, setup, "lower") == "unresolved"


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_mixed_pairs_unresolved(better):
    change = [v + (20.0 if k % 2 else -20.0) for k, v in enumerate(PARENT)]
    assert verdict(PARENT, change, better) == "unresolved"


def test_shift_within_and_beyond_bound_higher_is_better():
    # parent median 104.5: 20% lower is within a 0.25 bound, 30% lower is not
    shift, status = against_bound(PARENT, [0.8 * v for v in PARENT], "higher", 0.25)
    assert shift == pytest.approx(-0.2) and status == "within bound"
    shift, status = against_bound(PARENT, [0.7 * v for v in PARENT], "higher", 0.25)
    assert shift == pytest.approx(-0.3) and status == "beyond bound"
    # any gain is within bound, however large
    assert against_bound(PARENT, [3.0 * v for v in PARENT], "higher", 0.25)[1] == "within bound"


def test_shift_within_and_beyond_bound_lower_is_better():
    rss = [60.0 + 0.1 * k for k in range(10)]
    assert against_bound(rss, [1.05 * v for v in rss], "lower", 0.1)[1] == "within bound"
    assert against_bound(rss, [1.15 * v for v in rss], "lower", 0.1)[1] == "beyond bound"
    assert against_bound(rss, [0.5 * v for v in rss], "lower", 0.1)[1] == "within bound"


def test_bound_uses_medians_not_single_pairs():
    # one pair far worse moves neither median: still within bound
    change = list(PARENT)
    change[0] = 1.0
    shift, status = against_bound(PARENT, change, "higher", 0.25)
    assert abs(shift) < 0.02 and status == "within bound"


def test_seed_lists_mix_ranges_and_single_seeds():
    seeds = bench_pair._seeds
    assert seeds("1-10") == list(range(1, 11))
    assert seeds("1,4,7") == [1, 4, 7]
    assert seeds("21-30,101") == list(range(21, 31)) + [101]
    assert seeds("5") == [5]
