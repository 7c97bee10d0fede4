"""The comparison rule of scripts/same_results.py, on made-up digests, and
the bytes it compares."""

import importlib.util
import math
import pathlib

from zeroflow import (
    ClassicalFamily,
    Configuration,
    PolynomialCoefficients,
    Snapshot,
    TerminationReason,
    Trajectory,
    make_classical,
)

_SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
_SPEC = importlib.util.spec_from_file_location("same_results", _SCRIPTS / "same_results.py")
same_results = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_results)
first_difference = same_results.first_difference
result_bytes = same_results.result_bytes

PARENT = [
    ["flow", 1, 0, "aa"], ["flow", 1, 1, "bb"],
    ["flow", 3, 0, "cc"], ["oracle", 1, 0, "dd"],
]  # fmt: skip


def test_identical_runs_have_no_difference():
    assert first_difference(PARENT, [list(row) for row in PARENT]) is None


def test_first_differing_case_in_parent_order():
    change = [list(row) for row in PARENT]
    change[3][3] = "xx"
    change[1][3] = "yy"
    assert first_difference(PARENT, change) == ("flow", 1, 1)


def test_order_of_the_change_side_does_not_matter():
    assert first_difference(PARENT, PARENT[::-1]) is None


def test_case_missing_on_either_side():
    assert first_difference(PARENT, PARENT[:-1]) == ("oracle", 1, 0)
    extra = PARENT + [["heat", 1, 0, "ee"]]
    assert first_difference(PARENT, extra) == ("heat", 1, 0)
    assert first_difference(extra, PARENT) == ("heat", 1, 0)


def _trajectory(accepted, t_last=0.5, reason=TerminationReason.CONVERGED):
    spec = make_classical(ClassicalFamily.hermite())
    snaps = (Snapshot(0.0, Configuration((-1.0, 1.0)), 1.0),
             Snapshot(t_last, Configuration((-1.0, 1.0)), 0.0))  # fmt: skip
    return Trajectory(snaps, spec, reason, accepted, 0)


def test_trajectory_bytes_cover_reason_steps_and_snapshots():
    base = result_bytes(_trajectory(5))
    assert result_bytes(_trajectory(5)) == base
    assert result_bytes(_trajectory(6)) != base
    assert result_bytes(_trajectory(5, t_last=0.5000000000000001)) != base
    assert result_bytes(_trajectory(5, reason=TerminationReason.MAX_TIME)) != base


def test_points_and_coefficients_to_the_last_bit():
    assert result_bytes(Configuration((0.0, 1.0))) != result_bytes(Configuration((-0.0, 1.0)))
    coeffs = PolynomialCoefficients((1.0, 2.0))
    assert result_bytes((coeffs, None)) != result_bytes((coeffs, Configuration((-0.5,))))


move = same_results.move
largest_moves = same_results.largest_moves


def test_one_ulp_move_reads_at_most_one():
    xs = [0.0, 1e-300, 0.3, 1.0, -1.0, 1.9999999999999998, 3.0, -7.5e5, 1e300]
    for direction in (math.inf, -math.inf):
        moved = [math.nextafter(x, direction) for x in xs]
        assert 0.0 < move(xs, moved) <= 1.0, direction
    assert move(xs, list(xs)) == 0.0
    assert move([1.0], [math.nextafter(1.0, 2.0)]) == 1.0


def test_move_of_answers_that_cannot_be_compared():
    assert move([1.0], [math.inf]) == math.inf
    assert move([1.0], [1.0, 2.0]) == math.inf
    assert move(None, [1.0]) == move([1.0], None) == math.inf


def test_largest_moves_count_differing_cases_per_workload():
    step = math.nextafter(2.0, 3.0) - 2.0  # 2 eps
    parent = [["oracle", 1, 0, "aa", [2.0, 5.0]], ["oracle", 1, 1, "bb", [1.0]],
              ["oracle", 3, 0, "cc", [1.0]], ["heat", 1, 0, "dd", [0.5]]]  # fmt: skip
    change = [["oracle", 1, 0, "xx", [2.0, 5.0 + 2 * step]], ["oracle", 1, 1, "yy", [2.0]],
              ["oracle", 3, 0, "cc", [1.0]], ["heat", 1, 0, "dd", [0.5]]]  # fmt: skip
    differ, cases, worst, where = largest_moves(parent, change)["oracle"]
    assert (differ, cases, where) == (2, 3, (1, 1))
    assert worst == 1.0 / same_results.EPS
    assert largest_moves(parent, [list(row) for row in parent]) == {}
    assert largest_moves(parent, parent[:-1])["heat"] == (1, 1, math.inf, (1, 0))
