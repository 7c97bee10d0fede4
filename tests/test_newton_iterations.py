"""The comparison rule of scripts/newton_iterations.py, on made-up counts."""

import importlib.util
import pathlib

_SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
_SPEC = importlib.util.spec_from_file_location("newton_iterations", _SCRIPTS / "newton_iterations.py")
newton_iterations = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(newton_iterations)
compare = newton_iterations.compare

PARENT = [
    ["newton", "seed 1 case 0", 9, None], ["newton", "seed 1 case 1", 8, None],
    ["mapped", "a n=13 equispaced", 5, None], ["mapped", "a n=13 seeded", 6, "MaxIterExceeded"],
]  # fmt: skip


def test_totals_per_group_and_cases_that_take_more():
    change = [
        ["newton", "seed 1 case 0", 7, None], ["newton", "seed 1 case 1", 8, None],
        ["mapped", "a n=13 equispaced", 6, None], ["mapped", "a n=13 seeded", 4, None],
    ]  # fmt: skip
    out = compare(PARENT, change)
    assert out["totals"] == {"newton": (2, 17, 15), "mapped": (2, 11, 10)}
    assert out["more"] == [("a n=13 equispaced", 5, 6)]
    assert out["raised"] == [("a n=13 seeded", "MaxIterExceeded", None)]


def test_identical_counts_take_no_more():
    out = compare(PARENT, [list(row) for row in PARENT])
    assert out["more"] == [] and out["totals"]["newton"] == (2, 17, 17)


def test_only_cases_both_sides_have_are_counted():
    out = compare(PARENT, PARENT[:1] + [["newton", "seed 2 case 0", 50, None]])
    assert out["totals"] == {"newton": (1, 9, 9)}
