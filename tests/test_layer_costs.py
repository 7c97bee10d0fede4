"""The record and comparison rules of scripts/layer_costs.py, on made-up
costs."""

import importlib.util
import json
import pathlib
import sys

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "layer_costs.py"
_SPEC = importlib.util.spec_from_file_location("layer_costs", _PATH)
layer_costs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_costs)
summarize = layer_costs.summarize


def _rows(parent, change, layer="residual", n=10):
    """Rows of one layer and n, round k holding parent[k] and change[k]."""
    rows = []
    for k, (a, b) in enumerate(zip(parent, change)):
        rows.append({"side": "parent", "round": k, "layer": layer, "n": n, "seconds": a})
        rows.append({"side": "change", "round": k, "layer": layer, "n": n, "seconds": b})
    return rows


# parent rounds of 10..19 us: median 14.5, quartiles 12.25 and 16.75
PARENT = [1e-6 * (10 + k) for k in range(10)]


def test_faster_in_every_round_by_a_wide_margin():
    entry = summarize(_rows(PARENT, [0.6 * v for v in PARENT]))["residual n=10"]
    assert entry["verdict"] == "faster"
    assert entry["rounds_change_faster"] == "10/10"
    assert entry["change_over_parent"] == pytest.approx(0.6)
    assert entry["parent_us"] == {"median": 14.5, "q1": 12.25, "q3": 16.75}
    assert entry["ratio_per_round"] == {"median": 0.6, "q1": 0.6, "q3": 0.6}


def test_ratio_per_round_is_steady_where_both_sides_share_the_load():
    # every other round runs twice as slow on both sides: the parent's
    # spread hides a 20% gain that every round's ratio shows
    load = [1.0 if k % 2 else 2.0 for k in range(10)]
    parent = [20e-6 * f for f in load]
    entry = summarize(_rows(parent, [0.8 * v for v in parent]))["residual n=10"]
    assert entry["rounds_change_faster"] == "10/10" and entry["verdict"] == "unresolved"
    assert entry["ratio_per_round"] == {"median": 0.8, "q1": 0.8, "q3": 0.8}


def test_slower_in_every_round_is_slower():
    entry = summarize(_rows(PARENT, [1.5 * v for v in PARENT]))["residual n=10"]
    assert entry["verdict"] == "slower" and entry["rounds_change_faster"] == "0/10"


def test_a_shift_inside_the_parent_spread_is_unresolved():
    # every round won, but by 0.5 us against a spread of 4.5 us
    entry = summarize(_rows(PARENT, [v - 0.5e-6 for v in PARENT]))["residual n=10"]
    assert entry["rounds_change_faster"] == "10/10" and entry["verdict"] == "unresolved"


def test_fewer_than_ten_rounds_are_unresolved():
    entry = summarize(_rows(PARENT[:5], [0.5 * v for v in PARENT[:5]]))["residual n=10"]
    assert entry["verdict"] == "unresolved"


def test_layers_and_sizes_are_kept_apart():
    rows = _rows(PARENT, [0.5 * v for v in PARENT], "step", 100)
    rows += _rows(PARENT, [2.0 * v for v in PARENT], "residual", 1000)
    out = summarize(rows)
    assert set(out) == {"step n=100", "residual n=1000"}
    assert out["step n=100"]["verdict"] == "faster"
    assert out["residual n=1000"]["verdict"] == "slower"


def test_rounds_one_side_lacks_are_left_out():
    rows = _rows(PARENT, [0.5 * v for v in PARENT])
    rows.append({"side": "parent", "round": 10, "layer": "residual", "n": 10, "seconds": 1.0})
    assert summarize(rows)["residual n=10"]["rounds_change_faster"] == "10/10"


def _stub_rounds(monkeypatch, seconds):
    """Replace git, the export and the timed processes, each of which
    reports ``seconds[side]`` for every layer and n; return the exports and
    the (trees, first side) of every process, in order."""
    exported, ran = [], []

    def costs_in(trees, first):
        ran.append((trees, first))
        got = {side: {layer: {str(n): seconds[side] for n in layer_costs.SIZES}
                      for layer in layer_costs.LAYERS} for side in trees}  # fmt: skip
        return {"costs": got, "environment": {"numpy": "x", "blas": "y", "threads": {}}}

    monkeypatch.setattr(layer_costs.bench_pair, "_git", lambda *args: f"id:{args[-1]}")
    monkeypatch.setattr(layer_costs.bench_pair, "_export", lambda ref, into: exported.append((ref, into)))
    monkeypatch.setattr(layer_costs, "_costs_in", costs_in)
    return exported, ran


def test_record_alternates_sides_and_holds_the_protocol(monkeypatch, tmp_path):
    exported, ran = _stub_rounds(monkeypatch, {"parent": 1e-5, "change": 1e-5})
    out = tmp_path / "layers.json"
    assert layer_costs.main(["--parent", "HEAD", "--rounds", "3", "--out", str(out)]) == 0
    [(ref, parent_tree)] = exported
    assert ref == "HEAD"
    trees = {"parent": parent_tree, "change": layer_costs.ROOT}
    # one process per round, with both trees; the first side alternates
    assert ran == [(trees, 0), (trees, 1), (trees, 0)]
    report = json.loads(out.read_text())
    assert report["parent"] == "id:HEAD" and report["change"] == "working tree"
    assert report["protocol"]["rounds"] == 3
    for key in ("warmup", "repeat", "pairing", "median", "verdict", "specs"):
        assert report["protocol"][key]
    assert report["environment"] == {"numpy": "x", "blas": "y", "threads": {}}
    # one row per side, round, layer and n
    assert len(report["runs"]) == 2 * 3 * len(layer_costs.LAYERS) * len(layer_costs.SIZES)
    assert set(report["summary"]) == {
        f"{layer} n={n}" for layer in layer_costs.LAYERS for n in layer_costs.SIZES
    }


def test_a_change_revision_is_exported_like_the_parent(monkeypatch, tmp_path):
    exported, ran = _stub_rounds(monkeypatch, {"parent": 1e-5, "change": 1e-5})
    argv = ["--parent", "HEAD~1", "--change", "HEAD", "--rounds", "1",
            "--out", str(tmp_path / "layers.json")]  # fmt: skip
    assert layer_costs.main(argv) == 0
    (parent_ref, parent_tree), (change_ref, change_tree) = exported
    assert (parent_ref, change_ref) == ("HEAD~1", "HEAD")
    assert ran == [({"parent": parent_tree, "change": change_tree}, 0)]


def test_record_of_a_faster_change(monkeypatch, tmp_path):
    _stub_rounds(monkeypatch, {"parent": 2e-5, "change": 1e-5})
    out = tmp_path / "layers.json"
    assert layer_costs.main(["--parent", "HEAD~1", "--rounds", "10", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    for entry in summary.values():
        assert entry["parent_us"]["median"] == 20.0 and entry["change_us"]["median"] == 10.0
        assert entry["change_over_parent"] == 0.5
        # the parent's spread is zero, so any shift in every round is faster
        assert entry["verdict"] == "faster"


def test_orders_alternate_the_side_that_goes_first():
    assert list(layer_costs._orders(3, 0)) == [("parent", "change"), ("change", "parent"),
                                               ("parent", "change")]  # fmt: skip
    assert list(layer_costs._orders(2, 1)) == [("change", "parent"), ("parent", "change")]


def test_each_tree_is_imported_under_its_own_name():
    root = layer_costs.ROOT
    try:
        one = layer_costs._load(root, "zeroflow_layer_a")
        two = layer_costs._load(root, "zeroflow_layer_b")
        assert one is not two and one.integrate is not two.integrate
        assert one.integrate.__module__ == "zeroflow_layer_a.flow"
    finally:
        for name in [m for m in sys.modules if m.startswith("zeroflow_layer_")]:
            del sys.modules[name]
