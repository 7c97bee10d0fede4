"""Per-layer costs of the flow, in a parent revision and in the working tree.

    python3 scripts/layer_costs.py --parent HEAD [--change REV] [--rounds 10] [--out FILE]

Run from the root of a checkout; the change is its working tree, or with
``--change`` a revision.  Each revision is exported with ``git archive``
into a temporary directory, which is removed afterwards.  Every round is one
fresh process, with BLAS and OpenMP pinned to one thread as in
``bench/run.py``, that imports both trees' ``src/zeroflow`` side by side and
alternates between them batch by batch, so that both sides meet the same
load on a shared machine; the side that goes first alternates too.  Each
round times two layers at n = 10, 100 and 1000, for Hermite, Laguerre(0.5)
and Jacobi(0.3, 1.2), starting from their oracle zeros, and reports the
mean over the three specs (see ``costs``):

- ``residual``: one call of ``zeroflow.residual``;
- ``step``: one accepted Dormand-Prince step of ``zeroflow.integrate``, the
  difference between runs capped at two step budgets, divided by the
  steps between them.  At the zeros every step is accepted; a window with a
  rejected step is reported as an error.

Each figure is the fastest of several short batches or runs: on a shared
machine the slower ones measure the other load.  The script writes
``BENCH_layers.json`` (or ``--out``): the protocol, the environment, one
row per side, round, layer and n, and per layer and n the median and
quartiles over the rounds on each side, the change's median over the
parent's, the quartiles of the change's time over the parent's within a
round, in how many rounds the change was faster, and the verdict of
``bench_pair.verdict`` (see ``summarize``).  It prints one line per layer
and n.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pair  # noqa: E402
from same_results import THREADS  # noqa: E402

ROOT = bench_pair.ROOT
SIDES = ("parent", "change")
SIZES = (10, 100, 1000)
FAMILIES = (("hermite", ()), ("laguerre", (0.5,)), ("jacobi", (0.3, 1.2)))
LAYERS = ("residual", "step")
# residual: BATCHES batches per side of calls filling about BATCH_S each;
# step: REPEAT runs per side at each of the budgets FIRST and FIRST + STEPS[n]
BATCHES, BATCH_S = 15, 0.005
REPEAT, FIRST = 5, 3
STEPS = {10: 40, 100: 40, 1000: 6}


def _load(tree: str, name: str):
    """The zeroflow package of ``tree``, imported under ``name``."""
    init = os.path.join(tree, "src", "zeroflow", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _orders(count: int, first: int):
    """Side orders for ``count`` turns, alternating which side goes first,
    starting with side ``SIDES[first]``."""
    for k in range(count):
        yield SIDES if (k + first) % 2 == 0 else SIDES[::-1]


def _residual_s(calls: dict, first: int) -> dict:
    """Per side, the fastest batch mean of one call of ``calls[side]``."""
    reps = {}
    for side, fn in calls.items():
        start = time.perf_counter()
        fn()  # warm-up, which also sizes the batches
        reps[side] = max(1, int(BATCH_S / max(time.perf_counter() - start, 1e-7)))
    best = {side: np.inf for side in calls}
    for order in _orders(BATCHES, first):
        for side in order:
            start = time.perf_counter()
            for _ in range(reps[side]):
                calls[side]()
            best[side] = min(best[side], (time.perf_counter() - start) / reps[side])
    return best


def _step_s(runs: dict, n: int, first: int) -> dict:
    """Per side, seconds per accepted step: the fastest run at FIRST +
    STEPS[n] steps minus the fastest at FIRST steps, over STEPS[n].
    ``runs[side](budget)`` integrates with that step budget and returns the
    trajectory."""
    best = {(side, b): np.inf for side in runs for b in (FIRST, FIRST + STEPS[n])}
    rejected = {}
    for side in runs:
        for budget in (FIRST, FIRST + STEPS[n]):
            runs[side](budget)  # warm-up
    for order in _orders(REPEAT, first):
        for side in order:
            for budget in (FIRST, FIRST + STEPS[n]):
                start = time.perf_counter()
                traj = runs[side](budget)
                best[side, budget] = min(best[side, budget], time.perf_counter() - start)
                rejected[side, budget] = traj.rejected_steps
    out = {}
    for side in runs:
        if rejected[side, FIRST + STEPS[n]] != rejected[side, FIRST]:
            raise RuntimeError(f"{side}: a step was rejected at n = {n}")
        out[side] = (best[side, FIRST + STEPS[n]] - best[side, FIRST]) / STEPS[n]
    return out


def costs(trees: dict, first: int) -> dict:
    """{side: {layer: {n: seconds}}} for the zeroflow of each tree in
    ``trees`` (keyed by side), each the mean over the three specs, and the
    environment it ran in.  Side ``SIDES[first]`` goes first in the first
    turn."""
    zfs = {side: _load(tree, f"zeroflow_{side}") for side, tree in trees.items()}
    out = {side: {layer: {} for layer in LAYERS} for side in zfs}
    for n in SIZES:
        sums = {(side, layer): 0.0 for side in zfs for layer in LAYERS}
        for family, params in FAMILIES:
            calls, runs = {}, {}
            for side, zf in zfs.items():
                spec = zf.make_classical(getattr(zf.ClassicalFamily, family)(*params))
                start = zf.oracle_zeros(spec, n)
                calls[side] = lambda zf=zf, spec=spec, start=start: zf.residual(spec, start)
                runs[side] = lambda budget, zf=zf, spec=spec, start=start: zf.integrate(
                    spec, start,
                    zf.FlowOptions(residual_tol=1e-300, max_steps=budget, snapshot_stride=10**9),
                )  # fmt: skip
            for layer, got in (("residual", _residual_s(calls, first)),
                               ("step", _step_s(runs, n, first))):  # fmt: skip
                for side, seconds in got.items():
                    sums[side, layer] += seconds / len(FAMILIES)
        for (side, layer), seconds in sums.items():
            out[side][layer][str(n)] = seconds
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    environment = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREADS},
        "cpu_count": os.cpu_count(),
    }
    return {"costs": out, "environment": environment}


def summarize(rows: list[dict]) -> dict:
    """Per "layer n": each side's median and quartiles in microseconds, the
    change's median over the parent's, the median and quartiles of the
    change's time over the parent's within each round, the rounds in which
    the change took less time, and bench_pair's verdict with lower as
    better.  ``rows`` hold side, round, layer, n and seconds."""
    by = {(r["side"], r["round"], r["layer"], r["n"]): r["seconds"] for r in rows}
    rounds = sorted({r["round"] for r in rows})
    out = {}
    for layer in LAYERS:
        for n in SIZES:
            pairs = [(by["parent", k, layer, n], by["change", k, layer, n]) for k in rounds
                     if ("parent", k, layer, n) in by and ("change", k, layer, n) in by]  # fmt: skip
            if not pairs:
                continue
            parent, change = (np.array(side) for side in zip(*pairs))
            entry = {}
            for side, values in (("parent", parent), ("change", change)):
                q1, med, q3 = np.percentile(1e6 * values, [25, 50, 75])
                entry[side + "_us"] = {"median": round(float(med), 3), "q1": round(float(q1), 3),
                                       "q3": round(float(q3), 3)}  # fmt: skip
            entry["change_over_parent"] = round(float(np.median(change) / np.median(parent)), 3)
            # both sides of a round meet the same load, so their ratio is
            # steadier than either side across rounds
            q1, med, q3 = np.percentile(change / parent, [25, 50, 75])
            entry["ratio_per_round"] = {"median": round(float(med), 3), "q1": round(float(q1), 3),
                                        "q3": round(float(q3), 3)}  # fmt: skip
            entry["rounds_change_faster"] = f"{int(np.sum(change < parent))}/{len(pairs)}"
            entry["verdict"] = bench_pair.verdict(list(parent), list(change), "lower")
            out[f"{layer} n={n}"] = entry
    return out


def _costs_in(trees: dict, first: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--costs-of", json.dumps(trees),
           "--first", str(first)]  # fmt: skip
    env = dict(os.environ, **THREADS)
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="git revision of the parent")
    ap.add_argument("--change", help="git revision of the change (default: the working tree)")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", help="output file (default: BENCH_layers.json)")
    ap.add_argument("--costs-of", help=argparse.SUPPRESS)
    ap.add_argument("--first", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.costs_of:
        print(json.dumps(costs(json.loads(args.costs_of), args.first)))
        return 0
    if not args.parent:
        ap.error("--parent is required")

    rows, environment = [], None
    with tempfile.TemporaryDirectory(prefix="layer_costs_") as tmp:
        trees = bench_pair._trees(tmp, args.parent, args.change)
        for k in range(args.rounds):
            got = _costs_in(trees, k % 2)
            environment = environment or got["environment"]
            for side, per_layer in got["costs"].items():
                for layer, per_n in per_layer.items():
                    for n, seconds in per_n.items():
                        rows.append({"side": side, "round": k, "layer": layer,
                                     "n": int(n), "seconds": seconds})  # fmt: skip
            print(f"# round {k}: " + ", ".join(
                f"{layer} n={n} {1e6 * got['costs']['parent'][layer][n]:.1f} -> "
                f"{1e6 * got['costs']['change'][layer][n]:.1f} us"
                for layer in LAYERS for n in got["costs"]["parent"][layer]), file=sys.stderr)  # fmt: skip

    report = {
        "parent": bench_pair._git("rev-parse", "--short", args.parent),
        "change": bench_pair._git("rev-parse", "--short", args.change) if args.change else "working tree",
        "protocol": {
            "script": "python3 scripts/layer_costs.py " + " ".join(argv if argv is not None else sys.argv[1:]),
            "specs": "Hermite, Laguerre(0.5) and Jacobi(0.3, 1.2), from their oracle zeros; "
            "each figure is the mean over the three",
            "warmup": "one untimed call per side before every residual timing, one untimed "
            "run per side and step budget before every step timing",
            "repeat": f"residual: {BATCHES} batches per side of calls filling about "
            f"{BATCH_S:g} s each, the fastest batch mean; step: {REPEAT} runs per side "
            f"capped at {FIRST} steps and {REPEAT} capped at {FIRST} + k steps "
            f"(k = {STEPS}), the fastest of each, their difference over k",
            "pairing": "both trees imported side by side in one fresh process per round, "
            "alternating batch by batch; the side that goes first alternates with the round",
            "rounds": args.rounds,
            "median": "median and quartiles over the rounds of each side",
            "verdict": "bench_pair.verdict with lower as better: faster (slower) when the "
            "change wins (loses) at least 9/10 of the rounds and the medians differ by more "
            "than the parent's interquartile spread; unresolved otherwise",
        },
        "environment": environment,
        "summary": summarize(rows),
        "runs": rows,
    }
    out = args.out or os.path.join(ROOT, "BENCH_layers.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, entry in report["summary"].items():
        ratio = entry["ratio_per_round"]
        print(f"{name}: {entry['verdict']} ({entry['parent_us']['median']:g} -> "
              f"{entry['change_us']['median']:g} us, x{entry['change_over_parent']:g}; "
              f"per round x{ratio['median']:g} (quartiles {ratio['q1']:g}-{ratio['q3']:g}), "
              f"change faster in {entry['rounds_change_faster']} rounds)")  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
