"""Paired benchmark runs of a parent revision against a change, and the
tree-pair harness that every comparison script shares.

    python3 scripts/bench_pair.py --workload flow --parent HEAD~1 \
        [--change REV] --seeds 1-10 [--seconds 15] [--trace 0|1] [--out FILE]

Run from the root of a checkout.  Every script in ``scripts/`` that
compares two trees takes them from ``trees``: the parent revision, and the
change revision where a script has ``--change`` (this one and
``layer_costs.py``), each exported with ``git archive`` into a temporary
directory that is removed afterwards; otherwise the change is the working
tree.  ``--parent HEAD --change HEAD`` thus measures the noise floor of two
identical sides.  The comparing code comes from the working tree and the
measured code from each tree, run by ``call_in`` in a fresh process;
``paired`` holds the statistics of paired runs.

For every seed this script runs ``bench/run.py`` once on each side, back to
back, and alternates which side runs first.  It writes
``BENCH_<workload>.json`` (or ``--out``): the protocol, the environment,
one row per run, the median and quartiles of every metric on each side,
the quartiles of the change's value over the parent's within each pair,
for how many seeds the change did better, and a verdict per metric (see
``verdict``), which it also prints.  For each end-to-end metric it also
prints and writes the change's relative median shift against the metric's
``bound`` in BENCHMARK.json (see ``against_bound``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# one BLAS and OpenMP thread in every measuring process, as bench/run.py sets it
THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _seeds(text: str) -> list[int]:
    """Comma-separated seeds and inclusive ranges: '1-10', '1,4,7' or
    '21-30,101'."""
    seeds = []
    for item in text.split(","):
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def _export(ref: str, into: str) -> None:
    """The tree of ``ref``, without any git metadata, under ``into``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", ref],
        capture_output=True, check=True,
    )  # fmt: skip
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)


@contextlib.contextmanager
def trees(parent: str, change: str | None = None):
    """The tree of each side, keyed "parent" and "change": each revision
    given exported into a temporary directory that is removed on exit, and
    the working tree for a change not given."""
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        tree_of = {}
        for side, rev in (("parent", parent), ("change", change)):
            tree_of[side] = os.path.join(tmp, side) if rev else ROOT
            if rev:
                os.mkdir(tree_of[side])
                _export(rev, tree_of[side])
        yield tree_of


def revision(ref: str | None) -> str:
    """The short id of ``ref``, or "working tree" for a change not given."""
    return _git("rev-parse", "--short", ref) if ref else "working tree"


# the fresh process of call_in: argv holds the script, the function's name
# and its arguments as a JSON list
_CALL = ("import json, runpy, sys; f = runpy.run_path(sys.argv[1])[sys.argv[2]]; "
         "print(json.dumps(f(*json.loads(sys.argv[3]))))")  # fmt: skip


def call_in(tree: str, script: str, func: str, *args):
    """The JSON value of ``func(*args)``, a function of ``script``, run in a
    fresh process whose working directory is ``tree``, with THREADS
    pinned.  ``args`` travel as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", _CALL, os.path.abspath(script), func, json.dumps(args)],
        cwd=tree, env=dict(os.environ, **THREADS), stdout=subprocess.PIPE, text=True, check=True,
    )  # fmt: skip
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run(tree: str, args, seed: int) -> dict:
    """One benchmark run in ``tree``: its result line and saved details."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]  # fmt: skip
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    with open(os.path.join(tree, "bench", "out", stem + ".json")) as fh:
        details = json.load(fh)["details"]
    return {"result": result, "details": details}


def _row(side: str, seed: int, ran: str, run: dict) -> dict:
    result, details = run["result"], run["details"]
    row = {"side": side, "seed": seed, "ran": ran,
           "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "passes": details["passes"],
           "cpu_per_wall": round(details["cpu_per_wall"], 3)}  # fmt: skip
    row.update({k: round(m["value"], 4) for k, m in result["metrics"].items()})
    return row


def verdict(parent: list[float], change: list[float], better: str) -> str:
    """'faster', 'slower' or 'unresolved' for one metric over paired runs.

    ``parent[i]`` and ``change[i]`` are the two runs of pair i, and
    ``better`` is the metric's declared direction, "higher" or "lower".
    A side wins a pair when its value is better; ties count for neither.
    The change is faster when it wins at least nine tenths of the pairs
    and its median is better than the parent's by more than the parent's
    interquartile spread; slower is the same rule the other way round.
    For a metric that is not a time, faster means better in its direction.
    Fewer than ten pairs cannot meet the nine-in-ten rule: unresolved.
    """
    if len(parent) < 10:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (np.asarray(change, float) - np.asarray(parent, float))
    q1, q3 = np.percentile(parent, [25, 75])
    shift = sign * (np.median(change) - np.median(parent))
    if np.sum(gain > 0) >= 0.9 * gain.size and shift > q3 - q1:
        return "faster"
    if np.sum(gain < 0) >= 0.9 * gain.size and -shift > q3 - q1:
        return "slower"
    return "unresolved"


def against_bound(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[float, str]:
    """The change's relative median shift, median(change) / median(parent)
    - 1, and 'beyond bound' when that shift is worse, in the metric's
    declared direction ``better``, by more than ``bound``; 'within bound'
    otherwise.  This is the no-regression rule for end-to-end metrics.
    """
    shift = float(np.median(change) / np.median(parent) - 1.0)
    worse = -shift if better == "higher" else shift
    return shift, "beyond bound" if worse > bound else "within bound"


def _spread(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def paired(parent: list[float], change: list[float], better: str) -> dict:
    """The statistics of one metric over paired runs, ``parent[i]`` and
    ``change[i]`` being pair i and ``better`` the metric's direction:

    - "parent", "change": each side's median and quartiles;
    - "change_over_parent": the change's median over the parent's, None
      when the parent's is 0;
    - "ratio_per_pair": the median and quartiles of change[i] / parent[i],
      over the pairs with parent[i] != 0 (None when there is none): both
      runs of a pair meet the same load, so this ratio is steadier than
      either side across pairs;
    - "won": "k/N", the k of N pairs in which the change did better;
    - "verdict": ``verdict``.
    """
    parent, change = np.asarray(parent, float), np.asarray(change, float)
    sign = 1.0 if better == "higher" else -1.0
    median, kept = np.median(parent), parent != 0
    return {
        "parent": _spread(parent),
        "change": _spread(change),
        "change_over_parent": float(np.median(change) / median) if median else None,
        "ratio_per_pair": _spread(change[kept] / parent[kept]) if kept.any() else None,
        "won": f"{int(np.sum(sign * (change - parent) > 0))}/{parent.size}",
        "verdict": verdict(parent, change, better),
    }


def rounded(spread: dict | None, digits: int, scale: float = 1.0) -> dict | None:
    """A median and quartiles of ``paired``, times ``scale``, to ``digits``."""
    return spread and {key: round(scale * value, digits) for key, value in spread.items()}


def _summary(rows: list[dict], metrics: list[dict]) -> dict:
    seeds = sorted({r["seed"] for r in rows})
    by = {(r["side"], r["seed"]): r for r in rows}
    keys = ("parent", "change", "change_over_parent", "ratio_per_pair",
            "pairs_change_better", "verdict", "against_bound")  # fmt: skip
    out = {key: {} for key in keys}
    for m in metrics:
        name = m["name"]
        parent = [by["parent", s][name] for s in seeds]
        change = [by["change", s][name] for s in seeds]
        stats = paired(parent, change, m["better"])
        for side in ("parent", "change"):
            out[side][name] = {**rounded(stats[side], 4), "runs": len(seeds)}
        ratio = stats["change_over_parent"]
        out["change_over_parent"][name] = None if ratio is None else round(ratio, 3)
        out["ratio_per_pair"][name] = rounded(stats["ratio_per_pair"], 3)
        out["pairs_change_better"][name] = stats["won"]
        out["verdict"][name] = stats["verdict"]
        if "bound" in m:
            shift, status = against_bound(parent, change, m["better"], m["bound"])
            out["against_bound"][name] = {"shift": round(shift, 4), "bound": m["bound"], "status": status}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", help="git revision of the change (default: the working tree)")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="output file (default: BENCH_<workload>.json)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    metrics = declared["per_layer" if args.trace else "end_to_end"]

    rows, environment = [], None
    with trees(args.parent, args.change) as tree_of:
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for ran, side in zip(("first", "second"), order):
                run = _run(tree_of[side], args, seed)
                environment = environment or run["details"]["environment"]
                rows.append(_row(side, seed, ran, run))
                shown = {m["name"]: rows[-1][m["name"]] for m in metrics[:3]}
                print(f"# {side:6} seed={seed} correct={rows[-1]['correct']} "
                      f"failed={rows[-1]['failed']} {shown}", file=sys.stderr)  # fmt: skip

    report = {
        "workload": args.workload,
        "command": f"python3 bench/run.py --workload {args.workload} --seed N "
        f"--seconds {args.seconds:g} --trace {args.trace}",
        "parent": revision(args.parent),
        "change": revision(args.change),
        "protocol": {
            "script": "python3 scripts/bench_pair.py " + " ".join(argv if argv is not None else sys.argv[1:]),
            "warmup": "bench/run.py makes one untimed call per code path before timing",
            "repeat": f"whole passes until {args.seconds:g} s have passed; ops_per_s is verified "
            "operations over their timed seconds",
            "setup_s": "median of 7 set-ups: the measured process and six fresh ones",
            "pairing": "one parent run and one change run per seed, back to back; "
            "the side that runs first alternates with the seed",
            "median": "median and quartiles over the seeds of each side, and of the change's "
            "value over the parent's within each pair",
            "verdict": "faster (slower) when the change wins (loses) at least 9/10 of the "
            "pairs, ties counting for neither, and the medians differ by more than the "
            "parent's interquartile spread; unresolved otherwise",
            "against_bound": "end-to-end metrics only: the relative median shift, "
            "median(change) / median(parent) - 1, is beyond bound when it is worse, in "
            "the metric's direction, by more than the metric's bound in BENCHMARK.json",
        },
        "environment": environment,
        "summary": _summary(rows, metrics),
        "runs": rows,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    summary = report["summary"]
    for m in metrics:
        name = m["name"]
        parent, change = summary["parent"][name], summary["change"][name]
        ratio = summary["ratio_per_pair"][name]
        per_pair = f"x{ratio['median']:g} (quartiles {ratio['q1']:g}-{ratio['q3']:g})" if ratio else "-"
        line = (f"{name}: {summary['verdict'][name]} (change better in "
                f"{summary['pairs_change_better'][name]} pairs; median {parent['median']:g} "
                f"-> {change['median']:g}, parent quartiles {parent['q1']:g}-{parent['q3']:g}; "
                f"per pair {per_pair})")  # fmt: skip
        if summary["verdict"][name] == "unresolved":
            line += "; add pairs (20 or more) before quoting it"
        if name in summary["against_bound"]:
            b = summary["against_bound"][name]
            line += f"; median shift {b['shift']:+.2%} against bound {b['bound']:.0%}: {b['status']}"
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
