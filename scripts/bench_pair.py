"""Paired benchmark runs of a parent revision against a change.

    python3 scripts/bench_pair.py --workload flow --parent HEAD~1 \
        [--change REV] --seeds 1-10 [--seconds 15] [--trace 0|1] [--out FILE]

Run from the root of a checkout; the change is its working tree, or with
``--change`` a revision, so that ``--parent HEAD --change HEAD`` measures
the noise floor of two identical sides.  Each revision is exported with
``git archive`` into a temporary directory, which is removed afterwards.
For every seed the script runs ``bench/run.py`` once on each side, back to
back, and alternates which side runs first.  It writes ``BENCH_<workload>.json`` (or ``--out``): the
protocol, the environment, one row per run, the median and quartiles of
every metric on each side, for how many seeds the change did better, and
a verdict per metric (see ``verdict``), which it also prints.  For each
end-to-end metric it also prints and writes the change's relative median
shift against the metric's ``bound`` in BENCHMARK.json (see
``against_bound``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def _summary(rows: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in rows if r["side"] == side]
        out[side] = {}
        for m in metrics:
            values = [r[m["name"]] for r in mine]
            q1, med, q3 = np.percentile(values, [25, 50, 75])
            out[side][m["name"]] = {"median": round(float(med), 4), "q1": round(float(q1), 4),
                                    "q3": round(float(q3), 4), "runs": len(values)}  # fmt: skip
    seeds = sorted({r["seed"] for r in rows})
    by = {(r["side"], r["seed"]): r for r in rows}
    ratio, better, verdicts, bounds = {}, {}, {}, {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        parent = [by["parent", s][name] for s in seeds]
        change = [by["change", s][name] for s in seeds]
        parent_median = out["parent"][name]["median"]
        ratio[name] = round(out["change"][name]["median"] / parent_median, 3) if parent_median else None
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        better[name] = f"{wins}/{len(seeds)}"
        verdicts[name] = verdict(parent, change, m["better"])
        if "bound" in m:
            shift, status = against_bound(parent, change, m["better"], m["bound"])
            bounds[name] = {"shift": round(shift, 4), "bound": m["bound"], "status": status}
    out["change_over_parent"] = ratio
    out["pairs_change_better"] = better
    out["verdict"] = verdicts
    out["against_bound"] = bounds
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
    parent_id = _git("rev-parse", "--short", args.parent)
    change_id = _git("rev-parse", "--short", args.change) if args.change else "working tree"

    rows, environment = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {"change": ROOT}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            if rev:
                trees[side] = os.path.join(tmp, side)
                os.mkdir(trees[side])
                _export(rev, trees[side])
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for ran, side in zip(("first", "second"), order):
                run = _run(trees[side], args, seed)
                environment = environment or run["details"]["environment"]
                rows.append(_row(side, seed, ran, run))
                shown = {m["name"]: rows[-1][m["name"]] for m in metrics[:3]}
                print(f"# {side:6} seed={seed} correct={rows[-1]['correct']} "
                      f"failed={rows[-1]['failed']} {shown}", file=sys.stderr)  # fmt: skip

    report = {
        "workload": args.workload,
        "command": f"python3 bench/run.py --workload {args.workload} --seed N "
        f"--seconds {args.seconds:g} --trace {args.trace}",
        "parent": parent_id,
        "change": change_id,
        "protocol": {
            "script": "python3 scripts/bench_pair.py " + " ".join(argv if argv is not None else sys.argv[1:]),
            "warmup": "bench/run.py makes one untimed call per code path before timing",
            "repeat": f"whole passes until {args.seconds:g} s have passed; ops_per_s is verified "
            "operations over their timed seconds",
            "setup_s": "median of 7 set-ups: the measured process and six fresh ones",
            "pairing": "one parent run and one change run per seed, back to back; "
            "the side that runs first alternates with the seed",
            "median": "median and quartiles over the seeds of each side",
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
        line = (f"{name}: {summary['verdict'][name]} (change better in "
                f"{summary['pairs_change_better'][name]} pairs; median {parent['median']:g} "
                f"-> {change['median']:g}, parent quartiles {parent['q1']:g}-{parent['q3']:g})")  # fmt: skip
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
