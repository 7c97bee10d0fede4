"""Paired benchmark runs of a parent revision against a change.

    python3 scripts/bench_pair.py --workload flow --parent HEAD~1 \
        --seeds 1-10 [--seconds 15] [--trace 0|1] [--out FILE]

Run from the root of a checkout; the change is its working tree.  The
parent revision is exported with ``git archive`` into a temporary
directory, which is removed afterwards.  For every seed the script runs
``bench/run.py`` once on each side, back to back, and alternates which
side runs first.  It writes ``BENCH_<workload>.json`` (or ``--out``): the
protocol, the environment, one row per run, the median and quartiles of
every metric on each side, and for how many seeds the change did better.
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
    """'1-10' or '1,4,7'."""
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


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
    ratio, better = {}, {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        parent_median = out["parent"][name]["median"]
        ratio[name] = round(out["change"][name]["median"] / parent_median, 3) if parent_median else None
        wins = sum(sign * (by["change", s][name] - by["parent", s][name]) > 0 for s in seeds)
        better[name] = f"{wins}/{len(seeds)}"
    out["change_over_parent"] = ratio
    out["pairs_change_better"] = better
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="output file (default: BENCH_<workload>.json)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    parent_id = _git("rev-parse", "--short", args.parent)

    rows, environment = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        os.mkdir(trees["parent"])
        _export(args.parent, trees["parent"])
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
        "change": "working tree",
        "protocol": {
            "script": "python3 scripts/bench_pair.py " + " ".join(argv if argv is not None else sys.argv[1:]),
            "warmup": "bench/run.py makes one untimed call per code path before timing",
            "repeat": f"whole passes until {args.seconds:g} s have passed; ops_per_s is verified "
            "operations over their timed seconds",
            "setup_s": "median of 7 set-ups: the measured process and six fresh ones",
            "pairing": "one parent run and one change run per seed, back to back; "
            "the side that runs first alternates with the seed",
            "median": "median and quartiles over the seeds of each side",
        },
        "environment": environment,
        "summary": _summary(rows, metrics),
        "runs": rows,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps(report["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
