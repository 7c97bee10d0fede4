"""Byte-for-byte comparison of the benchmark's answers between a parent
revision and the working tree.

    python3 scripts/same_results.py --parent HEAD~1 [--seeds 1,3]

Run from the root of a checkout; the trees and the fresh process per tree
are ``bench_pair``'s.  In each tree the process imports that tree's
``bench/workloads.py`` and ``src/zeroflow``, runs every case of pass 0 of
every workload for every seed, and reduces each answer to bytes (see
``result_bytes``) and to its numbers (see ``result_values``).  When some
bytes differ, the script prints the first (workload, seed, case) that
differs, then for each workload how many cases differ and the largest move
of a number in units of eps * max(1, |x|) (see ``largest_moves``), and
exits 1.  Otherwise it prints that every case is identical and exits 0.
It only reads ``bench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pair  # noqa: E402

EPS = float(np.finfo(float).eps)


def result_bytes(result) -> bytes:
    """The bytes two identical answers share: the points or coefficients,
    and for a trajectory also its termination reason, its step counts and
    every snapshot's t, residual norm and points."""
    if result is None:
        return b"none"
    if isinstance(result, tuple):  # heat: coefficients, then roots or None
        return b"|".join(result_bytes(part) for part in result)
    if hasattr(result, "snapshots"):
        head = f"{result.terminated_by.name} {result.accepted_steps} {result.rejected_steps}"
        snaps = [np.array([s.t, s.residual_norm, *s.config.points]).tobytes() for s in result.snapshots]
        return b"|".join([head.encode(), *snaps])
    if hasattr(result, "points"):
        return np.array(result.points, dtype=float).tobytes()
    return np.array(result.coeffs, dtype=float).tobytes()


def result_values(result) -> list[float]:
    """The numbers whose moves are measured: the points or coefficients, for
    a trajectory its final points, and for heat the coefficients followed by
    the roots."""
    if result is None:
        return []
    if isinstance(result, tuple):
        return [v for part in result for v in result_values(part)]
    if hasattr(result, "snapshots"):
        return list(result.final.config.points)
    if hasattr(result, "points"):
        return list(result.points)
    return list(result.coeffs)


def digests(tree: str, seeds: list[int]) -> list[list]:
    """[workload, seed, case, sha256 of the answer's bytes, the answer's
    numbers] for every case of pass 0, imported from ``tree``; a case that
    raises is digested by its exception and has None for its numbers."""
    sys.path[:0] = [os.path.join(tree, "bench"), os.path.join(tree, "src")]
    import workloads

    rows = []
    for name, load in workloads.WORKLOADS.items():
        for seed in seeds:
            for case_index, case in enumerate(load(seed).cases_for_pass(0)):
                try:
                    result = case.call()
                    data, values = result_bytes(result), result_values(result)
                except Exception as exc:  # noqa: BLE001 - a failure is an answer too
                    data, values = f"raised {type(exc).__name__}: {exc}".encode(), None
                rows.append([name, seed, case_index, hashlib.sha256(data).hexdigest(), values])
    return rows


def first_difference(parent: list[list], change: list[list]) -> tuple | None:
    """The first (workload, seed, case), in the parent's order, whose digest
    differs between the two sides or that only one side has; None when
    every case is identical."""
    ours = {tuple(row[:3]): row[3] for row in parent}
    theirs = {tuple(row[:3]): row[3] for row in change}
    for key in [*ours, *(k for k in theirs if k not in ours)]:
        if ours.get(key) != theirs.get(key):
            return key
    return None


def move(parent: list[float] | None, change: list[float] | None) -> float:
    """The largest |change - parent| over an answer's numbers, in units of
    eps * max(1, |parent|): inf when either side raised, the lengths differ
    or a number that moved is not finite."""
    if parent is None or change is None or len(parent) != len(change):
        return math.inf
    worst = 0.0
    for a, b in zip(parent, change):
        if a == b:
            continue
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        worst = max(worst, abs(b - a) / (EPS * max(1.0, abs(a))))
    return worst


def largest_moves(parent: list[list], change: list[list]) -> dict[str, tuple]:
    """For each workload of either side with a differing case: (cases that
    differ, cases, largest move, (seed, case) of the largest move).  A case
    counts as differing when its digest differs or only one side has it,
    and its move is then ``move`` of the two sides' numbers."""
    ours = {tuple(row[:3]): row[3:] for row in parent}
    theirs = {tuple(row[:3]): row[3:] for row in change}
    out = {}
    for key in [*ours, *(k for k in theirs if k not in ours)]:
        workload = key[0]
        differ, cases, worst, where = out.get(workload, (0, 0, -1.0, None))
        a, b = ours.get(key, [None, None]), theirs.get(key, [None, None])
        if a[0] != b[0]:
            differ += 1
            moved = move(a[1], b[1])
            if moved > worst:
                worst, where = moved, key[1:]
        out[workload] = (differ, cases + 1, worst, where)
    return {w: row for w, row in out.items() if row[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--seeds", default="1,3", help="'1,3' or '1-10'")
    args = ap.parse_args(argv)
    seeds = bench_pair._seeds(args.seeds)

    with bench_pair.trees(args.parent) as trees:
        parent, change = (bench_pair.call_in(trees[side], __file__, "digests", trees[side], seeds)
                          for side in ("parent", "change"))  # fmt: skip
    diff = first_difference(parent, change)
    if diff is not None:
        workload, seed, case = diff
        print(f"differs: workload {workload}, seed {seed}, case {case} of pass 0")
        for workload, (differ, cases, worst, (seed, case)) in largest_moves(parent, change).items():
            print(f"  {workload}: {differ} of {cases} cases differ; largest move "
                  f"{worst:.3g} eps*max(1,|x|) at seed {seed}, case {case}")  # fmt: skip
        return 1
    print(f"identical: {len(parent)} cases of pass 0 ({', '.join(sorted({r[0] for r in parent}))}; "
          f"seeds {args.seeds}) against {bench_pair.revision(args.parent)}")  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
