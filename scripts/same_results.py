"""Byte-for-byte comparison of the benchmark's answers between a parent
revision and the working tree.

    python3 scripts/same_results.py --parent HEAD~1 [--seeds 1,3]

Run from the root of a checkout; the change is its working tree.  The
parent revision is exported with ``git archive`` into a temporary
directory, which is removed afterwards.  In each tree a fresh process
imports that tree's ``bench/workloads.py`` and ``src/zeroflow``, runs every
case of pass 0 of every workload for every seed, and reduces each answer to
bytes (see ``result_bytes``).  The script prints the first (workload, seed,
case) whose bytes differ and exits 1, or prints that every case is
identical and exits 0.  It only reads ``bench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pair  # noqa: E402

ROOT = bench_pair.ROOT
# one BLAS thread in both trees, as bench/run.py sets it
THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


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


def digests(tree: str, seeds: list[int]) -> list[list]:
    """[workload, seed, case, sha256 of the answer's bytes] for every case of
    pass 0, imported from ``tree``; a case that raises is digested by its
    exception."""
    sys.path[:0] = [os.path.join(tree, "bench"), os.path.join(tree, "src")]
    import workloads

    rows = []
    for name, load in workloads.WORKLOADS.items():
        for seed in seeds:
            for case_index, case in enumerate(load(seed).cases_for_pass(0)):
                try:
                    data = result_bytes(case.call())
                except Exception as exc:  # noqa: BLE001 - a failure is an answer too
                    data = f"raised {type(exc).__name__}: {exc}".encode()
                rows.append([name, seed, case_index, hashlib.sha256(data).hexdigest()])
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


def _digests_in(tree: str, seeds: str) -> list[list]:
    cmd = [sys.executable, os.path.abspath(__file__), "--digests-of", tree, "--seeds", seeds]
    env = dict(os.environ, **THREADS)
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="git revision of the parent")
    ap.add_argument("--seeds", default="1,3", help="'1,3' or '1-10'")
    ap.add_argument("--digests-of", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = bench_pair._seeds(args.seeds)
    if args.digests_of:
        print(json.dumps(digests(args.digests_of, seeds)))
        return 0
    if not args.parent:
        ap.error("--parent is required")

    with tempfile.TemporaryDirectory(prefix="same_results_") as tmp:
        bench_pair._export(args.parent, tmp)
        parent = _digests_in(tmp, args.seeds)
    change = _digests_in(ROOT, args.seeds)
    diff = first_difference(parent, change)
    if diff is not None:
        workload, seed, case = diff
        print(f"differs: workload {workload}, seed {seed}, case {case} of pass 0")
        return 1
    print(f"identical: {len(parent)} cases of pass 0 ({', '.join(sorted({r[0] for r in parent}))}; "
          f"seeds {args.seeds}) against {bench_pair._git('rev-parse', '--short', args.parent)}")  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
