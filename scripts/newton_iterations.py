"""Newton iterations per case, in a parent revision and in the working tree.

    python3 scripts/newton_iterations.py --parent HEAD~1 [--seeds 1-10]

Run from the root of a checkout; the change is its working tree.  The
parent revision is exported with ``git archive`` into a temporary
directory, which is removed afterwards.  In each tree a fresh process
imports that tree's ``bench/workloads.py``, ``tests/test_cross_route.py``
and ``src/zeroflow`` and counts the calls to ``np.linalg.solve`` in each
case, one per Newton iteration.  The cases are pass 0 of the ``newton``
workload for every seed, and every spec of ``MAPPED_SPECS`` at n = 13 and
20 from the equispaced and from the seeded start (seed 1), solved to 1e-10
as the cross-route test solves them.  The script prints the total
iterations on each side for the ``newton`` cases and for the mapped ones,
every case that raises on either side, and every case that takes more
iterations in the working tree than in the parent (see ``compare``).  It
exits 0; it only reads ``bench/`` and ``tests/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pair  # noqa: E402

ROOT = bench_pair.ROOT


def counts(tree: str, seeds: list[int]) -> list[list]:
    """[group, case, iterations, error] for every case, imported from
    ``tree``: "newton" or "mapped", the solves the case made, and the name
    of the exception it raised or None."""
    sys.path[:0] = [os.path.join(tree, d) for d in ("bench", "src", "tests")]
    import test_cross_route
    import workloads
    import zeroflow as zf

    cases = []
    for seed in seeds:
        for k, case in enumerate(workloads.WORKLOADS["newton"](seed).cases_for_pass(0)):
            label = f"newton seed {seed} case {k} ({case.fam.kind} n={case.n})"
            cases.append(("newton", label, case.call))
    for name, spec in test_cross_route.MAPPED_SPECS:
        for n in (13, 20):
            for how, start in (("equispaced", zf.default_init(spec, n)),
                               ("seeded", zf.default_init(spec, n, "seeded", seed=1))):  # fmt: skip
                cases.append(("mapped", f"{name} n={n} {how}",
                              lambda s=spec, x=start: zf.newton_solve(s, x, tol=1e-10)))  # fmt: skip

    solve, calls = np.linalg.solve, [0]

    def counted(a, b):
        calls[0] += 1
        return solve(a, b)

    np.linalg.solve = counted
    rows = []
    for group, label, call in cases:
        calls[0], error = 0, None
        try:
            call()
        except Exception as exc:  # noqa: BLE001 - a failure is counted too
            error = type(exc).__name__
        rows.append([group, label, calls[0], error])
    return rows


def compare(parent: list[list], change: list[list]) -> dict:
    """Over the cases both sides have: per group, (cases, parent total,
    change total); the cases that raise on either side as (case, parent
    error, change error); and the cases that take more iterations in the
    change as (case, parent, change)."""
    ours = {row[1]: row[2:] for row in parent}
    both = [(row[0], row[1], ours[row[1]], row[2:]) for row in change if row[1] in ours]
    totals = {}
    for group, _, a, b in both:
        cases, before, after = totals.get(group, (0, 0, 0))
        totals[group] = (cases + 1, before + a[0], after + b[0])
    return {
        "totals": totals,
        "raised": [(case, a[1], b[1]) for _, case, a, b in both if a[1] or b[1]],
        "more": [(case, a[0], b[0]) for _, case, a, b in both if b[0] > a[0]],
    }


def _counts_in(tree: str, seeds: str) -> list[list]:
    return bench_pair.last_json(__file__, "--counts-of", tree, "--seeds", seeds, cwd=tree)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="git revision of the parent")
    ap.add_argument("--seeds", default="1-10", help="'1,3' or '1-10'")
    ap.add_argument("--counts-of", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.counts_of:
        print(json.dumps(counts(args.counts_of, bench_pair._seeds(args.seeds))))
        return 0
    if not args.parent:
        ap.error("--parent is required")

    with tempfile.TemporaryDirectory(prefix="newton_iterations_") as tmp:
        bench_pair._export(args.parent, tmp)
        parent = _counts_in(tmp, args.seeds)
    change = _counts_in(ROOT, args.seeds)
    out = compare(parent, change)
    rev = bench_pair._git("rev-parse", "--short", args.parent)
    print(f"Newton iterations, parent {rev} against the working tree (seeds {args.seeds})")
    for group, (cases, before, after) in out["totals"].items():
        print(f"  {group}: {before} -> {after} ({after / before - 1.0:+.1%}) over {cases} cases")
    for case, a, b in out["raised"]:
        print(f"  raises: {case}: parent {a or '-'}, working tree {b or '-'}")
    print(f"{len(out['more'])} cases take more iterations")
    for case, a, b in out["more"]:
        print(f"  more: {case}: {a} -> {b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
