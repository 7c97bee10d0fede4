"""Command-line front end: solve, flow, verify, rate, and bench.

Exit codes: 0 success, 1 usage or malformed input, 2 numerical failure,
3 verification rejected (not an equilibrium).  A usage error prints the
usage and its reason; a bad argument value, or a points file or --output
path that cannot be read or written, prints "error: ..." and exits 1.
Every numerical failure, including a flow that stops early in solve or
rate, prints "error: ..." and exits 2; flow writes its CSV and exits 0
when it reaches its horizon.  Without --t-max, integrate derives the
horizon, 10 + 50/(lambda_n - lambda_{n-1}), and refuses a degenerate
spectrum before the first step; a manifest then records t_max as null, so
the same arguments reproduce the run.  rate asks the oracle for its
reference zeros before it integrates, so a spec the oracle refuses is
refused with the oracle's reason; it records every step, with step
tolerances tied below --tol so that its fit window, down to 1e-9 of the
initial error, is resolved.
bench times one cold call per route: a smoke table, not a measurement
(bench/ and scripts/bench_pair.py measure).  Numbers are serialized with
17 significant digits so results round-trip exactly; identical arguments
and seeds produce byte-identical output apart from the manifest timestamp.
The ZEROFLOW_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
from typing import Sequence

import numpy as np

from . import __version__
from .equilibrium import Configuration, newton_solve, residual, verify_theorem1
from .errors import ZeroflowError
from .flow import (
    FlowOptions,
    InitStrategy,
    TerminationReason,
    Trajectory,
    convergence_options,
    default_init,
    estimate_rate,
    integrate,
)
from .operator_core import (
    ClassicalFamily,
    Domain,
    EquationSpec,
    FamilyTag,
    _real_roots,
    eigenvalue,
    make_classical,
)
from .spectral import oracle_zeros

log = logging.getLogger("zeroflow")

_USAGE_EXIT = 1
_NUMERIC_EXIT = 2
_NOT_EQUILIBRIUM_EXIT = 3

# the routes solve --method and bench --methods accept, in bench's order
_ROUTES = ("flow", "newton", "spectral")
_FLOW, _NEWTON, _SPECTRAL = _ROUTES


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        choices=[t.value for t in FamilyTag],
        help="classical family (alternative to raw --p/--q)",
    )
    p.add_argument("--alpha", type=float, help="Jacobi/Laguerre parameter")
    p.add_argument("--beta", type=float, help="Jacobi parameter")
    p.add_argument("--p", help="p coefficients, ascending: p0,p1,p2")
    p.add_argument("--q", help="q coefficients, ascending: q0,q1")
    p.add_argument("--domain", help="open interval lo,hi ('-inf'/'inf' allowed)")


def _parse_floats(text: str, count_max: int, what: str) -> list[float]:
    parts = [s.strip() for s in text.split(",")]
    if not 1 <= len(parts) <= count_max:
        raise ValueError(f"{what} takes 1..{count_max} comma-separated numbers")
    return [float(s) for s in parts]


def _default_domain(p2: float, p1: float, p0: float) -> Domain:
    """The one open interval on which p > 0; raises unless there is one."""
    roots = _real_roots(p2, p1, p0)
    if len(roots) == 2 and p2 < 0 and roots[0] < roots[1]:
        return Domain(*roots)
    if len(roots) == 1:
        return Domain(roots[0], math.inf) if p1 > 0 else Domain(-math.inf, roots[0])
    if not roots and p0 > 0:
        return Domain(-math.inf, math.inf)
    raise ValueError("p > 0 on no single interval; pass --domain explicitly")


def _build_spec(args) -> tuple[EquationSpec, dict]:
    if args.family and (args.p or args.q):
        raise ValueError("give either --family or raw --p/--q, not both")
    if args.family:
        if args.domain:
            raise ValueError("--domain cannot override a classical family")
        fam = ClassicalFamily(FamilyTag(args.family), args.alpha, args.beta)
        desc = {"family": fam.tag.value, "alpha": fam.alpha, "beta": fam.beta}
        desc = {k: v for k, v in desc.items() if v is not None}
        return make_classical(fam), desc
    if not args.p or not args.q:
        raise ValueError("need --family, or both --p and --q")
    pc = _parse_floats(args.p, 3, "--p") + [0.0, 0.0]
    qc = _parse_floats(args.q, 2, "--q") + [0.0]
    p0, p1, p2 = pc[0], pc[1], pc[2]
    q0, q1 = qc[0], qc[1]
    if args.domain:
        ends = _parse_floats(args.domain, 2, "--domain")
        if len(ends) != 2:
            raise ValueError("--domain takes exactly two numbers: lo,hi")
        dom = Domain(ends[0], ends[1])
    else:
        dom = _default_domain(p2, p1, p0)
    spec = EquationSpec(p2, p1, p0, q1, q0, dom)
    desc = {
        "p": [p0, p1, p2],
        "q": [q0, q1],
        "domain": [dom.lower, dom.upper],
    }
    return spec, desc


def _manifest(spec_desc, n, method, options, seed) -> dict:
    """Everything needed to reproduce a run bit-for-bit with the same build."""
    return {
        "spec": spec_desc,
        "n": n,
        "method": method,
        "options": options,
        "seed": seed,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


def _converged(traj: Trajectory) -> Trajectory:
    if traj.terminated_by is not TerminationReason.CONVERGED:
        raise ZeroflowError(f"flow terminated by {traj.terminated_by.value}")
    return traj


def _run(spec, n, method, tol, t_max, max_iter, init, seed) -> Configuration:
    """Zeros of the degree-n eigenpolynomial by one of _ROUTES; only the
    iterative routes build a start, default_init(spec, n, init, seed)."""
    if method == _SPECTRAL:
        return oracle_zeros(spec, n)
    start = default_init(spec, n, init, seed)
    if method == _NEWTON:
        return newton_solve(spec, start, tol=tol, max_iter=max_iter)
    opts = convergence_options(n, t_max, tol)
    return _converged(integrate(spec, start, opts)).final.config


def _max_residual(spec: EquationSpec, config: Configuration) -> float:
    return float(np.max(np.abs(residual(spec, config))))


def cmd_solve(args) -> int:
    spec, desc = _build_spec(args)
    n = args.n
    config = _run(
        spec, n, args.method, args.tol, args.t_max, args.max_iter,
        args.init, args.seed,
    )
    opts_desc = {"tol": args.tol, "t_max": args.t_max, "init": args.init}
    payload = {
        "zeros": [float(z) for z in config.points],
        "lambda": float(eigenvalue(spec, n)),
        "residual_norm": _max_residual(spec, config),
        "manifest": _manifest(desc, n, args.method, opts_desc, args.seed),
    }
    _emit_json(payload, args.output)
    return 0


def cmd_flow(args) -> int:
    spec, _ = _build_spec(args)
    n = args.n
    start = default_init(spec, n, args.init, args.seed)
    opts = convergence_options(n, args.t_max, args.tol)
    if args.stride is not None:
        opts = dataclasses.replace(opts, snapshot_stride=args.stride)
    traj = integrate(spec, start, opts)
    lines = ["t," + ",".join(f"x{i}" for i in range(1, n + 1))]
    for snap in traj.snapshots:
        lines.append(
            ",".join([_fmt(snap.t)] + [_fmt(x) for x in snap.config.points])
        )
    _emit("\n".join(lines) + "\n", args.output)
    # reaching the horizon completes the requested trajectory
    if traj.terminated_by.is_error:
        raise ZeroflowError(f"flow terminated by {traj.terminated_by.value}")
    return 0


def cmd_verify(args) -> int:
    spec, _ = _build_spec(args)
    with open(args.points_file, encoding="utf-8") as fh:
        pts = [float(line) for line in fh if line.strip()]
    config = Configuration(tuple(pts))
    report = verify_theorem1(spec, config, tol=args.tol)
    print(f"n               : {config.n}")
    print(f"lambda          : {_fmt(report.lambda_recovered)}")
    print(f"residual_norm   : {_fmt(report.residual_norm)}")
    print(f"operator_defect : {_fmt(report.operator_defect)}")
    print(f"equilibrium     : {report.is_equilibrium} (tol {args.tol:g})")
    return 0 if report.is_equilibrium else _NOT_EQUILIBRIUM_EXIT


def cmd_rate(args) -> int:
    spec, desc = _build_spec(args)
    n = args.n
    # the oracle refuses a degenerate spectrum or a spec without a positive
    # weight before anything is integrated
    reference = oracle_zeros(spec, n)
    start = default_init(spec, n, args.init, args.seed)
    # the fit reads the trajectory itself down to 1e-9 of the initial
    # error, not just its end point, so the step tolerances follow --tol
    # two to three orders of magnitude below it (never looser than the
    # FlowOptions defaults); at the defaults the transient's discretization
    # error biases sigma_hat low (Hermite, n = 3, equispaced: sigma_hat/gap
    # 1.94 against 2.00)
    opts = dataclasses.replace(
        convergence_options(n, args.t_max, args.tol),
        snapshot_stride=1,
        rel_tol=min(FlowOptions.rel_tol, max(1e-13, 1e-2 * args.tol)),
        abs_tol=min(FlowOptions.abs_tol, max(1e-15, 1e-3 * args.tol)),
    )
    traj = _converged(integrate(spec, start, opts))
    report = estimate_rate(traj, reference)
    opts_desc = {"t_max": args.t_max, "tol": args.tol, "init": args.init}
    payload = {
        "sigma_hat": report.sigma_hat,
        "theoretical_gap": report.theoretical_gap,
        "fit_window": list(report.fit_window),
        "fit_quality": report.fit_quality,
        "manifest": _manifest(desc, n, "rate", opts_desc, args.seed),
    }
    _emit_json(payload, args.output)
    return 0


def cmd_bench(args) -> int:
    spec, _ = _build_spec(args)
    n_list = [int(s) for s in args.n_list.split(",")]
    methods = [s.strip() for s in args.methods.split(",")]
    for method in methods:
        if method not in _ROUTES:
            raise ValueError(f"unknown method {method!r}; choose from {_ROUTES}")
    rows = ["n,method,wall_time_seconds,final_residual,agreement_vs_spectral"]
    for n in n_list:
        reference = oracle_zeros(spec, n).as_array()
        for method in methods:
            tol = 1e-9 if method == _FLOW else 1e-10
            t0 = time.perf_counter()
            try:
                config = _run(
                    spec, n, method, tol, None, 200, "equispaced", None
                )
            except ZeroflowError as exc:
                log.warning("bench %s n=%d failed: %s", method, n, exc)
                config = None
            wall = time.perf_counter() - t0
            if config is None:
                rows.append(f"{n},{method},{_fmt(wall)},nan,nan")
                continue
            rnorm = _max_residual(spec, config)
            agree = float(np.max(np.abs(config.as_array() - reference)))
            rows.append(
                f"{n},{method},{_fmt(wall)},{_fmt(rnorm)},{_fmt(agree)}"
            )
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def _add_run_args(
    p: argparse.ArgumentParser,
    tol: float,
    init: InitStrategy = InitStrategy.EQUISPACED,
    seed: int | None = None,
) -> None:
    """--n, --t-max, --tol, --init, --seed and --output.  Without --t-max
    integrate derives the horizon from the eigenvalue gap."""
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument(
        "--init", choices=[s.value for s in InitStrategy], default=init.value
    )
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--output", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zeroflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="compute eigenpolynomial zeros")
    _add_spec_args(ps)
    _add_run_args(ps, 1e-10)
    ps.add_argument("--method", choices=_ROUTES, default=_SPECTRAL)
    ps.add_argument("--max-iter", type=int, default=200, dest="max_iter")
    ps.set_defaults(func=cmd_solve)

    pf = sub.add_parser("flow", help="emit a CSV particle trajectory")
    _add_spec_args(pf)
    _add_run_args(pf, 1e-9)
    pf.add_argument("--stride", type=int, default=None)
    pf.set_defaults(func=cmd_flow)

    pv = sub.add_parser("verify", help="check a points file for equilibrium")
    _add_spec_args(pv)
    pv.add_argument("points_file", help="one coordinate per line, increasing")
    pv.add_argument("--tol", type=float, default=1e-9)
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("rate", help="fit the exponential convergence rate")
    _add_spec_args(pr)
    _add_run_args(pr, 1e-10, InitStrategy.SEEDED, 1)
    pr.set_defaults(func=cmd_rate)

    pb = sub.add_parser("bench", help="wall-time and accuracy table")
    _add_spec_args(pb)
    pb.add_argument("--n-list", default="10,20,50", dest="n_list")
    pb.add_argument("--methods", default=",".join(_ROUTES))
    pb.add_argument("--output", default=None)
    pb.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("ZEROFLOW_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage and its reason; it exits with 2,
        # which this tool keeps for numerical failures
        return _USAGE_EXIT if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, ZeroflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT if isinstance(exc, ZeroflowError) else _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
