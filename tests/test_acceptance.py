"""Acceptance gate: one test per criterion, printing PASS/FAIL per line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 2 and 3 pin convergence horizons (t = 0.01 for the degree-100
bounded-domain run, t = 4 for the degree-100 half-line run) together with a
1e-6 agreement threshold.  The slowest error mode of the flow decays exactly
like exp(-(lambda_n - lambda_{n-1}) t), and from the pinned starts the error
at those horizons measures about 1.4e-2 and 3.4: the thresholds are
unreachable at those times for any correct implementation, so the two tests
fail by construction.  The companion extended-horizon tests check the
identical contract at horizons the decay rate actually reaches (t = 0.06
and t = 22) and pass.
"""

import math
import time

import numpy as np
import pytest

from zeroflow import (
    ClassicalFamily,
    Configuration,
    FlowOptions,
    TerminationReason,
    convergence_options,
    default_init,
    eigen_coefficients,
    eigenvalue,
    eigenvalue_gap,
    estimate_rate,
    heat_propagate,
    integrate,
    make_classical,
    newton_solve,
    operator_matrix,
    oracle_zeros,
    poly_roots,
    residual,
    stieltjes_energy,
    stieltjes_gradient,
    verify_theorem1,
)
from zeroflow.cli import main as cli_main
from zeroflow.spectral import PolynomialCoefficients
from conftest import CLASSICAL_SPECS, random_config

LAG = make_classical(ClassicalFamily.laguerre(0.0))
LEG = make_classical(ClassicalFamily.legendre())

L3_ZEROS_4DP = (0.4157, 2.2942, 6.2899)  # published four-decimal values


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {cid}: {detail}"


def read_csv_positions(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


def test_criterion_1_laguerre_worked_example():
    t0 = time.perf_counter()
    traj = integrate(
        LAG, Configuration((1.0, 2.0, 3.0)), convergence_options(3, 40.0, 1e-9)
    )
    zeros = traj.final.config.as_array()
    reference = oracle_zeros(LAG, 3).as_array()
    elapsed = time.perf_counter() - t0
    converged = (
        traj.terminated_by is TerminationReason.CONVERGED
        and traj.final.residual_norm < 1e-9
    )
    ref4_err = float(np.max(np.abs(zeros - L3_ZEROS_4DP)))
    oracle_err = float(np.max(np.abs(zeros - reference)))
    ok = converged and ref4_err < 1e-4 and oracle_err < 1e-8 and elapsed < 1.0
    report(
        "1",
        ok,
        f"residual={traj.final.residual_norm:.2e}, four-decimal ref err="
        f"{ref4_err:.2e}, vs-oracle={oracle_err:.2e}, time={elapsed:.2f}s",
    )


def _figure1_run(tmp_path, t_max: float):
    csv = tmp_path / "fig1.csv"
    t0 = time.perf_counter()
    code = cli_main(
        [
            "flow", "--family", "legendre", "--n", "100", "--init", "seeded",
            "--seed", "7", "--t-max", str(t_max), "--output", str(csv),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    header, rows = read_csv_positions(csv)
    assert header == ["t"] + [f"x{i}" for i in range(1, 101)]
    assert rows.shape[0] >= 2
    err = float(np.max(np.abs(rows[-1, 1:] - oracle_zeros(LEG, 100).as_array())))
    return err, elapsed


def test_criterion_2_figure1_data_level(tmp_path):
    err, elapsed = _figure1_run(tmp_path, 0.01)
    ok = err <= 1e-6 and elapsed < 10.0
    report(
        "2",
        ok,
        f"CSV emitted; max |x_i - zero_i| = {err:.3e} at t=0.01, "
        f"time={elapsed:.2f}s; the slowest mode decays like exp(-200 t), so "
        f"1e-6 needs t >= 0.05",
    )


def test_criterion_2_extended_horizon(tmp_path):
    err, elapsed = _figure1_run(tmp_path, 0.06)
    ok = err <= 1e-6 and elapsed < 10.0
    report(
        "2x",
        ok,
        f"same run continued to t=0.06: max err = {err:.3e}, time={elapsed:.2f}s",
    )


def _figure2_run(t_max: float):
    start = default_init(LAG, 100, "indexed")
    t0 = time.perf_counter()
    traj = integrate(
        LAG,
        start,
        FlowOptions(t_max=t_max, residual_tol=1e-300, snapshot_stride=10),
    )
    elapsed = time.perf_counter() - t0
    err = float(
        np.max(np.abs(traj.final.config.as_array() - oracle_zeros(LAG, 100).as_array()))
    )
    return err, elapsed


def test_criterion_3_figure2_data_level():
    err, elapsed = _figure2_run(4.0)
    ok = err <= 1e-6 and elapsed < 30.0
    report(
        "3",
        ok,
        f"max |x_i - zero_i| = {err:.3e} at t=4, time={elapsed:.2f}s; the "
        f"eigenvalue gap is 1, so 1e-6 needs t >= 20",
    )


def test_criterion_3_extended_horizon():
    err, elapsed = _figure2_run(22.0)
    ok = err <= 1e-6 and elapsed < 30.0
    report("3x", ok, f"same run continued to t=22: max err = {err:.3e}, "
                     f"time={elapsed:.2f}s")


def test_criterion_4_equilibrium_forward():
    worst_at_zero = 0.0
    worst_perturbed = math.inf
    for name, spec in CLASSICAL_SPECS:
        for n in range(1, 13):
            cfg = oracle_zeros(spec, n)
            scale = 1.0 + float(np.max(np.abs(cfg.as_array())))
            rnorm = float(np.max(np.abs(residual(spec, cfg))))
            worst_at_zero = max(worst_at_zero, rnorm / scale)
            assert rnorm < 1e-8 * scale, (name, n, rnorm)
            for i in range(n):
                pts = list(cfg.points)
                pts[i] += 1e-3
                r = float(np.max(np.abs(residual(spec, Configuration(tuple(pts))))))
                worst_perturbed = min(worst_perturbed, r)
                assert r > 1e-4, (name, n, i, r)
    report(
        "4",
        True,
        f"all families, n=1..12: residual/scale at zeros <= {worst_at_zero:.1e} "
        f"< 1e-8; weakest single-coordinate 1e-3 perturbation response "
        f"{worst_perturbed:.1e} > 1e-4",
    )


def test_criterion_5_equilibrium_converse():
    worst_defect = 0.0
    for name, spec in CLASSICAL_SPECS:
        for n in range(1, 13):
            solved = newton_solve(spec, default_init(spec, n), tol=1e-11, max_iter=100)
            rep = verify_theorem1(spec, solved, tol=1e-9)
            worst_defect = max(worst_defect, rep.operator_defect)
            assert rep.operator_defect < 1e-8, (name, n, rep.operator_defect)
            assert rep.lambda_recovered == eigenvalue(spec, n)
    report(
        "5",
        True,
        f"newton from default starts, all families n=1..12: worst operator "
        f"defect {worst_defect:.1e} < 1e-8, lambda always from the eigenvalue "
        f"formula",
    )


@pytest.mark.parametrize(
    "family,n,t_max",
    [
        (ClassicalFamily.laguerre(0.0), 3, 45.0),
        (ClassicalFamily.laguerre(0.0), 5, 45.0),
        (ClassicalFamily.laguerre(0.0), 10, 45.0),
        (ClassicalFamily.legendre(), 5, 6.0),
        (ClassicalFamily.legendre(), 10, 3.0),
    ],
)
def test_criterion_6_rate_bound(family, n, t_max):
    spec = make_classical(family)
    if spec.domain.is_bounded:
        start = default_init(spec, n, "seeded", seed=11)
    else:
        start = default_init(spec, n, "indexed")
    # the start must excite the slowest mode, i.e. be asymmetric relative to
    # the zero set (a symmetric start would decay even faster and make the
    # bound check vacuous)
    ref = oracle_zeros(spec, n)
    assert abs(sum(start.points) - sum(ref.points)) > 1e-3
    traj = integrate(
        spec,
        start,
        FlowOptions(
            t_max=t_max, residual_tol=1e-10, rel_tol=1e-11, abs_tol=1e-13
        ),
    )
    assert traj.terminated_by is TerminationReason.CONVERGED
    rep = estimate_rate(traj, ref)
    gap = eigenvalue_gap(spec, n)
    ok = rep.sigma_hat >= 0.9 * gap and rep.fit_quality >= 0.98
    report(
        f"6[{family.tag.value} n={n}]",
        ok,
        f"sigma_hat={rep.sigma_hat:.3f} vs gap={gap:g} "
        f"(ratio {rep.sigma_hat / gap:.3f}), fit_quality={rep.fit_quality:.4f}",
    )


def test_criterion_7_heat_flow_equivalence():
    rng = np.random.default_rng(424242)
    worst = 0.0
    checked = 0
    for name, spec in CLASSICAL_SPECS:
        for _ in range(20):
            n = int(rng.integers(2, 9))
            x0 = random_config(rng, spec, n, min_gap=0.1)
            c0 = PolynomialCoefficients.from_roots(x0)
            for t in (0.01, 0.05, 0.1):
                heat_roots = poly_roots(heat_propagate(spec, c0, t), spec.domain)
                traj = integrate(
                    spec,
                    Configuration(tuple(x0)),
                    FlowOptions(
                        t_max=t, residual_tol=1e-300, rel_tol=1e-11, abs_tol=1e-13
                    ),
                )
                gap = float(
                    np.max(
                        np.abs(
                            heat_roots.as_array() - traj.final.config.as_array()
                        )
                    )
                )
                worst = max(worst, gap)
                checked += 1
                assert gap < 1e-6, (name, n, t, gap)
    report(
        "7",
        True,
        f"{checked} propagator-vs-flow comparisons (7 families x 20 starts "
        f"x 3 times), worst disagreement {worst:.2e} < 1e-6",
    )


def test_criterion_8_energy_consistency():
    rng = np.random.default_rng(8675309)
    worst_identity = 0.0
    worst_grad = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(-0.9, 2.0))
        beta = float(rng.uniform(-0.9, 2.0))
        spec = make_classical(ClassicalFamily.jacobi(alpha, beta))
        n = int(rng.integers(1, 8))
        x = random_config(rng, spec, n, min_gap=0.1)
        cfg = Configuration(tuple(x))
        r = residual(spec, cfg)
        g = stieltjes_gradient(alpha, beta, cfg)
        scale = 1.0 + float(np.max(np.abs(r)))
        identity_gap = float(np.max(np.abs(r + 2.0 * spec.p(x) * g))) / scale
        worst_identity = max(worst_identity, identity_gap)
        assert identity_gap < 1e-10

        h = 1e-7
        for j in range(n):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (
                stieltjes_energy(alpha, beta, Configuration(tuple(xp)))
                - stieltjes_energy(alpha, beta, Configuration(tuple(xm)))
            ) / (2 * h)
            rel = abs(g[j] - fd) / (1.0 + abs(g[j]))
            worst_grad = max(worst_grad, rel)
            assert rel < 1e-6

    # positive semidefinite energy Hessian at the zeros (finite differences
    # of the exact gradient)
    worst_eig = math.inf
    for alpha, beta in ((0.0, 0.0), (0.3, 1.2), (-0.5, -0.5), (1.5, 0.0)):
        spec = make_classical(ClassicalFamily.jacobi(alpha, beta))
        for n in (2, 5, 10):
            x = oracle_zeros(spec, n).as_array()
            h = 1e-6
            H = np.empty((n, n))
            for j in range(n):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                gp = stieltjes_gradient(alpha, beta, Configuration(tuple(xp)))
                gm = stieltjes_gradient(alpha, beta, Configuration(tuple(xm)))
                H[:, j] = (gp - gm) / (2 * h)
            eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
            worst_eig = min(worst_eig, float(eigs.min()))
            assert eigs.min() >= -1e-8, (alpha, beta, n, eigs.min())
    report(
        "8",
        True,
        f"50 random (alpha, beta): worst residual/gradient identity gap "
        f"{worst_identity:.1e} < 1e-10, worst finite-difference gradient "
        f"mismatch {worst_grad:.1e} < 1e-6; Hessian minimum eigenvalue "
        f"{worst_eig:.2e} >= -1e-8",
    )


def test_criterion_9_property_suite(tmp_path):
    rng = np.random.default_rng(99)

    # order preservation on every stored snapshot
    runs = [
        integrate(LAG, Configuration((1.0, 2.0, 3.0)),
                  convergence_options(3, 40.0, 1e-9)),
        integrate(LEG, default_init(LEG, 8, "seeded", seed=5),
                  convergence_options(8, 5.0, 1e-9)),
        integrate(LAG, default_init(LAG, 40, "indexed"),
                  FlowOptions(t_max=0.5, residual_tol=1e-300, snapshot_stride=10)),
    ]
    n_snaps = 0
    for traj in runs:
        for snap in traj.snapshots:
            assert np.all(np.diff(snap.config.as_array()) > 0)
            n_snaps += 1

    # heat-propagator semigroup law, relative to the coefficient scale
    worst_semigroup = 0.0
    for name, spec in CLASSICAL_SPECS:
        c = PolynomialCoefficients(tuple(rng.standard_normal(7)) + (1.0,))
        once = heat_propagate(spec, heat_propagate(spec, c, 0.04), 0.09)
        direct = heat_propagate(spec, c, 0.13)
        rel = float(
            np.max(np.abs(once.as_array() - direct.as_array()))
            / np.max(np.abs(direct.as_array()))
        )
        worst_semigroup = max(worst_semigroup, rel)
        assert rel <= 1e-10, (name, rel)

    # eigen-defect for n <= 50
    worst_defect = 0.0
    for name, spec in CLASSICAL_SPECS:
        for n in range(0, 51):
            c = eigen_coefficients(spec, n).as_array()
            M = operator_matrix(spec, n)
            defect = float(
                np.linalg.norm(M @ c - eigenvalue(spec, n) * c) / np.linalg.norm(c)
            )
            worst_defect = max(worst_defect, defect)
            assert defect < 1e-12, (name, n, defect)

    # determinism: identical args and seed give byte-identical CSV
    f1, f2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    for f in (f1, f2):
        code = cli_main(
            [
                "flow", "--family", "legendre", "--n", "30", "--init", "seeded",
                "--seed", "13", "--t-max", "0.05", "--output", str(f),
            ]
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()

    report(
        "9",
        True,
        f"ordering held on {n_snaps} snapshots; semigroup law within "
        f"{worst_semigroup:.1e} <= 1e-10; eigen-defect <= {worst_defect:.1e} "
        f"< 1e-12 for n <= 50; seeded CSV byte-identical",
    )
