"""Tests of the benchmark's reference answers and of its answer checks.

    python3 -m pytest bench/test_reference.py -q
"""

import math
import os
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy import special

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
import zeroflow as zf  # noqa: E402

CLOSED_FORMS = [
    (ref.Family("hermite"), 2, [-1.0, 1.0]),
    (ref.Family("hermite"), 3, [-math.sqrt(3.0), 0.0, math.sqrt(3.0)]),
    (ref.Family("hermite", scale=2.0, shift=0.5), 2, [-1.5, 2.5]),
    (ref.Family("jacobi", 0.0, 0.0), 2, [-1 / math.sqrt(3.0), 1 / math.sqrt(3.0)]),
    (ref.Family("jacobi", 0.0, 0.0), 3, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)]),
    (ref.Family("jacobi", 0.3, 1.2), 1, [(1.2 - 0.3) / (0.3 + 1.2 + 2.0)]),
    (ref.Family("jacobi", -0.5, -0.5), 5, sorted(math.cos((2 * k - 1) * math.pi / 10) for k in range(1, 6))),
    (ref.Family("jacobi", 0.5, 0.5), 4, sorted(math.cos(k * math.pi / 5) for k in range(1, 5))),
    (ref.Family("laguerre", 1.7), 1, [2.7]),
    (ref.Family("laguerre", 1.7), 2, [3.7 - math.sqrt(3.7), 3.7 + math.sqrt(3.7)]),
]


@pytest.mark.parametrize("fam,n,want", CLOSED_FORMS)
def test_zeros_match_closed_forms(fam, n, want):
    got = ref.zeros(fam, n)
    assert np.max(np.abs(got - want)) <= ref.zeros_error(fam, n)


@pytest.mark.parametrize(
    "fam,nodes",
    [
        (ref.Family("hermite"), lambda n: special.roots_hermitenorm(n)[0]),
        (ref.Family("jacobi", 0.3, 1.2), lambda n: special.roots_jacobi(n, 0.3, 1.2)[0]),
        (ref.Family("jacobi", -0.5, 1.9), lambda n: special.roots_jacobi(n, -0.5, 1.9)[0]),
        (ref.Family("laguerre", 1.7), lambda n: special.roots_genlaguerre(n, 1.7)[0]),
    ],
)
@pytest.mark.parametrize("n", [5, 20, 60, 100])
def test_zeros_match_scipy_nodes(fam, nodes, n):
    want = np.sort(nodes(n))
    got = ref.zeros(fam, n)
    # scipy's nodes carry their own rounding error of a few ulp
    tol = ref.zeros_error(fam, n) + 8 * ref.EPS * np.abs(want)
    assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize(
    "fam", [ref.Family("hermite", scale=0.7, shift=-0.4), ref.Family("jacobi", 1.1, -0.3), ref.Family("laguerre", 0.6)]
)
def test_zeros_span_an_eigenpolynomial(fam):
    n = 6
    c = np.polynomial.polynomial.polyfromroots(ref.zeros(fam, n))
    M = ref.operator_matrix(fam, n)
    assert np.allclose(M @ c, M[n, n] * c, rtol=0, atol=1e-11 * np.max(np.abs(M @ c)))


def test_operator_matrix_applies_the_operator():
    fam = ref.Family("jacobi", 0.4, 1.3)
    p2, p1, p0, q1, q0 = fam.coefficients()
    P = np.polynomial.Polynomial
    p, q = P([p0, p1, p2]), P([q0, q1])
    n = 7
    M = ref.operator_matrix(fam, n)
    for m in range(n + 1):
        y = P.basis(m)
        Ly = -(p * y.deriv()).deriv() + q * y.deriv()
        col = np.zeros(n + 1)
        col[: Ly.coef.size] = Ly.coef
        assert np.allclose(M[:, m], col, atol=1e-12)


def _exact_heat(fam, c, t):
    """exp(t M) c in 60-digit arithmetic through the eigenbasis."""
    with mp.workdps(60):
        M = ref.operator_matrix(fam, c.size - 1)
        n = c.size
        Y = [[mp.mpf(0)] * n for _ in range(n)]
        for k in range(n):
            Y[k][k] = mp.mpf(1)
            for j in range(k - 1, -1, -1):
                s = sum(mp.mpf(M[j, m]) * Y[m][k] for m in range(j + 1, k + 1))
                Y[j][k] = s / (mp.mpf(M[k, k]) - mp.mpf(M[j, j]))
        a = [mp.mpf(0)] * n
        for j in range(n - 1, -1, -1):
            a[j] = mp.mpf(c[j]) - sum(Y[j][m] * a[m] for m in range(j + 1, n))
        lam = [mp.mpf(M[k, k]) for k in range(n)]
        return np.array(
            [float(sum(Y[j][k] * a[k] * mp.exp(lam[k] * t) for k in range(n))) for j in range(n)]
        )


def test_heat_of_an_eigenpolynomial_only_scales_it():
    fam = ref.Family("hermite")
    he3 = np.array([0.0, -3.0, 0.0, 1.0])
    out, bound = ref.heat(fam, he3, 0.4)
    assert np.linalg.norm(out - math.exp(3 * 0.4) * he3) <= bound


@pytest.mark.parametrize(
    "fam,n,lam_t",
    [(ref.Family("hermite", scale=1.3, shift=0.2), 12, 20.0), (ref.Family("laguerre", 0.9), 10, 20.0),
     (ref.Family("jacobi", 1.4, -0.2), 14, 8.0)],
)
def test_heat_error_stays_within_its_bound(fam, n, lam_t):
    rng = np.random.default_rng(n)
    lo, hi = ref.zeros(fam, n)[[0, -1]]
    c = np.polynomial.polynomial.polyfromroots(np.sort(rng.uniform(lo, hi, n)))
    t = lam_t / ref.operator_matrix(fam, n)[n, n]
    out, bound = ref.heat(fam, c, t)
    assert np.linalg.norm(out - _exact_heat(fam, c, t)) <= bound
    # and the bound is a few digits, not a blanket
    assert bound <= 1e-9 * np.linalg.norm(out)


def _perturbed(x, i, by):
    y = x.copy()
    y[i] += by
    return zf.Configuration(tuple(y))


@pytest.mark.parametrize("kind", ["flow", "newton", "oracle_f64", "oracle_mp"])
def test_checks_accept_the_zeros_and_reject_a_moved_point(kind):
    fam = ref.Family("jacobi", 0.3, 1.2)
    if kind == "newton":
        case = workloads.NewtonCase(fam, 30)
    elif kind == "oracle_f64":
        case = workloads.OracleCase(fam, 10)
    elif kind == "oracle_mp":
        case = workloads.OracleCase(fam, 30)
    else:
        case = workloads.FlowCase(fam, 30, np.random.default_rng(1))
    x, tol = case.expected
    i = case.n // 2
    tol_i = np.broadcast_to(tol, x.shape)[i]

    def answer(config):
        if kind != "flow":
            return config
        snap = zf.Snapshot(1.0, config, 0.0)
        return zf.Trajectory((snap,), case.spec, zf.TerminationReason.CONVERGED)

    assert case.check(answer(zf.Configuration(tuple(x)))) is None
    assert case.check(answer(_perturbed(x, i, 0.5 * tol_i))) is None
    assert case.check(answer(_perturbed(x, i, 2.0 * tol_i))) is not None
    if kind == "flow":
        snap = zf.Snapshot(1.0, zf.Configuration(tuple(x)), 0.0)
        unconverged = zf.Trajectory((snap,), case.spec, zf.TerminationReason.MAX_TIME)
        assert case.check(unconverged) is not None


def test_tolerances_are_tight():
    fam = ref.Family("laguerre", 1.0)
    x = ref.zeros(fam, 50)
    assert ref.equilibrium_tolerance(fam, x, 1e-10) < 1e-8
    assert np.max(ref.monomial_tolerance(ref.zeros(fam, 8))) < 1e-9


def test_heat_check_rejects_wrong_coefficients_and_roots():
    rng = np.random.default_rng(0)
    case = workloads.HeatCase(ref.Family("jacobi", 0.5, 0.8), 8, 4.0, rng)
    want, bound = case.expected
    coeffs = zf.PolynomialCoefficients(tuple(want))
    roots = zf.poly_roots(coeffs, case.spec.domain)
    assert case.check((coeffs, roots)) is None

    off = want.copy()
    off[0] += 10 * bound
    assert case.check((zf.PolynomialCoefficients(tuple(off)), roots)) is not None

    x = roots.as_array()
    assert case.check((coeffs, _perturbed(x, 3, 1e-6))) is not None
    assert case.check((coeffs, zf.Configuration(tuple(x[:-1])))) is not None
