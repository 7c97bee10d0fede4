import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from zeroflow import (
    ClassicalFamily,
    DegenerateSpectrumError,
    Domain,
    EquationSpec,
    PolynomialCoefficients,
    PropagatorOverflow,
    RootCountMismatch,
    ZeroflowError,
    check_simple_spectrum,
    eigen_coefficients,
    eigenvalue,
    heat_propagate,
    make_classical,
    operator_matrix,
    oracle_zeros,
    poly_roots,
    residual,
)
from zeroflow import spectral
from zeroflow.operator_core import REAL_LINE
from zeroflow.spectral import (
    F64_ORACLE_LIMIT,
    _newton_correction,
    _recurrence,
    _recurrence_zeros,
    eigenbasis_matrix,
)
from conftest import CLASSICAL_SPECS, hermite_at, jacobi_on

LAG = make_classical(ClassicalFamily.laguerre(0.0))
LEG = make_classical(ClassicalFamily.legendre())
HER = make_classical(ClassicalFamily.hermite())
HEAT_SPECS = [
    ("jacobi", make_classical(ClassicalFamily.jacobi(0.3, 1.2))),
    ("laguerre", make_classical(ClassicalFamily.laguerre(0.7))),
    ("hermite", HER),
]

# some g_k <= 0, so the oracle refuses it, yet its degree-14
# eigenpolynomial is real-rooted: sympy's count_roots on the exact
# eigenpolynomial (rational coefficients) finds 14 real roots, 13 of them
# inside the domain, which is the interval where p > 0
NOT_CERTIFIED = EquationSpec(
    -1.307, 1.695, -0.022, -1.483, -0.701,
    Domain(0.013111918938436757, 1.283751126203109),
)

# frozen reference values, computed independently to 30 digits
L3_ZEROS = (0.41577455678347908, 2.2942803602790417, 6.2899450829374792)
INV_SQRT3 = 0.57735026918962576


def scipy_nodes(name, n):
    """Golub-Welsch style nodes as an independent cross-check oracle."""
    if name.startswith("hermite"):
        return np.sort(scipy.special.roots_hermitenorm(n)[0])
    if name.startswith("legendre"):
        return np.sort(scipy.special.roots_legendre(n)[0])
    if name.startswith("jacobi"):
        return np.sort(scipy.special.roots_jacobi(n, 0.3, 1.2)[0])
    if name == "laguerre(0)":
        return np.sort(scipy.special.roots_laguerre(n)[0])
    if name == "laguerre(0.7)":
        return np.sort(scipy.special.roots_genlaguerre(n, 0.7)[0])
    if name == "chebyshev1":
        return np.sort(scipy.special.roots_chebyt(n)[0])
    if name == "chebyshev2":
        return np.sort(scipy.special.roots_chebyu(n)[0])
    raise KeyError(name)


class TestEigenCoefficients:
    def test_laguerre3_closed_form(self):
        assert eigen_coefficients(LAG, 3).coeffs == (-6.0, 18.0, -9.0, 1.0)

    def test_hermite2(self):
        assert eigen_coefficients(HER, 2).coeffs == (-1.0, 0.0, 1.0)

    def test_legendre2_proportional_to_p2(self):
        c = eigen_coefficients(LEG, 2).as_array()
        np.testing.assert_allclose(c, [-1.0 / 3.0, 0.0, 1.0], rtol=1e-15)

    def test_chebyshev2_monic_forms(self):
        t = make_classical(ClassicalFamily.chebyshev_first())
        u = make_classical(ClassicalFamily.chebyshev_second())
        np.testing.assert_allclose(
            eigen_coefficients(t, 2).as_array(), [-0.5, 0.0, 1.0], rtol=1e-15
        )
        np.testing.assert_allclose(
            eigen_coefficients(u, 2).as_array(), [-0.25, 0.0, 1.0], rtol=1e-15
        )

    def test_degree_zero(self):
        assert eigen_coefficients(LEG, 0).coeffs == (1.0,)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_eigen_defect_below_1e12(self, name, spec):
        for n in range(0, 51):
            c = eigen_coefficients(spec, n).as_array()
            M = operator_matrix(spec, n)
            defect = np.linalg.norm(M @ c - eigenvalue(spec, n) * c) / np.linalg.norm(c)
            assert defect < 1e-12, (name, n, defect)

    def test_degenerate_spectrum_refused(self):
        spec = EquationSpec(0.0, 0.0, 1.0, 0.0, 0.0, Domain(-1, 1))
        with pytest.raises(DegenerateSpectrumError):
            eigen_coefficients(spec, 3)


class TestPolynomialCoefficients:
    @pytest.mark.parametrize(
        "coeffs,reason",
        [
            ((), "at least one coefficient"),
            ((1.0, math.nan), "must be finite"),
            ((math.inf, 1.0), "must be finite"),
            ((1.0, 0.0), "leading coefficient must be nonzero"),
            (np.ones((2, 2)), "one-dimensional"),
        ],
        ids=["empty", "nan", "inf", "zero_leading", "2d"],
    )
    def test_rejects(self, coeffs, reason):
        with pytest.raises(ValueError, match=reason):
            PolynomialCoefficients(coeffs)

    def test_as_array_is_the_stored_read_only_array(self):
        c = PolynomialCoefficients((-1.0, 0.0, 1.0))
        a = c.as_array()
        assert a is c.as_array()
        assert a.dtype == np.float64 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 2.0
        assert c.coeffs == (-1.0, 0.0, 1.0) and c.degree == 2

    @pytest.mark.parametrize(
        "make",
        [tuple, list, np.array, lambda v: (x for x in v)],
        ids=["tuple", "list", "ndarray", "generator"],
    )
    def test_accepts_tuple_list_array_and_generator(self, make):
        c = PolynomialCoefficients(make([-1.0, 0.0, 1.0]))
        assert c.coeffs == (-1.0, 0.0, 1.0)
        assert all(type(x) is float for x in c.coeffs)

    def test_from_roots_takes_any_iterable(self):
        want = PolynomialCoefficients((-2.0, 1.0, 1.0))
        assert PolynomialCoefficients.from_roots(r for r in (-2.0, 1.0)) == want
        assert PolynomialCoefficients.from_roots(np.array([-2.0, 1.0])) == want

    def test_equality_and_hash_are_by_value(self):
        c = PolynomialCoefficients((-1.0, 0.0, 1.0))
        same = PolynomialCoefficients(np.array([-1.0, 0.0, 1.0]))
        assert c == same and hash(c) == hash(same)
        assert c != PolynomialCoefficients((-1.0, 1.0))
        assert c != PolynomialCoefficients((-2.0, 0.0, 1.0))
        assert repr(c) == "PolynomialCoefficients(coeffs=(-1.0, 0.0, 1.0))"


class TestPolyRoots:
    def test_laguerre3_values(self):
        cfg = poly_roots(PolynomialCoefficients((-6.0, 18.0, -9.0, 1.0)), LAG.domain)
        np.testing.assert_allclose(cfg.points, L3_ZEROS, atol=1e-12)

    def test_four_decimal_reference_values(self):
        cfg = poly_roots(PolynomialCoefficients((-6.0, 18.0, -9.0, 1.0)), LAG.domain)
        for got, printed in zip(cfg.points, (0.4157, 2.2942, 6.2899)):
            assert abs(got - printed) < 1e-4

    def test_x_squared_minus_one(self):
        cfg = poly_roots(PolynomialCoefficients((-1.0, 0.0, 1.0)), REAL_LINE)
        np.testing.assert_allclose(cfg.points, [-1.0, 1.0], atol=1e-14)

    def test_monic_linear(self):
        cfg = poly_roots(PolynomialCoefficients((0.0, 1.0)), REAL_LINE)
        assert cfg.points == (0.0,)

    def test_no_real_roots(self):
        with pytest.raises(RootCountMismatch):
            poly_roots(PolynomialCoefficients((1.0, 0.0, 1.0)), REAL_LINE)

    def test_partial_real_roots(self):
        # (x^2 + 100)(x - 0.5): one real root out of three
        with pytest.raises(RootCountMismatch):
            poly_roots(
                PolynomialCoefficients((-50.0, 100.0, -0.5, 1.0)), REAL_LINE
            )

    def test_random_well_separated_roots(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 9))
            roots = np.sort(rng.uniform(-4, 4, size=n))
            while n > 1 and np.min(np.diff(roots)) < 0.05:
                roots = np.sort(rng.uniform(-4, 4, size=n))
            cfg = poly_roots(PolynomialCoefficients.from_roots(roots), REAL_LINE)
            np.testing.assert_allclose(cfg.points, roots, atol=1e-9)

    def test_root_exactly_on_grid_point(self, monkeypatch):
        # the cosine grid's middle point is cos(pi/2) rounded, about 7e-17,
        # so it misses the root 0 of x^3 - x; set it to 0.0 so that this
        # root is read off the grid and only the other two are bracketed
        real_grid, real_newton = spectral._cos_grid, spectral._bracketed_newton
        brackets = []

        def grid(lo, hi, m):
            xs = real_grid(lo, hi, m)
            xs[np.argmin(np.abs(xs))] = 0.0
            return xs

        def spy(c, a, b, sign_a):
            brackets.append((a, b))
            return real_newton(c, a, b, sign_a)

        monkeypatch.setattr(spectral, "_cos_grid", grid)
        monkeypatch.setattr(spectral, "_bracketed_newton", spy)
        cfg = poly_roots(PolynomialCoefficients.from_roots((-1.0, 0.0, 1.0)), REAL_LINE)
        np.testing.assert_allclose(cfg.points, [-1.0, 0.0, 1.0], atol=1e-13)
        assert cfg.points[1] == 0.0
        assert len(brackets) == 2

    @pytest.mark.parametrize("name,spec", HEAT_SPECS)
    @pytest.mark.parametrize("n", (4, 8, 12))
    @pytest.mark.parametrize("lam_t", (1.0, 10.0))
    def test_heat_output_roots_at_round_off_floor(self, name, spec, n, lam_t):
        # the heat workload's residual bound on the coefficients it checks:
        # Horner round-off of p at x plus a few ulp of x times the slope
        lo, hi = {"jacobi": (-0.95, 0.95), "laguerre": (0.5, 3.5 * n)}.get(
            name, (-1.8 * math.sqrt(n), 1.8 * math.sqrt(n))
        )
        gaps = np.random.default_rng(n).uniform(0.5, 1.5, size=n + 1)
        x0 = lo + (hi - lo) * np.cumsum(gaps)[:-1] / gaps.sum()
        out = heat_propagate(
            spec, PolynomialCoefficients.from_roots(x0), lam_t / eigenvalue(spec, n)
        )
        x = poly_roots(out, spec.domain).as_array()
        assert x.size == n
        p = np.polynomial.Polynomial(out.as_array())
        powers = np.abs(x)[:, None] ** np.arange(n + 1)
        eps = np.finfo(float).eps
        allowed = (
            4.0 * n * eps * (powers @ np.abs(out.as_array()))
            + 8.0 * eps * (1.0 + np.abs(x)) * np.abs(p.deriv()(x))
        )
        assert np.all(np.abs(p(x)) <= allowed), np.abs(p(x)) / allowed

    def test_newton_step_leaving_bracket_falls_back_to_bisection(self, monkeypatch):
        # prod(x - k), k = 1..10: the grid puts the root 1 in the cell
        # [0.9977, 1.2896].  At its midpoint 1.1437, p = -3.41e4 and
        # p' = -1.32e5, so the first Newton step lands at 0.886, outside the
        # cell, and the loop bisects instead (the root 10 mirrors this)
        brackets = []
        real = spectral._bracketed_newton

        def spy(c, a, b, sign_a):
            brackets.append((a, b))
            return real(c, a, b, sign_a)

        monkeypatch.setattr(spectral, "_bracketed_newton", spy)
        coeffs = PolynomialCoefficients.from_roots(range(1, 11))
        cfg = poly_roots(coeffs, REAL_LINE)
        np.testing.assert_allclose(cfg.points, np.arange(1, 11), rtol=0, atol=1e-9)

        p = np.polynomial.Polynomial(coeffs.as_array())
        a, b = np.array(brackets).T
        mid = 0.5 * (a + b)
        newton = mid - p(mid) / p.deriv()(mid)
        assert np.any((newton < a) | (newton > b))


class TestOracleZeros:
    def test_legendre2_analytic(self):
        cfg = oracle_zeros(LEG, 2)
        np.testing.assert_allclose(cfg.points, [-INV_SQRT3, INV_SQRT3], atol=1e-14)

    def test_hermite1(self):
        assert oracle_zeros(HER, 1).points == (0.0,)

    def test_laguerre3(self):
        np.testing.assert_allclose(oracle_zeros(LAG, 3).points, L3_ZEROS, atol=1e-12)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_against_scipy_nodes_small(self, name, spec):
        # double-precision oracle regime
        for n in range(1, F64_ORACLE_LIMIT + 1):
            got = oracle_zeros(spec, n).as_array()
            np.testing.assert_allclose(
                got, scipy_nodes(name, n), rtol=0, atol=1e-10,
                err_msg=f"{name} n={n}",
            )

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_against_scipy_nodes_large(self, name, spec):
        # recurrence oracle regime
        for n in (16, 35, 60, 100):
            got = oracle_zeros(spec, n).as_array()
            ref = scipy_nodes(name, n)
            scale = 1.0 + np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) < 1e-12 * scale, (name, n)

    def test_recurrence_and_monomial_paths_agree_at_cutoff(self):
        for _, spec in CLASSICAL_SPECS[:4]:
            n = F64_ORACLE_LIMIT
            f64 = poly_roots(eigen_coefficients(spec, n), spec.domain).as_array()
            rec = _recurrence_zeros(spec, n).as_array()
            assert np.max(np.abs(f64 - rec)) < 1e-10 * (1 + np.max(np.abs(rec)))

    @pytest.mark.parametrize("name,spec", [CLASSICAL_SPECS[0], CLASSICAL_SPECS[2]])
    def test_against_scipy_nodes_degree_1000(self, name, spec):
        # the Newton polish rescales its recurrence; unscaled, Hermite
        # overflows here
        ref = scipy_nodes(name, 1000)
        got = oracle_zeros(spec, 1000).as_array()
        scale = 1.0 + np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) < 1e-12 * scale

    def test_not_real_rooted_refused(self):
        # p = -1, q = x: the recurrence has g_k = -k, so no zero is real
        spec = EquationSpec(0.0, 0.0, -1.0, 1.0, 0.0, REAL_LINE)
        with pytest.raises(RootCountMismatch, match="g_1"):
            oracle_zeros(spec, 20)

    def test_uncertified_spec_refused_without_claiming_complex_zeros(self):
        # g_1 < 0, yet all 14 zeros are real (one outside the domain, see
        # NOT_CERTIFIED): the refusal names g_1 and claims no more
        with pytest.raises(RootCountMismatch, match="g_1") as info:
            oracle_zeros(NOT_CERTIFIED, 14)
        assert "not real-rooted" not in str(info.value)

    def test_root_outside_domain_refused(self):
        # p = 1, q = x on the half-line: the Hermite-like zeros are symmetric
        # about 0, so those at and below 0 lie outside (0, inf)
        spec = EquationSpec(0.0, 0.0, 1.0, 1.0, 0.0, Domain(0.0, math.inf))
        with pytest.raises(ZeroflowError, match=r"root -5\.80017 lies outside .*\(0, inf\)"):
            oracle_zeros(spec, 13)

    @pytest.mark.parametrize("n", [8, 20])
    def test_spectrum_checked_once_per_call(self, n, monkeypatch):
        calls = []

        def spy(spec, m):
            calls.append(m)
            return check_simple_spectrum(spec, m)

        monkeypatch.setattr(spectral, "check_simple_spectrum", spy)
        oracle_zeros(LEG, n)
        assert calls == [n]

    @pytest.mark.parametrize("n", [8, 20])
    def test_degenerate_spectrum_raised_first(self, n):
        # lambda_m = m^2 - 2m: lambda_1 < lambda_0 on both oracle paths
        spec = EquationSpec(-1.0, 0.0, 1.0, -3.0, 0.0, Domain(-1.0, 1.0))
        with pytest.raises(DegenerateSpectrumError):
            oracle_zeros(spec, n)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_root_count_and_ordering(self, name, spec):
        # root count, strict ordering, and domain membership; degree sampled
        # up to 200 (the recurrence oracle beyond the monomial regime)
        for n in (1, 2, 3, 4, 6, 8, 12, 20, 50, 120, 200):
            cfg = oracle_zeros(spec, n)
            pts = cfg.as_array()
            assert pts.size == n
            assert np.all(np.diff(pts) > 0)
            assert np.all(pts > spec.domain.lower) and np.all(pts < spec.domain.upper)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_cross_validation_residual(self, name, spec):
        # the spectral and electrostatic modules certify each other
        for n in (1, 2, 5, 12, 40, 100):
            cfg = oracle_zeros(spec, n)
            scale = 1.0 + np.max(np.abs(cfg.as_array()))
            rnorm = np.max(np.abs(residual(spec, cfg)))
            assert rnorm < 1e-8 * scale, (name, n, rnorm)

    def test_generic_nonclassical_spec(self):
        # shifted/scaled Laguerre-type operator, still simple spectrum
        spec = EquationSpec(0.0, 0.5, 1.0, 2.0, 1.0, Domain(-2.0, math.inf))
        cfg = oracle_zeros(spec, 6)
        rnorm = np.max(np.abs(residual(spec, cfg)))
        assert rnorm < 1e-9

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            oracle_zeros(LEG, 0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
    def test_small_degree_zeros_away_from_origin(self):
        # the n <= 12 path expands in monomials around 0, which loses the
        # zeros once they sit away from it: 5.6e-3 off for Jacobi(0.3, 1.2)
        # moved to (2, 3) and 1.4e-6 for Hermite shifted by 10; the
        # references map scipy's nodes
        n = 12
        jacobi_nodes = scipy.special.roots_jacobi(n, 0.3, 1.2)[0]
        cases = [
            (jacobi_on(2.0, 3.0, 0.3, 1.2), 2.5 + 0.5 * jacobi_nodes),
            (hermite_at(10.0, 1.0), 10.0 + scipy.special.roots_hermitenorm(n)[0]),
        ]
        errors = [
            np.max(np.abs(oracle_zeros(spec, n).as_array() - ref) / np.maximum(1.0, np.abs(ref)))
            for spec, ref in cases
        ]
        assert max(errors) < 1e-12, errors


KERNEL_SPECS = [
    ("legendre", LEG),
    ("jacobi(0.3,1.2)", make_classical(ClassicalFamily.jacobi(0.3, 1.2))),
    ("laguerre(0)", LAG),
    ("hermite", HER),
]


def newton_correction(spec, n, x):
    b, g = _recurrence(spec, n)
    return _newton_correction(b, np.sqrt(g), x)


# (b_0, g_1) of the monic recurrence; the closed forms of _recurrence are
# 0/0 for Legendre's b_0 and Chebyshev-1's g_1
START_VALUES = [
    ("legendre", LEG, 0.0, 1.0 / 3.0),
    ("chebyshev1", make_classical(ClassicalFamily.chebyshev_first()), 0.0, 0.5),
    ("hermite", HER, 0.0, 1.0),
] + [
    (f"laguerre({a})", make_classical(ClassicalFamily.laguerre(a)), 1.0 + a, 1.0 + a)
    for a in (0.0, 0.5, 2.0)
]
START_SPECS = [row[:2] for row in START_VALUES]


class TestRecurrenceStart:
    """b_0 and g_1, which _recurrence takes from back-substituted columns."""

    @pytest.mark.parametrize("name,spec,b0,g1", START_VALUES)
    def test_start_values(self, name, spec, b0, g1):
        b, g = _recurrence(spec, 2)
        assert abs(b[0] - b0) <= 2 * math.ulp(b0), name
        assert abs(g[0] - g1) <= 2 * math.ulp(g1), name

    @pytest.mark.parametrize("name,spec", START_SPECS)
    def test_degree_one_zero_is_the_monic_root(self, name, spec):
        want = -eigen_coefficients(spec, 1).coeffs[0]
        assert _recurrence_zeros(spec, 1).points == (want,), name

    @pytest.mark.parametrize("name,spec", START_SPECS)
    def test_degree_two_zeros_are_the_quadratic_roots(self, name, spec):
        e2, a2, _ = eigen_coefficients(spec, 2).coeffs
        half = math.sqrt(a2 * a2 / 4.0 - e2)
        want = np.array([-a2 / 2.0 - half, -a2 / 2.0 + half])
        got = _recurrence_zeros(spec, 2).as_array()
        tol = 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= tol), (name, got, want)


def closed_form_recurrence(spec, n):
    """b_1..b_(n-1) and g_2..g_(n-1) from the formulas in _recurrence's
    docstring, with each factor c(s) computed on its own."""
    p2, p1, p0, q1, q0 = spec.p2, spec.p1, spec.p0, spec.q1, spec.q0

    def c(s):
        return q1 - p2 * s

    k = np.arange(1.0, n)
    m = k[1:]
    b = (p1 * (k * c(k + 1) + (k + 1) * c(k)) - q0 * q1) / (c(2 * k) * c(2 * k + 2))
    g = (
        m * c(m) * (p0 * c(2 * m) ** 2 + m * p1 * p1 * c(m) + q0 * (p2 * q0 - p1 * q1))
        / (c(2 * m) ** 2 * c(2 * m - 1) * c(2 * m + 1))
    )
    return b, g


@pytest.mark.parametrize("n", [2, 3, 13, 40])
@pytest.mark.parametrize(
    "name,spec",
    CLASSICAL_SPECS
    + [
        ("jacobi on (2, 3)", jacobi_on(2.0, 3.0, 0.3, 1.2)),
        ("hermite at 10", hermite_at(10.0, 1.5)),
        ("not certified", NOT_CERTIFIED),
    ],
)
def test_tabulated_recurrence_equals_the_closed_forms(name, spec, n):
    # _recurrence reads every c(s) from one table; same operations in the
    # same order give the same bytes
    b, g = _recurrence(spec, n)
    want_b, want_g = closed_form_recurrence(spec, n)
    assert b[1:].tobytes() == want_b.tobytes(), name
    assert g[1:].tobytes() == want_g.tobytes(), name


class TestNewtonCorrection:
    """delta = P_n(x) / P_n'(x), the polish of the recurrence oracle."""

    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("name,spec", KERNEL_SPECS)
    def test_vanishes_at_the_oracle_zeros(self, name, spec, n):
        # n = 10 takes its zeros from the monomial path, so this also
        # checks the two oracle paths against each other
        x = oracle_zeros(spec, n).as_array()
        delta = newton_correction(spec, n, x)
        assert np.max(np.abs(delta)) <= 2e-14 * max(1.0, np.max(np.abs(x))), name

    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("name,spec", KERNEL_SPECS)
    def test_reads_the_move_of_a_moved_zero(self, name, spec, n):
        # delta_i depends on x_i alone, so three zeros move at once
        x = oracle_zeros(spec, n).as_array()
        moved = [0, n // 2, n - 1]
        for share in (1e-3, 1e-9):
            step = share * np.min(np.diff(x))
            y = x.copy()
            y[moved] += step
            delta = newton_correction(spec, n, y)
            np.testing.assert_allclose(delta[moved], step, rtol=0.01, err_msg=f"{name} {share}")

    @pytest.mark.filterwarnings("error")
    def test_any_scale_of_spec(self):
        # Hermite with p = sigma^2: the zeros scale by sigma, and the
        # recurrence's per-step growth does not change
        want = oracle_zeros(HER, 1000).as_array()
        for sigma in (2.0**500, 2.0**-500):
            spec = EquationSpec(0.0, 0.0, sigma * sigma, 1.0, 0.0, REAL_LINE)
            got = oracle_zeros(spec, 1000).as_array() / sigma
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), sigma

    @pytest.mark.filterwarnings("error")
    def test_laguerre_degree_2000_stays_finite(self):
        x = oracle_zeros(LAG, 2000).as_array()
        assert np.all(np.isfinite(x))
        assert np.max(x) == pytest.approx(7927.9, abs=0.05)


class TestHeatPropagate:
    def test_t_zero_identity(self):
        c = PolynomialCoefficients((-2.0, 1.0, 1.0))
        out = heat_propagate(HER, c, 0.0)
        np.testing.assert_allclose(out.as_array(), c.as_array(), rtol=1e-14)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_eigenvector_scaling(self, name, spec):
        n, t = 5, 0.07
        c = eigen_coefficients(spec, n)
        out = heat_propagate(spec, c, t)
        np.testing.assert_allclose(
            out.as_array(),
            math.exp(eigenvalue(spec, n) * t) * c.as_array(),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_hermite_example_vs_expm(self):
        # coefficients of (x - 1)(x + 2) = x^2 + x - 2
        c = PolynomialCoefficients((-2.0, 1.0, 1.0))
        t = 0.05
        out = heat_propagate(HER, c, t)
        M = operator_matrix(HER, 2)
        expected = scipy.linalg.expm(t * M) @ c.as_array()
        np.testing.assert_allclose(out.as_array(), expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_random_polys_vs_expm(self, name, spec, rng):
        for _ in range(5):
            n = int(rng.integers(1, 9))
            c = rng.standard_normal(n + 1)
            c[-1] = c[-1] if abs(c[-1]) > 0.1 else 1.0
            t = float(rng.uniform(0.0, 0.2))
            out = heat_propagate(spec, PolynomialCoefficients(tuple(c)), t)
            M = operator_matrix(spec, n)
            expected = scipy.linalg.expm(t * M) @ c
            np.testing.assert_allclose(out.as_array(), expected, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_semigroup(self, name, spec, rng):
        n = 7
        c = PolynomialCoefficients(tuple(rng.standard_normal(n) ) + (1.0,))
        s, t = 0.03, 0.11
        once = heat_propagate(spec, heat_propagate(spec, c, s), t)
        direct = heat_propagate(spec, c, s + t)
        # relative to the coefficient vector scale (individual coefficients
        # may nearly cancel)
        gap = np.max(np.abs(once.as_array() - direct.as_array()))
        assert gap <= 1e-10 * np.max(np.abs(direct.as_array()))

    def test_degree_preservation(self):
        c = PolynomialCoefficients.from_roots((-0.4, 0.1, 0.5))
        t = 0.3
        out = heat_propagate(LEG, c, t)
        assert out.degree == 3
        assert out.coeffs[-1] == pytest.approx(
            math.exp(eigenvalue(LEG, 3) * t), rel=1e-12
        )

    def test_overflow_guard(self):
        c = eigen_coefficients(LEG, 10)  # lambda_10 = 110
        with pytest.raises(PropagatorOverflow):
            heat_propagate(LEG, c, 7.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            heat_propagate(LEG, PolynomialCoefficients((0.0, 1.0)), -0.1)

    @pytest.mark.filterwarnings("error")
    def test_nan_time_rejected_before_any_arithmetic(self):
        with pytest.raises(ValueError, match="propagation time must be nonnegative"):
            heat_propagate(LEG, PolynomialCoefficients((0.0, 1.0)), math.nan)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("roots", [(), (-0.4, 0.1, 0.5)], ids=["deg0", "deg3"])
    def test_infinite_time_rejected_before_any_arithmetic(self, roots):
        # at degree 0, lambda_0 * inf would be nan and pass the overflow guard
        c = PolynomialCoefficients.from_roots(roots)
        with pytest.raises(ValueError, match="propagation time must be nonnegative"):
            heat_propagate(LEG, c, math.inf)

    def test_degenerate_spectrum_propagates(self):
        spec = EquationSpec(0.0, 0.0, 1.0, 0.0, 0.0, Domain(-1, 1))
        with pytest.raises(DegenerateSpectrumError):
            heat_propagate(spec, PolynomialCoefficients((0.0, 0.0, 1.0)), 0.1)
        # lambda_1 = lambda_2 = 500: lambda_2 * t = 1000 would also overflow,
        # but the degenerate spectrum is reported first
        spec = EquationSpec(250.0, 0.0, 1.0, 1000.0, 0.0, REAL_LINE)
        with pytest.raises(DegenerateSpectrumError):
            heat_propagate(spec, PolynomialCoefficients((0.0, 0.0, 1.0)), 2.0)


@pytest.mark.parametrize(
    "call", [eigen_coefficients, eigenbasis_matrix, check_simple_spectrum, operator_matrix]
)
def test_negative_degree_refused(call):
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        call(LEG, -1)


class TestEigenbasis:
    def test_unit_upper_triangular(self):
        Y = eigenbasis_matrix(LEG, 8)
        np.testing.assert_allclose(np.diag(Y), np.ones(9))
        assert np.all(np.tril(Y, -1) == 0.0)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_columns_equal_eigen_coefficients(self, name, spec):
        n = 50
        Y = eigenbasis_matrix(spec, n)
        for k in range(n + 1):
            c = eigen_coefficients(spec, k).as_array()
            np.testing.assert_array_equal(Y[: k + 1, k], c, err_msg=f"{name}, k={k}")
            assert np.all(Y[k + 1 :, k] == 0.0), (name, k)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_matches_per_column_back_substitution(self, name, spec):
        # reference: each column solved on its own, c_k = 1 and
        # c_j = sum_{m > j} M[j][m] c_m / (lambda_k - lambda_j)
        n = 50
        Y = eigenbasis_matrix(spec, n)
        M = operator_matrix(spec, n)
        for k in range(n + 1):
            lam_k = eigenvalue(spec, k)
            c = np.zeros(k + 1)
            c[k] = 1.0
            for j in range(k - 1, -1, -1):
                c[j] = (M[j, j + 1 : k + 1] @ c[j + 1 :]) / (lam_k - M[j, j])
            err = np.linalg.norm(Y[: k + 1, k] - c) / np.linalg.norm(c)
            assert err <= 1e-14, (name, k, err)
