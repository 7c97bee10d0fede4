import math

import numpy as np
import pytest
import sympy

from zeroflow import (
    ClassicalFamily,
    DegenerateSpectrumError,
    Domain,
    EquationSpec,
    FamilyTag,
    check_simple_spectrum,
    eigenvalue,
    eigenvalue_gap,
    make_classical,
    operator_matrix,
)
from zeroflow.operator_core import _real_roots, _spectrum
from conftest import CLASSICAL_SPECS


class TestDomain:
    def test_open_membership(self):
        d = Domain(0.0, math.inf)
        assert d.contains(1e-12)
        assert not d.contains(0.0)
        assert d.contains(1e300)
        assert not d.contains(math.nan)
        assert not d.contains(math.inf)
        assert d.contains(np.array([1e-12, 1.0, 1e300]))
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            assert not d.contains(np.array([1.0, bad, 2.0]))
        # an entry equal to either finite end point is outside
        b = Domain(-1.0, 1.0)
        assert b.contains(np.array([-0.5, 0.5]))
        assert not b.contains(np.array([-1.0, 0.5]))
        assert not b.contains(np.array([-0.5, 1.0]))

    def test_requires_order(self):
        with pytest.raises(ValueError):
            Domain(1.0, 1.0)
        with pytest.raises(ValueError):
            Domain(2.0, -2.0)

    def test_rejects_nan_end(self):
        with pytest.raises(ValueError, match="NaN"):
            Domain(math.nan, 1.0)


class TestEquationSpec:
    def test_rejects_zero_p(self):
        with pytest.raises(ValueError):
            EquationSpec(0.0, 0.0, 0.0, 1.0, 0.0, Domain(-1, 1))

    def test_rejects_p_root_inside_domain(self):
        # p = x vanishes at 0, which is interior to (-1, 1)
        with pytest.raises(ValueError):
            EquationSpec(0.0, 1.0, 0.0, 1.0, 0.0, Domain(-1, 1))

    def test_rejects_infinite_coefficient(self):
        with pytest.raises(ValueError, match="q1 must be finite"):
            EquationSpec(0.0, 0.0, 1.0, math.inf, 0.0, Domain(-1, 1))

    def test_boundary_root_is_fine(self):
        EquationSpec(0.0, 1.0, 0.0, 1.0, 0.0, Domain(0.0, math.inf))
        EquationSpec(-1.0, 0.0, 1.0, 0.0, 0.0, Domain(-1.0, 1.0))

    def test_negative_p_inside_is_accepted(self):
        # sign of p is not constrained, only p != 0 inside
        EquationSpec(0.0, 0.0, -1.0, 0.0, 0.0, Domain(-1, 1))

    def test_interior_root_named_without_sign(self):
        # p = x^2: its double root is computed once as -0.0
        with pytest.raises(ValueError, match=r"vanishes at x=0 strictly"):
            EquationSpec(1.0, 0.0, 0.0, 0.0, 1.0, Domain(-1, 1))

    @pytest.mark.parametrize(
        "p2,p1,p0",
        [(0.0, 0.0, 1.0), (0.0, 0.0, -2.5), (0.0, 1.0, 0.0), (0.0, -3.0, 0.5),
         (-1.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.7, -1.3, 2.1)],  # fmt: skip
    )
    def test_p_gives_the_doubles_of_the_full_quadratic(self, p2, p1, p0, rng):
        # Horner from the highest nonzero coefficient, skipping a zero p1
        spec = EquationSpec(p2, p1, p0, 1.0, 0.0, Domain(5.0, math.inf))
        x = np.concatenate((rng.normal(size=200), rng.normal(size=200) * 1e150,
                            [0.0, -0.0, 1.0, -1.0, 1e-300]))  # fmt: skip
        full = (p2 * x + p1) * x + p0
        assert spec.p(x).tobytes() == full.tobytes()
        assert spec.p(x).shape == x.shape
        for v in x[:5].tolist() + [0.0, -0.0]:
            assert np.float64(spec.p(v)).tobytes() == np.float64((p2 * v + p1) * v + p0).tobytes()


class TestRealRoots:
    @pytest.mark.parametrize(
        "coeffs,roots",
        [
            ((-1.0, 0.0, 1.0), (-1.0, 1.0)),  # 1 - x^2
            ((1.0, 0.0, -1.0), (-1.0, 1.0)),  # x^2 - 1, same order
            ((1.0, 2.0, 1.0), (-1.0, -1.0)),  # double root twice
            ((-1.0, 1.0, 0.0), (0.0, 1.0)),  # x - x^2
            ((1.0, 0.0, 1.0), ()),  # no real root
            ((0.0, 1.0, 0.0), (0.0,)),  # x
            ((0.0, -2.0, 1.0), (0.5,)),  # 1 - 2x
            ((0.0, 0.0, 3.0), ()),  # constant
        ],
    )
    def test_increasing_and_unsigned_zero(self, coeffs, roots):
        got = _real_roots(*coeffs)
        assert got == roots
        assert all(math.copysign(1.0, r) == 1.0 for r in got if r == 0.0)


class TestMakeClassical:
    def test_laguerre_zero_matches_table(self):
        s = make_classical(ClassicalFamily.laguerre(0.0))
        assert (s.p2, s.p1, s.p0, s.q1, s.q0) == (0.0, 1.0, 0.0, 1.0, 0.0)
        assert (s.domain.lower, s.domain.upper) == (0.0, math.inf)

    def test_legendre_matches_table(self):
        s = make_classical(ClassicalFamily.legendre())
        assert (s.p2, s.p1, s.p0, s.q1, s.q0) == (-1.0, 0.0, 1.0, 0.0, 0.0)
        assert (s.domain.lower, s.domain.upper) == (-1.0, 1.0)

    def test_jacobi00_equals_legendre_fieldwise(self):
        assert make_classical(ClassicalFamily.jacobi(0.0, 0.0)) == make_classical(
            ClassicalFamily.legendre()
        )

    def test_chebyshev_aliases(self):
        t = make_classical(ClassicalFamily.chebyshev_first())
        assert t == make_classical(ClassicalFamily.jacobi(-0.5, -0.5))
        u = make_classical(ClassicalFamily.chebyshev_second())
        assert u == make_classical(ClassicalFamily.jacobi(0.5, 0.5))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ClassicalFamily.jacobi(-1.0, 0.0)
        with pytest.raises(ValueError):
            ClassicalFamily.laguerre(-1.5)
        with pytest.raises(ValueError):
            ClassicalFamily(FamilyTag.HERMITE, alpha=1.0)

    def test_lambda_positive_for_positive_degree(self):
        for _, spec in CLASSICAL_SPECS:
            for n in range(1, 30):
                assert eigenvalue(spec, n) > 0


class TestEigenvalue:
    def test_rejects_negative_degree_and_gap_below_one(self):
        leg = make_classical(ClassicalFamily.legendre())
        with pytest.raises(ValueError, match="nonnegative"):
            eigenvalue(leg, -1)
        with pytest.raises(ValueError, match="n >= 1"):
            eigenvalue_gap(leg, 0)

    def test_legendre(self):
        leg = make_classical(ClassicalFamily.legendre())
        assert eigenvalue(leg, 100) == 10100.0
        assert [eigenvalue(leg, n) for n in range(4)] == [0.0, 2.0, 6.0, 12.0]

    def test_laguerre(self):
        lag = make_classical(ClassicalFamily.laguerre(0.0))
        assert eigenvalue(lag, 3) == 3.0
        # independent of the parameter
        assert eigenvalue(make_classical(ClassicalFamily.laguerre(0.9)), 7) == 7.0

    def test_degree_zero_kernel(self):
        for _, spec in CLASSICAL_SPECS:
            assert eigenvalue(spec, 0) == 0.0

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, -0.25), (2.0, 1.0)])
    def test_jacobi_closed_form(self, alpha, beta):
        spec = make_classical(ClassicalFamily.jacobi(alpha, beta))
        for n in range(0, 12):
            assert eigenvalue(spec, n) == pytest.approx(
                n * (n + alpha + beta + 1), rel=1e-14
            )

    def test_spectrum_is_eigenvalue_bit_for_bit(self, rng):
        # signed zeros included: lambda_0 is -0.0 when q1 = -0.0 and p2 = 0
        special = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0]
        checked = 0
        while checked < 200:
            pick = rng.random(5) < 0.5
            coeffs = np.where(pick, rng.choice(special, 5), rng.uniform(-3, 3, 5))
            try:
                spec = EquationSpec(*coeffs, Domain(-1.0, 1.0))
            except ValueError:  # p vanishes inside, or p = 0
                continue
            n = int(rng.choice([0, 1, 2, 5, 13, 60, 200]))
            lam = _spectrum(spec, n)
            ref = [eigenvalue(spec, k) for k in range(n + 1)]
            assert np.array(lam).tobytes() == np.array(ref).tobytes()
            assert all(type(v) is float for v in lam)
            checked += 1

    def test_gap(self):
        leg = make_classical(ClassicalFamily.legendre())
        lag = make_classical(ClassicalFamily.laguerre(0.0))
        her = make_classical(ClassicalFamily.hermite())
        assert eigenvalue_gap(leg, 10) == 20.0
        assert all(eigenvalue_gap(lag, n) == 1.0 for n in range(1, 20))
        assert eigenvalue_gap(her, 1) == 1.0


def _sympy_operator_columns(spec, n):
    """Independent oracle: exact symbolic expansion of -(p y')' + q y' on x^m."""
    x = sympy.symbols("x")
    p = sympy.Rational(spec.p2) * x**2 + sympy.Rational(spec.p1) * x + sympy.Rational(spec.p0)
    q = sympy.Rational(spec.q1) * x + sympy.Rational(spec.q0)
    cols = np.zeros((n + 1, n + 1))
    for m in range(n + 1):
        y = x**m
        expr = sympy.expand(-sympy.diff(p * sympy.diff(y, x), x) + q * sympy.diff(y, x))
        poly = sympy.Poly(expr, x) if expr != 0 else None
        if poly is not None:
            for deg, coeff in zip(range(poly.degree(), -1, -1), poly.all_coeffs()):
                cols[deg, m] = float(coeff)
    return cols


class TestOperatorMatrix:
    def test_hermite_degree_two_by_hand(self):
        # L(1) = 0, L(x) = x, L(x^2) = -2 + 2x^2 for p = 1, q = x
        her = make_classical(ClassicalFamily.hermite())
        M = operator_matrix(her, 2)
        expected = np.array(
            [
                [0.0, 0.0, -2.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 2.0],
            ]
        )
        np.testing.assert_allclose(M, expected)

    def test_degree_zero(self):
        for _, spec in CLASSICAL_SPECS:
            np.testing.assert_array_equal(
                operator_matrix(spec, 0), np.zeros((1, 1))
            )

    def test_legendre_degree_two_vs_symbolic(self):
        leg = make_classical(ClassicalFamily.legendre())
        M = operator_matrix(leg, 2)
        np.testing.assert_allclose(M, _sympy_operator_columns(leg, 2))
        np.testing.assert_allclose(np.diag(M), [0.0, 2.0, 6.0])
        assert M[0, 2] == -2.0

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_classical_vs_symbolic(self, name, spec):
        n = 7
        np.testing.assert_allclose(
            operator_matrix(spec, n),
            _sympy_operator_columns(spec, n),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_random_specs_vs_symbolic(self, rng):
        # random rational coefficients keep the sympy comparison exact
        for _ in range(12):
            coeffs = rng.integers(-8, 9, size=5) / 4.0
            p2, p1, p0, q1, q0 = coeffs
            if p2 == 0 and p1 == 0 and p0 == 0:
                p0 = 1.0
            spec = EquationSpec(p2, p1, p0, q1, q0, Domain(5.0, 6.0))
            n = int(rng.integers(1, 21))
            np.testing.assert_allclose(
                operator_matrix(spec, n),
                _sympy_operator_columns(spec, n),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_band_structure(self):
        spec = make_classical(ClassicalFamily.jacobi(0.3, 1.2))
        M = operator_matrix(spec, 9)
        for j in range(10):
            for m in range(10):
                if j > m or j < m - 2:
                    assert M[j, m] == 0.0

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_diagonal_equals_eigenvalue(self, name, spec):
        M = operator_matrix(spec, 50)
        for n in range(51):
            assert M[n, n] == pytest.approx(eigenvalue(spec, n), rel=1e-15, abs=0)


class TestSimpleSpectrum:
    def test_classical_ok(self):
        leg = make_classical(ClassicalFamily.legendre())
        her = make_classical(ClassicalFamily.hermite())
        assert check_simple_spectrum(leg, 50) is None
        assert check_simple_spectrum(her, 10) is None

    def test_constant_pq_degenerate(self):
        spec = EquationSpec(0.0, 0.0, 1.0, 0.0, 0.0, Domain(-1, 1))
        defect = check_simple_spectrum(spec, 5)
        assert isinstance(defect, DegenerateSpectrumError)
        assert (defect.j, defect.k) == (0, 1)

    def test_eventually_decreasing(self):
        # p2 > 0 with small q1 turns the spectrum around
        spec = EquationSpec(1.0, 0.0, 1.0, 3.0, 0.0, Domain(-0.4, 0.4))
        assert check_simple_spectrum(spec, 1) is None
        defect = check_simple_spectrum(spec, 3)
        assert defect is not None and defect.k <= 3
