"""Independent spectral route to eigenpolynomial zeros.

Because the operator matrix is upper triangular with the eigenvalues on the
diagonal, the monic eigenvector for lambda_k follows by back-substitution
over the matrix's three bands, one column loop (_monic_column) that serves
eigen_coefficients and every column of eigenbasis_matrix.  The real roots
of eigen_coefficients' polynomial are then isolated by sign changes
on a refining grid and found by Newton steps kept inside each sign-change
bracket, down to the round-off floor of the Horner evaluation.
heat_propagate evolves arbitrary polynomial coefficients exactly under
exp(t M) through the whole eigenbasis, with no time stepping.

Two paths, chosen by degree: monomial coefficients of high-degree
polynomials whose roots fill an interval are catastrophically ill-conditioned
as a root representation (root sensitivity grows roughly like 2^n times
machine epsilon).  So oracle_zeros runs back-substitution and bracketing only
up to F64_ORACLE_LIMIT.  Beyond it the zeros are the eigenvalues of the
symmetric tridiagonal Jacobi matrix of the eigenpolynomials' three-term
recurrence, whose coefficients follow from p and q in closed form (Golub &
Welsch 1969), polished by one Newton step on that recurrence, which it
evaluates for all zeros at once and rescales by exact powers of two
(_newton_correction).  Both paths run in double precision.

The column loop and the recurrence kernels (_monic_column, _recurrence,
_orthonormal_recurrence with its g_k > 0 refusal, _newton_correction) live in
operator_core, beside _bands and _spectrum, because
equilibrium.verify_theorem1 evaluates y_n on the same recurrence; this
module imports them from there.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .equilibrium import Configuration, _Vector
from .errors import PropagatorOverflow, RootCountMismatch, ZeroflowError
from .operator_core import (
    Domain,
    EquationSpec,
    _bands,
    _monic_column,
    _newton_correction,
    _orthonormal_recurrence,
    _spectrum,
    check_simple_spectrum,
)

__all__ = [
    "PolynomialCoefficients",
    "eigen_coefficients",
    "poly_roots",
    "oracle_zeros",
    "heat_propagate",
]

# Largest degree of the monomial path (eigen_coefficients + poly_roots); the
# recurrence path takes every degree above it.  Up to here the monomial path
# still delivers roots below ~2e-11 absolute error for every classical family
# (the worst case is the Laguerre domain, whose large roots amplify
# evaluation cancellation).
F64_ORACLE_LIMIT = 12

_MAX_GRID = 2**22
_EPS = float(np.finfo(float).eps)


class PolynomialCoefficients(_Vector):
    """Real polynomial in the monomial basis, ascending degree order.

    The leading coefficient must be nonzero; monic variants carry a leading
    coefficient of exactly 1.
    """

    __slots__ = ()
    _FIELD = "coeffs"

    def __init__(self, coeffs: Iterable[float]):
        super().__init__(coeffs, "need at least one coefficient", "coefficients")
        if self._v[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")

    @classmethod
    def from_roots(cls, roots: Iterable[float]) -> "PolynomialCoefficients":
        """The monic polynomial prod_k (x - x_k)."""
        c = np.array([1.0])
        for r in roots:
            c = np.concatenate(([0.0], c)) - float(r) * np.concatenate((c, [0.0]))
        return cls(c)

    coeffs = property(_Vector._tuple)

    @property
    def degree(self) -> int:
        return self._v.size - 1


def _require_simple(spec: EquationSpec, n: int) -> None:
    defect = check_simple_spectrum(spec, n)
    if defect is not None:
        raise defect


def eigenbasis_matrix(spec: EquationSpec, n: int) -> np.ndarray:
    """Unit upper triangular matrix whose column k holds the monic degree-k
    eigenpolynomial's coefficients (ascending, zero padded), k = 0 .. n:
    _monic_column for each k.  Requires a simple increasing spectrum up to n.
    """
    _require_simple(spec, n)
    bands = _bands(spec, n)
    Y = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        Y[: k + 1, k] = _monic_column(bands, k)
    return Y


def eigen_coefficients(spec: EquationSpec, n: int) -> PolynomialCoefficients:
    """Monic eigenvector of the operator matrix for lambda_n (_monic_column),
    the last column of eigenbasis_matrix(spec, n) to the last bit.
    Requires a simple increasing spectrum up to n.
    """
    _require_simple(spec, n)
    return PolynomialCoefficients(_monic_column(_bands(spec, n), n))


def _samuelson_interval(c: np.ndarray) -> tuple[float, float]:
    """Interval containing all roots of a real-rooted polynomial, from the
    first two power sums of the roots (Samuelson's inequality).  For inputs
    that are not real-rooted the interval is merely heuristic, but those
    inputs fail root isolation anyway.
    """
    n = len(c) - 1
    s1 = -c[n - 1] / c[n]
    e2 = c[n - 2] / c[n] if n >= 2 else 0.0
    p2 = s1 * s1 - 2.0 * e2
    mean = s1 / n
    var = max(p2 / n - mean * mean, 0.0)
    half = math.sqrt((n - 1) * var) if n > 1 else 0.0
    return mean - half, mean + half


def _cos_grid(lo: float, hi: float, m: int) -> np.ndarray:
    """m+1 points clustering at both ends, matching how zeros of the
    eigenpolynomials accumulate near interval endpoints."""
    theta = np.linspace(0.0, math.pi, m + 1)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)[::-1]


def _bracketed_newton(c: list[float], a: float, b: float, sign_a: float) -> float:
    """The root of the polynomial c (ascending) in the bracket [a, b], where
    p(a) has the nonzero sign sign_a and p(b) the opposite one.

    Newton's method from the bracket's midpoint, safeguarded by the bracket:
    every evaluation moves the endpoint whose sign p shares to x, and a
    Newton step that would leave the closed bracket becomes a bisection.
    The same Horner pass that gives p and p' gives e = sum |c_i| |x|^i,
    and |p| <= 2n eps e is the round-off floor of the computed p (Higham,
    Accuracy and Stability of Numerical Algorithms, section 5.1).  The root
    is done at that floor or once a step is below 4 eps (1 + |x|); at the
    floor it still takes the Newton correction if that stays in the
    bracket, as the computed p still points towards the root.

    Each root runs on Python floats: with a dozen roots, numpy's per-call
    cost outweighs the arithmetic, and the results are the same doubles.
    """
    n = len(c) - 1
    terms = [(ci, abs(ci)) for ci in reversed(c[:-1])]
    floor_per_e = 2 * n * _EPS
    x = 0.5 * (a + b)
    for _ in range(200):  # backstop; a simple root needs a handful of steps
        p, d, e, ax = c[n], 0.0, abs(c[n]), abs(x)
        for ci, abs_ci in terms:
            d = d * x + p
            p = p * x + ci
            e = e * ax + abs_ci
        if p * sign_a > 0:
            a = x
        else:
            b = x
        at_floor = abs(p) <= floor_per_e * e
        xn = x - p / d if d else math.nan
        if a <= xn <= b:
            step = xn
        elif at_floor:
            step = x
        else:
            step = 0.5 * (a + b)
        if at_floor or abs(step - x) <= 4.0 * _EPS * (1.0 + abs(step)):
            return step
        x = step
    return x


def poly_roots(coeffs: PolynomialCoefficients, domain: Domain) -> Configuration:
    """Isolate all real roots of a polynomial expected to be real-rooted.

    Sign changes are bracketed on a refining grid bounded by the Cauchy
    bound 1 + max|c_i / c_n| (tightened by Samuelson's inequality and
    clipped to the domain's finite endpoints, since the roots of interest
    lie there).  The grid starts at max(64, 8n) cells and doubles up to
    _MAX_GRID = 2^22 cells, the last doubling clamped to it.  In each
    bracket, Newton steps safeguarded by bisection run until p reaches its
    round-off floor (see _bracketed_newton).

    Raises RootCountMismatch when the number of isolated real roots differs
    from the degree, which signals complex roots or numerical breakdown.
    Domain membership of the returned points is not enforced here.
    """
    c = coeffs.as_array()
    n = coeffs.degree
    if n < 1:
        raise ValueError("root isolation needs degree >= 1")
    # a power of two moves no root and no floor test, but keeps Horner
    # intermediates of badly scaled coefficients from overflowing
    c = np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1])
    if n == 1:
        return Configuration((-c[0] / c[1] + 0.0,))

    cauchy = 1.0 + np.max(np.abs(c[:-1])) / abs(c[-1])
    slo, shi = _samuelson_interval(c)
    lo = max(-cauchy, slo, domain.lower)
    hi = min(cauchy, shi, domain.upper)
    if not lo < hi:
        lo, hi = -cauchy, cauchy
    lo -= 1e-9 * (1.0 + abs(lo))
    hi += 1e-9 * (1.0 + abs(hi))

    m = max(64, 8 * n)
    while True:
        xs = _cos_grid(lo, hi, m)
        vals = np.polynomial.polynomial.polyval(xs, c)
        if not np.all(np.isfinite(vals)):
            raise RootCountMismatch(n, 0, "overflow while evaluating on grid")
        sgn = np.sign(vals)
        exact = xs[sgn == 0.0]
        # bracket only adjacent cells with opposite nonzero signs; cells
        # touching an exact zero are accounted for by the zero itself
        flip = np.nonzero((sgn[:-1] != 0) & (sgn[1:] != 0) & (sgn[:-1] != sgn[1:]))[0]
        count = len(exact) + len(flip)
        if count == n:
            break
        if m >= _MAX_GRID or count > n:
            raise RootCountMismatch(n, int(count), f"grid of {m} cells")
        m = min(2 * m, _MAX_GRID)

    cs = c.tolist()
    brackets = zip(xs[flip].tolist(), xs[flip + 1].tolist(), sgn[flip].tolist())
    found = [_bracketed_newton(cs, a, b, s) for a, b, s in brackets]
    roots = np.sort(np.concatenate((found, exact)))
    if len(roots) != n or np.any(np.diff(roots) <= 0.0):
        raise RootCountMismatch(n, len(np.unique(roots)), "roots merged")
    return Configuration(roots)


def _recurrence_zeros(spec: EquationSpec, n: int) -> Configuration:
    """Zeros as the eigenvalues of the symmetric tridiagonal Jacobi matrix
    (Golub & Welsch 1969), polished by one Newton step.

    Raises DegenerateSpectrumError unless the spectrum is simple and
    increasing up to n, then _orthonormal_recurrence's RootCountMismatch
    for some g_k <= 0, both before any eigen-solve.  eigvalsh reads the
    lower triangle only, so the matrix holds just b on its diagonal and s
    below it.  The Newton step is x - _newton_correction(b, s, x): the
    orthonormal recurrence gives P_n / P_n' at every eigenvalue at once,
    rescaled by exact powers of two on the way.
    """
    _require_simple(spec, n)
    b, s = _orthonormal_recurrence(spec, n)
    x = np.linalg.eigvalsh(np.diag(b) + np.diag(s, -1), UPLO="L")
    x = x - _newton_correction(b, s, x)
    if np.any(np.diff(x) <= 0.0):
        raise RootCountMismatch(n, len(np.unique(x)), "roots merged")
    return Configuration(x)


def oracle_zeros(spec: EquationSpec, n: int) -> Configuration:
    """Zeros of the degree-n eigenpolynomial, strictly inside the domain.

    Composition of eigen_coefficients and poly_roots up to degree
    F64_ORACLE_LIMIT, the three-term recurrence beyond it (see module
    docstring).
    """
    if n < 1:
        raise ValueError("oracle_zeros requires n >= 1")
    # either path checks the spectrum first: eigen_coefficients or
    # _recurrence_zeros
    if n <= F64_ORACLE_LIMIT:
        config = poly_roots(eigen_coefficients(spec, n), spec.domain)
    else:
        config = _recurrence_zeros(spec, n)
    if not spec.domain.contains(config.as_array()):
        r = next(r for r in config.points if not spec.domain.contains(r))
        raise ZeroflowError(
            f"eigenpolynomial root {r:g} lies outside the open domain "
            f"({spec.domain.lower:g}, {spec.domain.upper:g})"
        )
    return config


_EXP_CAP = 700.0


def heat_propagate(
    spec: EquationSpec, coeffs: PolynomialCoefficients, t: float
) -> PolynomialCoefficients:
    """Apply exp(t M) to polynomial coefficients exactly.

    Expands the input in the eigenbasis (triangular solve), scales component
    k by exp(lambda_k t), and maps back.  No time stepping is involved, so
    the result is exact up to round-off.  lambda_n * t is capped at 700 to
    stay within double range.
    """
    if not 0 <= t < math.inf:  # also refuses NaN and inf, before any arithmetic
        raise ValueError("propagation time must be nonnegative and finite")
    n = coeffs.degree
    Y = eigenbasis_matrix(spec, n)
    lam = np.array(_spectrum(spec, n))
    if lam[n] * t > _EXP_CAP:
        raise PropagatorOverflow(
            f"lambda_n * t = {lam[n] * t:.3g} exceeds {_EXP_CAP:g}"
        )
    a = np.linalg.solve(Y, coeffs.as_array())
    out = Y @ (a * np.exp(lam * t))
    return PolynomialCoefficients(out)
