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
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .equilibrium import Configuration, _Vector, monic_from_roots
from .errors import PropagatorOverflow, RootCountMismatch, ZeroflowError
from .operator_core import (
    Domain,
    EquationSpec,
    _bands,
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
        return cls(monic_from_roots(roots))

    coeffs = property(_Vector._tuple)

    @property
    def degree(self) -> int:
        return self._v.size - 1


def _require_simple(spec: EquationSpec, n: int) -> None:
    defect = check_simple_spectrum(spec, n)
    if defect is not None:
        raise defect


def _monic_column(bands: tuple[list[float], ...], k: int) -> list[float]:
    """Monic degree-k eigenpolynomial (ascending) from the bands of the
    operator matrix up to any n >= k (_bands): c_k = 1 and, upward,

        c_j = (M[j][j+1] c_(j+1) + M[j][j+2] c_(j+2)) / (lambda_k - lambda_j)

    Row j reads rows below it only, so the column does not depend on n.
    Python floats: at these degrees numpy's per-call cost would dominate.
    """
    lam, band1, band2 = bands
    c = [0.0] * k + [1.0]
    for j in range(k - 1, -1, -1):
        row = band1[j] * c[j + 1]
        if j + 2 <= k:
            row += band2[j] * c[j + 2]
        c[j] = row / (lam[k] - lam[j])
    return c


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
    lie there); in each bracket, Newton steps safeguarded by bisection run
    until p reaches its round-off floor (see _bracketed_newton).

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
        m *= 2

    cs = c.tolist()
    brackets = zip(xs[flip].tolist(), xs[flip + 1].tolist(), sgn[flip].tolist())
    found = [_bracketed_newton(cs, a, b, s) for a, b, s in brackets]
    roots = np.sort(np.concatenate((found, exact)))
    if len(roots) != n or np.any(np.diff(roots) <= 0.0):
        raise RootCountMismatch(n, len(np.unique(roots)), "roots merged")
    return Configuration(roots)


def _recurrence(spec: EquationSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Monic three-term recurrence x y_k = y_(k+1) + b_k y_k + g_k y_(k-1)
    of the eigenpolynomials, in closed form from p and q.

    Returns b_0..b_(n-1) and g_1..g_(n-1).  With c(s) = q1 - p2 s, so that
    lambda_m - lambda_j = (m - j) c(m + j + 1):

        b_k = (p1 (k c(k+1) + (k+1) c(k)) - q0 q1) / (c(2k) c(2k+2))
        g_k = k c(k) (p0 c(2k)^2 + k p1^2 c(k) + q0 (p2 q0 - p1 q1))
              / (c(2k)^2 c(2k-1) c(2k+1))

    A simple spectrum up to n keeps c(s) != 0 for 2 <= s <= 2n, so only b_0
    (c(0), zero when q1 = 0) and g_1 (c(1), zero when q1 = p2) can be 0/0.
    Those two come from the top coefficients y_k = x^k + a_k x^(k-1) +
    e_k x^(k-2) + ... of y_1 and y_2 (_monic_column) instead.  The same
    differences at every k (b_k = a_k - a_(k+1), g_k = e_k - e_(k+1) -
    b_k a_k) would cancel at high degree, where a_k and e_k grow like k^2
    and k^4.
    """
    p2, p1, p0, q1, q0 = spec.p2, spec.p1, spec.p0, spec.q1, spec.q0

    def c(s):
        return q1 - p2 * s

    k = np.arange(n, dtype=float)
    m = k[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        b = (p1 * (k * c(k + 1) + (k + 1) * c(k)) - q0 * q1) / (c(2 * k) * c(2 * k + 2))
        g = (
            m * c(m) * (p0 * c(2 * m) ** 2 + m * p1 * p1 * c(m) + q0 * (p2 * q0 - p1 * q1))
            / (c(2 * m) ** 2 * c(2 * m - 1) * c(2 * m + 1))
        )
    bands = _bands(spec, min(n, 2))
    a1, _ = _monic_column(bands, 1)
    b[0] = -a1
    if n >= 2:
        e2, a2, _ = _monic_column(bands, 2)
        g[0] = -e2 - (a1 - a2) * a1
    return b, g


def _newton_correction(b: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """delta = P_n(x) / P_n'(x) at every point of x, for the orthonormal
    recurrence s_k P_(k+1) = (x - b_k) P_k - s_(k-1) P_(k-1), P_0 = 1,
    P_(-1) = 0, with n = len(b) and s = sqrt(g) (see _recurrence).

    (P_k, P_k') and (P_(k-1), P_(k-1)') are two (2, len(x)) arrays, updated
    by one set of array operations per k.  Every 8th k, each point's two
    pairs are multiplied by 2^(-e), with e the binary exponent (np.frexp) of
    that point's largest entry.  A power of two scales exactly, so delta is
    the ratio the unscaled recurrence would give, to the last bit, wherever
    that one stays inside double range (Hermite at n = 1000 reaches about
    e^1000).  Between rescales one step multiplies P by at most
    (|x - b_k| + s_(k-1)) / s_k, and P' by that plus its product-rule term
    P_k / s_k.  Rescaling the spec (x, b and s by sigma, P' by 1/sigma)
    leaves these ratios unchanged, so any scale of spec is safe; eight
    steps overflow only if a ratio passes 2^127.
    """
    n = len(b)
    bs = b.tolist()
    # the last step skips the normalisation: P_n / P_n' does not need it
    up = s.tolist() + [1.0]
    down = [0.0] + s.tolist()
    cur = np.zeros((2, len(x)))
    cur[0] = 1.0
    prev = np.zeros_like(cur)
    for k in range(n):
        nxt = (x - bs[k]) * cur
        nxt -= down[k] * prev
        nxt[1] += cur[0]
        nxt /= up[k]
        prev, cur = cur, nxt
        if k % 8 == 7:
            e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)).max(axis=0))[1]
            cur = np.ldexp(cur, -e)
            prev = np.ldexp(prev, -e)
    return cur[0] / cur[1]


def _recurrence_zeros(spec: EquationSpec, n: int) -> Configuration:
    """Zeros as the eigenvalues of the symmetric tridiagonal Jacobi matrix
    (Golub & Welsch 1969), polished by one Newton step.

    By Favard's theorem, g_k > 0 for every k gives a positive weight that
    makes the eigenpolynomials orthogonal, and with it real, simple zeros.
    The converse does not hold: a spec with some g_k <= 0 may still have n
    real zeros, but nothing certifies them, so it is refused before any
    eigen-solve.  The Newton step is x - _newton_correction(b, s, x): the
    orthonormal recurrence gives P_n / P_n' at every eigenvalue at once,
    rescaled by exact powers of two on the way.
    Raises DegenerateSpectrumError unless the spectrum is simple and
    increasing up to n.
    """
    _require_simple(spec, n)
    b, g = _recurrence(spec, n)
    bad = np.flatnonzero(~(g > 0.0))
    if bad.size:
        k = int(bad[0]) + 1
        raise RootCountMismatch(
            n,
            None,
            f"recurrence coefficient g_{k} = {g[k - 1]:.6g} <= 0, so no "
            "positive weight exists and the zeros are not certified real "
            "and inside the domain",
        )
    s = np.sqrt(g)
    x = np.linalg.eigvalsh(np.diag(b) + np.diag(s, 1) + np.diag(s, -1))
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
