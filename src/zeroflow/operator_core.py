"""Equation specifications, classical families, eigenvalues, and the operator matrix.

Everything here concerns the differential operator

    L y = -(p(x) y')' + q(x) y'

with deg p <= 2 and deg q <= 1.  On the space of polynomials of degree at
most n the operator acts as an (n+1) x (n+1) upper triangular matrix in the
monomial basis, a read-only ndarray with two bands above the diagonal; its
diagonal carries the eigenvalues

    lambda_m = q1 * m - p2 * m * (m + 1).

Signs are normalized so that lambda_n > 0 for n >= 1 for every classical
family and the classical orthogonal polynomials are eigenfunctions.
check_simple_spectrum returns the DegenerateSpectrumError that names the
first pair of eigenvalues that fails to increase, or None.  Only this module
lists lambda_0 .. lambda_n (_spectrum) and solves p = 0 (_real_roots).

The private kernels of the eigenpolynomials live here too, below the
modules that use them: the monic column by back-substitution
(_monic_column), the three-term recurrence in closed form (_recurrence),
its refusal when some g_k <= 0 leaves no positive weight
(_orthonormal_recurrence), and the one evaluation of y_n / y_n' at given
points (_newton_correction).  spectral's oracle and
equilibrium.verify_theorem1 both read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpectrumError, RootCountMismatch

__all__ = [
    "Domain",
    "FamilyTag",
    "ClassicalFamily",
    "EquationSpec",
    "make_classical",
    "eigenvalue",
    "eigenvalue_gap",
    "operator_matrix",
    "check_simple_spectrum",
]


@dataclass(frozen=True)
class Domain:
    """Open interval (lower, upper); either end may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("domain endpoints must not be NaN")
        if not lo < hi:
            raise ValueError(f"domain requires lower < upper, got ({lo}, {hi})")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, x: float | np.ndarray) -> bool:
        """Strict interior membership of x, or of every entry of an array x.

        NaN is never inside, and neither is an infinite end point.
        """
        return bool(np.all(self.lower < x) and np.all(x < self.upper))

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)


REAL_LINE = Domain(-math.inf, math.inf)


class FamilyTag(str, Enum):
    HERMITE = "hermite"
    LEGENDRE = "legendre"
    JACOBI = "jacobi"
    LAGUERRE = "laguerre"
    CHEBYSHEV_FIRST = "chebyshev1"
    CHEBYSHEV_SECOND = "chebyshev2"


@dataclass(frozen=True)
class ClassicalFamily:
    """A classical family tag plus its parameters where applicable.

    Jacobi requires alpha, beta > -1; Laguerre requires alpha > -1.  The
    remaining families take no parameters.
    """

    tag: FamilyTag
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        tag = FamilyTag(self.tag)
        object.__setattr__(self, "tag", tag)
        if tag is FamilyTag.JACOBI:
            if self.alpha is None or self.beta is None:
                raise ValueError("Jacobi requires both alpha and beta")
            if not (self.alpha > -1 and self.beta > -1):
                raise ValueError("Jacobi requires alpha > -1 and beta > -1")
        elif tag is FamilyTag.LAGUERRE:
            if self.alpha is None:
                object.__setattr__(self, "alpha", 0.0)
            if not self.alpha > -1:
                raise ValueError("Laguerre requires alpha > -1")
            if self.beta is not None:
                raise ValueError("Laguerre takes no beta parameter")
        else:
            if self.alpha is not None or self.beta is not None:
                raise ValueError(f"{tag.value} takes no parameters")

    @classmethod
    def hermite(cls) -> "ClassicalFamily":
        return cls(FamilyTag.HERMITE)

    @classmethod
    def legendre(cls) -> "ClassicalFamily":
        return cls(FamilyTag.LEGENDRE)

    @classmethod
    def jacobi(cls, alpha: float, beta: float) -> "ClassicalFamily":
        return cls(FamilyTag.JACOBI, float(alpha), float(beta))

    @classmethod
    def laguerre(cls, alpha: float = 0.0) -> "ClassicalFamily":
        return cls(FamilyTag.LAGUERRE, float(alpha))

    @classmethod
    def chebyshev_first(cls) -> "ClassicalFamily":
        return cls(FamilyTag.CHEBYSHEV_FIRST)

    @classmethod
    def chebyshev_second(cls) -> "ClassicalFamily":
        return cls(FamilyTag.CHEBYSHEV_SECOND)


def _real_roots(p2: float, p1: float, p0: float) -> tuple[float, ...]:
    """Real roots of p2 x^2 + p1 x + p0 in increasing order, a double root
    twice and -0.0 as 0.0; none for a constant."""
    if p2 == 0.0:
        return () if p1 == 0.0 else (-p0 / p1 + 0.0,)
    disc = p1 * p1 - 4.0 * p2 * p0
    if disc < 0.0:
        return ()
    s = math.sqrt(disc)
    return tuple(sorted(((-p1 - s) / (2 * p2) + 0.0, (-p1 + s) / (2 * p2) + 0.0)))


@dataclass(frozen=True)
class EquationSpec:
    """Coefficients of p(x) = p2 x^2 + p1 x + p0 and q(x) = q1 x + q0,
    together with the open domain interval.

    Invariants enforced at construction: the coefficients are finite, p is
    not identically zero, and p has no root strictly inside the domain (the
    equilibrium equations would degenerate there).
    """

    p2: float
    p1: float
    p0: float
    q1: float
    q0: float
    domain: Domain

    def __post_init__(self):
        for name in ("p2", "p1", "p0", "q1", "q0"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"coefficient {name} must be finite")
            object.__setattr__(self, name, v)
        if self.p2 == 0.0 and self.p1 == 0.0 and self.p0 == 0.0:
            raise ValueError("p must not be identically zero")
        for r in _real_roots(self.p2, self.p1, self.p0):
            if self.domain.contains(r):
                raise ValueError(
                    f"p(x) vanishes at x={r:g} strictly inside the domain"
                )

    # polynomial evaluations; all accept scalars or numpy arrays
    def p(self, x):
        return (self.p2 * x + self.p1) * x + self.p0

    def dp(self, x):
        return 2.0 * self.p2 * x + self.p1

    def ddp(self) -> float:
        return 2.0 * self.p2

    def q(self, x):
        return self.q1 * x + self.q0

    def dq(self) -> float:
        return self.q1


def make_classical(family: ClassicalFamily) -> EquationSpec:
    """Canonical equation spec for a classical family.

    Canonical table (probabilists' convention for Hermite):

    ==================  ===========  =====================  ============
    family              p(x)         q(x)                   domain
    ==================  ===========  =====================  ============
    Hermite             1            x                      (-inf, inf)
    Legendre            1 - x^2      0                      (-1, 1)
    Jacobi(a, b)        1 - x^2      (a+b) x + (a-b)        (-1, 1)
    Laguerre(a)         x            x - a                  (0, inf)
    Chebyshev (first)   Jacobi(-1/2, -1/2)
    Chebyshev (second)  Jacobi(+1/2, +1/2)
    ==================  ===========  =====================  ============

    Each row is pinned by the degree-2 (degree-3 for Laguerre) eigenpolynomial
    tests in the test suite.
    """
    tag = family.tag
    if tag is FamilyTag.HERMITE:
        return EquationSpec(0.0, 0.0, 1.0, 1.0, 0.0, REAL_LINE)
    if tag is FamilyTag.LEGENDRE:
        return EquationSpec(-1.0, 0.0, 1.0, 0.0, 0.0, Domain(-1.0, 1.0))
    if tag is FamilyTag.JACOBI:
        a, b = family.alpha, family.beta
        return EquationSpec(-1.0, 0.0, 1.0, a + b, a - b, Domain(-1.0, 1.0))
    if tag is FamilyTag.LAGUERRE:
        a = family.alpha
        return EquationSpec(0.0, 1.0, 0.0, 1.0, -a + 0.0, Domain(0.0, math.inf))
    if tag is FamilyTag.CHEBYSHEV_FIRST:
        return make_classical(ClassicalFamily.jacobi(-0.5, -0.5))
    if tag is FamilyTag.CHEBYSHEV_SECOND:
        return make_classical(ClassicalFamily.jacobi(0.5, 0.5))
    raise ValueError(f"unknown family tag {tag!r}")


def eigenvalue(spec: EquationSpec, n: int) -> float:
    """lambda_n = q1 * n - p2 * n * (n + 1).

    Follows from matching leading coefficients: L x^n has x^n coefficient
    q1*n - p2*n*(n+1), so a monic degree-n eigenfunction forces this value.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return spec.q1 * n - spec.p2 * n * (n + 1)


def eigenvalue_gap(spec: EquationSpec, n: int) -> float:
    """lambda_n - lambda_{n-1} for n >= 1."""
    if n < 1:
        raise ValueError("gap requires n >= 1")
    return eigenvalue(spec, n) - eigenvalue(spec, n - 1)


def operator_matrix(spec: EquationSpec, n: int) -> np.ndarray:
    """Read-only (n+1) x (n+1) matrix of L on polynomials of degree <= n,
    ascending monomial basis.

    Upper triangular with bandwidth 2 above the diagonal: M[j][m] == 0
    unless m - 2 <= j <= m.  Column m holds the coefficients of L x^m:

        L x^m = -p * m(m-1) x^{m-2} + (q - p') * m x^{m-1}

    which expands to

        M[m][m]   = q1*m - p2*m*(m+1)
        M[m-1][m] = m*(q0 - p1*m)
        M[m-2][m] = -p0*m*(m-1)

    The identity with symbolic differentiation is property-tested.
    """
    bands = _bands(spec, n)  # refuses n < 0 before np.zeros sees a negative size
    M = np.zeros((n + 1, n + 1))
    # band k is the k-th superdiagonal; fill_diagonal keeps the signed zeros
    for k, band in enumerate(bands):
        np.fill_diagonal(M[:, k:], band)
    M.flags.writeable = False
    return M


def _spectrum(spec: EquationSpec, n: int) -> list[float]:
    """lambda_0 .. lambda_n as Python floats, each as eigenvalue gives it."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return [eigenvalue(spec, m) for m in range(n + 1)]


def _bands(spec: EquationSpec, n: int) -> tuple[list[float], list[float], list[float]]:
    """operator_matrix's diagonals M[j][j+k], k = 0, 1, 2, as lists of
    Python floats indexed by row j; entry j does not depend on n."""
    return (
        _spectrum(spec, n),
        [m * (spec.q0 - spec.p1 * m) for m in range(1, n + 1)],
        [-spec.p0 * m * (m - 1) for m in range(2, n + 1)],
    )


def check_simple_spectrum(
    spec: EquationSpec, n: int
) -> DegenerateSpectrumError | None:
    """None iff lambda_0 .. lambda_n are strictly increasing (hence pairwise
    distinct); otherwise the error naming the first consecutive offending
    pair, for the caller to raise.

    Since lambda_k is quadratic in k, strict increase of consecutive values
    is equivalent to the full pairwise condition.
    """
    lam = _spectrum(spec, n)
    for k in range(1, n + 1):
        if not lam[k] > lam[k - 1]:
            return DegenerateSpectrumError(k - 1, k, lam[k - 1], lam[k])
    return None


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


def _recurrence(spec: EquationSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Monic three-term recurrence x y_k = y_(k+1) + b_k y_k + g_k y_(k-1)
    of the eigenpolynomials, in closed form from p and q.

    Returns b_0..b_(n-1) and g_1..g_(n-1).  With c(s) = q1 - p2 s, so that
    lambda_m - lambda_j = (m - j) c(m + j + 1):

        b_k = (p1 (k c(k+1) + (k+1) c(k)) - q0 q1) / (c(2k) c(2k+2))
        g_k = k c(k) (p0 c(2k)^2 + k p1^2 c(k) + q0 (p2 q0 - p1 q1))
              / (c(2k)^2 c(2k-1) c(2k+1))

    c is tabulated once for s = 0 .. 2n and every factor is a slice of it.
    A simple spectrum up to n keeps c(s) != 0 for 2 <= s <= 2n, so only b_0
    (c(0), zero when q1 = 0) and g_1 (c(1), zero when q1 = p2) can be 0/0.
    Those two come from the top coefficients y_k = x^k + a_k x^(k-1) +
    e_k x^(k-2) + ... of y_1 and y_2 (_monic_column) instead.  The same
    differences at every k (b_k = a_k - a_(k+1), g_k = e_k - e_(k+1) -
    b_k a_k) would cancel at high degree, where a_k and e_k grow like k^2
    and k^4.
    """
    p2, p1, p0, q1, q0 = spec.p2, spec.p1, spec.p0, spec.q1, spec.q0
    s = np.arange(2 * n + 1, dtype=float)
    c = q1 - p2 * s
    even, odd = c[::2], c[1::2]  # c(2j), j = 0..n, and c(2j+1), j = 0..n-1
    k, k1, m, cm, c2m = s[:n], s[1 : n + 1], s[1:n], c[1:n], even[1:n] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        b = (p1 * (k * c[1 : n + 1] + k1 * c[:n]) - q0 * q1) / (even[:n] * even[1:])
        g = m * cm * (p0 * c2m + m * p1 * p1 * cm + q0 * (p2 * q0 - p1 * q1))
        g /= c2m * odd[:-1] * odd[1:]
    bands = _bands(spec, min(n, 2))
    a1, _ = _monic_column(bands, 1)
    b[0] = -a1
    if n >= 2:
        e2, a2, _ = _monic_column(bands, 2)
        g[0] = -e2 - (a1 - a2) * a1
    return b, g


def _orthonormal_recurrence(spec: EquationSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """b_0..b_(n-1) and s_k = sqrt(g_k), k = 1..n-1, of _recurrence, for
    a spec whose spectrum is simple and increasing up to n; each caller
    raises check_simple_spectrum's error first.

    By Favard's theorem, g_k > 0 for every k gives a positive weight that
    makes the eigenpolynomials orthogonal, and with it real, simple zeros.
    The converse does not hold: a spec with some g_k <= 0 may still have n
    real zeros, but nothing certifies them, so it raises RootCountMismatch.
    """
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
    return b, np.sqrt(g)


def _newton_correction(b: np.ndarray, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """delta = P_n(x) / P_n'(x) at every point of x, for the orthonormal
    recurrence s_k P_(k+1) = (x - b_k) P_k - s_(k-1) P_(k-1), P_0 = 1,
    P_(-1) = 0, with n = len(b) and s = sqrt(g) (see _recurrence).  This is
    the package's one evaluation of the eigenpolynomial at given points.

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
    bs = b.tolist()
    # the last step skips the normalisation: P_n / P_n' does not need it
    up = s.tolist() + [1.0]
    down = [0.0] + s.tolist()
    cur, prev = np.zeros((2, 2, len(x)))
    cur[0] = 1.0
    for k, bk in enumerate(bs):
        nxt = (x - bk) * cur
        nxt -= down[k] * prev
        nxt[1] += cur[0]
        nxt /= up[k]
        prev, cur = cur, nxt
        if k % 8 == 7:
            e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)).max(axis=0))[1]
            cur = np.ldexp(cur, -e)
            prev = np.ldexp(prev, -e)
    return cur[0] / cur[1]
