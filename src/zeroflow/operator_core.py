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
first pair of eigenvalues that fails to increase, or None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpectrumError

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
        for r in self._p_roots():
            if self.domain.contains(r):
                raise ValueError(
                    f"p(x) vanishes at x={r:g} strictly inside the domain"
                )

    def _p_roots(self) -> tuple[float, ...]:
        if self.p2 != 0.0:
            disc = self.p1 * self.p1 - 4.0 * self.p2 * self.p0
            if disc < 0.0:
                return ()
            s = math.sqrt(disc)
            return ((-self.p1 - s) / (2 * self.p2), (-self.p1 + s) / (2 * self.p2))
        if self.p1 != 0.0:
            return (-self.p0 / self.p1,)
        return ()

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
    if n < 0:
        raise ValueError("degree bound must be nonnegative")
    M = np.zeros((n + 1, n + 1))
    # band k is the k-th superdiagonal; fill_diagonal keeps the signed zeros
    for k, band in enumerate(_bands(spec, n)):
        np.fill_diagonal(M[:, k:], band)
    M.flags.writeable = False
    return M


def _bands(spec: EquationSpec, n: int) -> tuple[list[float], list[float], list[float]]:
    """operator_matrix's diagonals M[j][j+k], k = 0, 1, 2, as lists of
    Python floats indexed by row j; entry j does not depend on n."""
    return (
        [eigenvalue(spec, m) for m in range(n + 1)],
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
    lam_prev = eigenvalue(spec, 0)
    for k in range(1, n + 1):
        lam_k = eigenvalue(spec, k)
        if not lam_k > lam_prev:
            return DegenerateSpectrumError(k - 1, k, lam_prev, lam_k)
        lam_prev = lam_k
    return None
