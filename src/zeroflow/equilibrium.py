"""Electrostatic residual, Newton solver, equivalence check, and the
logarithmic pair energy for weights on (-1, 1).

The residual of a configuration {x_1 < ... < x_n} is

    R_i = p(x_i) * sum_{k != i} 2 / (x_i - x_k) + p'(x_i) - q(x_i)

and vanishes exactly when prod_k (x - x_k) is an eigenfunction of
-(p y')' + q y'.  For p = 1 - x^2 and q = (a+b) x + (a-b) the residual is
-2 p(x_i) times the gradient of the energy

    E = - sum_{i<j} log|x_i - x_j|
        - sum_i [ (a+1)/2 * log|x_i - 1| + (b+1)/2 * log|x_i + 1| ]

so equilibria of R coincide with stationary points of E.

The residual and Jacobian formulas are written once, row by row
(`_pair_rows`, `_residual_rows`, `_jacobian_rows`): `residual`,
`residual_jacobian`, the flow's right-hand side and each Newton iteration
build their rows from them.  Newton builds only the right half of the rows
when the problem is its own mirror image (see `newton_solve`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import MaxIterExceeded, PointOnBoundary, SingularJacobian
from .operator_core import (
    ClassicalFamily,
    Domain,
    EquationSpec,
    _newton_correction,
    _orthonormal_recurrence,
    check_simple_spectrum,
    eigenvalue,
)

__all__ = [
    "Configuration",
    "EquilibriumReport",
    "residual",
    "residual_jacobian",
    "newton_solve",
    "verify_theorem1",
    "stieltjes_energy",
    "stieltjes_gradient",
]


class _Vector:
    """One read-only float64 vector, compared and hashed by value.  A
    subclass names its tuple of Python floats (_FIELD, the view that JSON,
    CSV and messages read) and checks its own rules."""

    __slots__ = ("_v",)

    def __init__(self, values: Iterable[float], empty: str, what: str):
        listed = values if isinstance(values, (np.ndarray, Sequence)) else list(values)
        v = np.array(listed, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"{what} must form a one-dimensional sequence")
        if v.size < 1:
            raise ValueError(empty)
        if not np.isfinite(v).all():
            raise ValueError(f"{what} must be finite")
        v.flags.writeable = False
        self._v = v

    def as_array(self) -> np.ndarray:
        """The stored read-only array itself, not a copy."""
        return self._v

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self._v, other._v)

    def _tuple(self) -> tuple[float, ...]:
        return tuple(self._v.tolist())

    def __hash__(self):
        return hash(self._tuple())

    def __repr__(self):
        return f"{type(self).__name__}({self._FIELD}={self._tuple()!r})"


class Configuration(_Vector):
    """A strictly increasing vector of particle positions.

    Ordering (which also excludes duplicates) is enforced at construction;
    membership in a spec's domain is checked by the operations that take a
    spec, since the domain is not part of this value.
    """

    __slots__ = ()
    _FIELD = "points"

    def __init__(self, points: Iterable[float]):
        super().__init__(
            points, "a configuration needs at least one point", "configuration points"
        )
        if (self._v[1:] <= self._v[:-1]).any():
            raise ValueError("configuration points must be strictly increasing")

    points = property(_Vector._tuple)

    @property
    def n(self) -> int:
        return self._v.size


@dataclass(frozen=True)
class EquilibriumReport:
    """Both sides of Theorem 1 at one configuration (verify_theorem1).

    residual_norm is max_i |R_i|, and is_equilibrium is residual_norm < tol.
    lambda_recovered is eigenvalue(spec, n).  operator_defect is the
    eigenfunction side, max_i |y_n(x_i) / y_n'(x_i)| / max(1, max_i |x_i|):
    0 exactly at the zeros of y_n, inf where y_n' = 0.
    """

    residual_norm: float
    lambda_recovered: float
    operator_defect: float
    is_equilibrium: bool


def _require_in_domain(spec: EquationSpec, x: np.ndarray) -> None:
    if not spec.domain.contains(x):
        raise ValueError(
            f"configuration must lie inside the open domain "
            f"({spec.domain.lower:g}, {spec.domain.upper:g})"
        )


def _pair_rows(x: np.ndarray, lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """1/(x_i-x_k) and S_i = sum_{k!=i} 2/(x_i-x_k) for the rows
    i = lo..n-1, all of them by default.  The difference matrix's diagonal
    is +inf, whose reciprocal is exactly 0, so no second pass clears it.
    Each row is built and summed on its own, so its bytes do not depend on
    lo."""
    inv = x[lo:, None] - x
    inv.flat[lo :: x.size + 1] = np.inf  # the entries (i, i)
    np.reciprocal(inv, out=inv)
    return inv, 2.0 * inv.sum(axis=1)


def _residual_rows(spec: EquationSpec, xr: np.ndarray, s: np.ndarray) -> np.ndarray:
    """R_i at the points xr, given their pair sums s."""
    return spec.p(xr) * s + spec.dp(xr) - spec.q(xr)


def _jacobian_rows(
    spec: EquationSpec, x: np.ndarray, lo: int, inv: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Rows lo..n-1 of dR_i/dx_j, made in place from the rows inv and their
    pair sums s that `_pair_rows(x, lo)` returned."""
    xr = x[lo:]
    np.square(inv, out=inv)
    t = 2.0 * inv.sum(axis=1)
    px = spec.p(xr)
    inv *= (2.0 * px)[:, None]
    inv.flat[lo :: x.size + 1] = spec.dp(xr) * s - px * t + spec.ddp() - spec.dq()
    return inv


def _residual_array(spec: EquationSpec, x: np.ndarray) -> np.ndarray:
    return _residual_rows(spec, x, _pair_rows(x)[1])


def residual(spec: EquationSpec, config: Configuration) -> np.ndarray:
    """R_i = p(x_i) * sum_{k!=i} 2/(x_i-x_k) + p'(x_i) - q(x_i), i = 1..n."""
    x = config.as_array()
    _require_in_domain(spec, x)
    return _residual_array(spec, x)


def residual_jacobian(spec: EquationSpec, config: Configuration) -> np.ndarray:
    """Closed-form partial derivatives dR_i/dx_j.

    Diagonal: p'(x_i)*S_i - p(x_i)*T_i + p''(x_i) - q'(x_i) with
    S_i = sum 2/(x_i-x_k) and T_i = sum 2/(x_i-x_k)^2.
    Off-diagonal (j != i): 2*p(x_i) / (x_i-x_j)^2.
    """
    x = config.as_array()
    _require_in_domain(spec, x)
    # one n x n buffer: 1/(x_i-x_k), then its square, then the Jacobian
    return _jacobian_rows(spec, x, 0, *_pair_rows(x))


def _is_mirror(spec: EquationSpec, x: np.ndarray) -> bool:
    """Whether the problem at x is its own mirror image x -> -x: p even,
    q odd, the domain symmetric about 0, and x == -x[::-1] exactly.

    p constant with q = 0 is left out.  There R is unchanged by a common
    shift of the points, so J has the all-ones null vector everywhere and
    the full solve raises SingularJacobian; the mirror system leaves that
    vector out and would follow the points out to infinity."""
    return (
        spec.p1 == 0.0
        and spec.q0 == 0.0
        and (spec.p2 != 0.0 or spec.q1 != 0.0)
        and spec.domain.lower == -spec.domain.upper
        and x.size >= 2
        and np.array_equal(x, -x[::-1])
    )


def newton_solve(
    spec: EquationSpec,
    start: Configuration,
    tol: float,
    max_iter: int = 100,
) -> Configuration:
    """Damped Newton iteration on R(x) = 0.

    Full Newton steps are halved (up to 40 times) until the trial iterate is
    strictly increasing and inside the domain; no other globalization.
    At most max_iter steps are taken; with max_iter <= 0 only the start is
    checked against tol.  Raises MaxIterExceeded (carrying the last iterate
    and its residual norm) or SingularJacobian.

    Each iteration builds the rows of 1/(x_i-x_k) once: their row sums give
    the residual, and only when the stop test fails are they squared in
    place into the Jacobian.  When the problem is its own mirror image
    (p even, q odd, the domain symmetric about 0, n >= 2 and the start
    exactly equal to minus its reverse), R_(n-1-i) = -R_i and the step is
    antisymmetric too, so only the right h = n//2 rows are built and the
    h x h system J[:, n-h:] - J[:, h-1::-1] is solved; the step is mirrored
    back, with the middle point of odd n held at exactly 0.  Rounding is
    symmetric, so every iterate and the answer are exact mirror images.
    The stop test then reads the right half's residuals.  Any other input
    solves the full n x n system, with Legendre's equispaced start among
    them: -1 + 2k/(n+1) rounds differently on the two sides of 0 for most n.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    x = start.as_array()
    _require_in_domain(spec, x)
    n = x.size
    h = n // 2 if _is_mirror(spec, x) else n
    lo = n - h

    for iteration in itertools.count():
        inv, s = _pair_rows(x, lo)
        r = _residual_rows(spec, x[lo:], s)
        rnorm = float(np.max(np.abs(r)))
        if rnorm < tol:
            return Configuration(x)
        if iteration >= max_iter:
            raise MaxIterExceeded(Configuration(x), rnorm)
        J = _jacobian_rows(spec, x, lo, inv, s)
        if lo:
            # delta_(h-1-m) = -delta_(n-h+m); the middle column of odd n
            # meets delta = 0
            J = J[:, lo:] - J[:, h - 1 :: -1]
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(
                f"singular Jacobian at residual norm {rnorm:.3e}"
            ) from exc
        if lo:
            delta = np.concatenate((-delta[::-1], np.zeros(lo - h), delta))
        step = 1.0
        for _ in range(40):
            trial = x + step * delta
            if np.all(np.diff(trial) > 0.0) and spec.domain.contains(trial):
                break
            step *= 0.5
        else:
            raise MaxIterExceeded(Configuration(x), rnorm, "step damping exhausted")
        x = trial


def verify_theorem1(
    spec: EquationSpec, config: Configuration, tol: float
) -> EquilibriumReport:
    """Check both sides of the equilibrium <-> eigenfunction equivalence.

    The residual side is the max-norm of R.  The eigenfunction side asks
    whether the monic polynomial with the given roots is y_n, the degree-n
    eigenpolynomial; lambda is not fitted, since a monic candidate's leading
    coefficient forces lambda = eigenvalue(spec, n).  Its defect is

        max_i |delta_i| / max(1, max_i |x_i|),  delta_i = y_n(x_i) / y_n'(x_i),

    the relative Newton step that would move each x_i onto a zero of y_n.
    delta comes from the oracle's own three-term recurrence
    (operator_core._newton_correction), rescaled by exact powers of two, so
    the defect keeps its meaning at every n: at the oracle zeros it reads
    about 1e-16 for Legendre at n = 1000 and Laguerre(0) at n = 200, and a
    zero moved by d reads d / max(1, max_i |x_i|).  A point where
    y_n' = 0 reads inf, with no warning.

    The recurrence refuses what the oracle refuses, with the same errors:
    DegenerateSpectrumError unless the spectrum is simple and increasing up
    to n, then RootCountMismatch for a recurrence coefficient g_k <= 0.
    """
    # residual refuses points outside the domain before any spectral refusal
    rnorm = float(np.max(np.abs(residual(spec, config))))
    if (degenerate := check_simple_spectrum(spec, config.n)) is not None:
        raise degenerate
    b, s = _orthonormal_recurrence(spec, config.n)
    x = config.as_array()
    with np.errstate(divide="ignore"):
        delta = float(np.max(np.abs(_newton_correction(b, s, x))))
    return EquilibriumReport(
        residual_norm=rnorm,
        lambda_recovered=eigenvalue(spec, config.n),
        operator_defect=delta / max(1.0, float(np.max(np.abs(x)))),
        is_equilibrium=bool(rnorm < tol),
    )


_UNIT_INTERVAL = Domain(-1.0, 1.0)


def _check_energy_args(alpha: float, beta: float, x: np.ndarray) -> None:
    """ClassicalFamily.jacobi holds the parameter rule; x must be inside."""
    ClassicalFamily.jacobi(alpha, beta)
    if not _UNIT_INTERVAL.contains(x):
        raise PointOnBoundary("all points must lie strictly inside (-1, 1)")


def stieltjes_energy(alpha: float, beta: float, config: Configuration) -> float:
    """Logarithmic pair energy plus endpoint fields on (-1, 1).

    E = - sum_{i<j} log|x_i - x_j|
        - sum_i [ (alpha+1)/2 log|x_i - 1| + (beta+1)/2 log|x_i + 1| ]

    The pair sum runs over unordered pairs; its stationarity condition is

        sum_{k != i} 1/(x_k - x_i)
            = (alpha+1)/(2(x_i - 1)) + (beta+1)/(2(x_i + 1)).
    """
    x = config.as_array()
    _check_energy_args(alpha, beta, x)
    pair = 0.0
    if x.size > 1:
        i, j = np.triu_indices(x.size, k=1)
        pair = -float(np.sum(np.log(x[j] - x[i])))
    field = -float(
        np.sum(
            0.5 * (alpha + 1.0) * np.log(np.abs(x - 1.0))
            + 0.5 * (beta + 1.0) * np.log(np.abs(x + 1.0))
        )
    )
    return pair + field


def stieltjes_gradient(
    alpha: float, beta: float, config: Configuration
) -> np.ndarray:
    """Exact partial derivatives of the energy above.

    dE/dx_i = - sum_{k != i} 1/(x_i - x_k)
              - (alpha+1)/(2(x_i - 1)) - (beta+1)/(2(x_i + 1))

    Not -R/(2p): p = 1 - x^2 rounds, costing eps/(1-|x|) next to +-1.
    """
    x = config.as_array()
    _check_energy_args(alpha, beta, x)
    return (
        -0.5 * _pair_rows(x)[1]
        - 0.5 * (alpha + 1.0) / (x - 1.0)
        - 0.5 * (beta + 1.0) / (x + 1.0)
    )
