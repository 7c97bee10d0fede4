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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MaxIterExceeded, PointOnBoundary, SingularJacobian
from .operator_core import (
    ClassicalFamily,
    Domain,
    EquationSpec,
    eigenvalue,
    operator_matrix,
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


@dataclass(frozen=True)
class Configuration:
    """A strictly increasing tuple of particle positions.

    Ordering (which also excludes duplicates) is enforced at construction;
    membership in a spec's domain is checked by the operations that take a
    spec, since the domain is not part of this value.
    """

    points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(x) for x in self.points)
        if len(pts) < 1:
            raise ValueError("a configuration needs at least one point")
        if not all(np.isfinite(pts)):
            raise ValueError("configuration points must be finite")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("configuration points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=float)


@dataclass(frozen=True)
class EquilibriumReport:
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


def _inverse_differences(x: np.ndarray) -> np.ndarray:
    """1/(x_i-x_k) as an n x n matrix.  The difference matrix's diagonal is
    +inf, whose reciprocal is exactly 0, so no second pass clears it."""
    inv = x[:, None] - x
    np.fill_diagonal(inv, np.inf)
    np.reciprocal(inv, out=inv)
    return inv


def _pair_sums(x: np.ndarray) -> np.ndarray:
    """S_i = sum_{k!=i} 2/(x_i-x_k) for each i."""
    return 2.0 * _inverse_differences(x).sum(axis=1)


def _residual_array(spec: EquationSpec, x: np.ndarray) -> np.ndarray:
    return spec.p(x) * _pair_sums(x) + spec.dp(x) - spec.q(x)


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
    n = x.size
    # one n x n buffer: 1/(x_i-x_k), then its square, then the Jacobian
    J = _inverse_differences(x)
    s = 2.0 * J.sum(axis=1)
    np.square(J, out=J)
    t = 2.0 * J.sum(axis=1)
    px = spec.p(x)
    J *= (2.0 * px)[:, None]
    J[np.arange(n), np.arange(n)] = spec.dp(x) * s - px * t + spec.ddp() - spec.dq()
    return J


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
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    x = start.as_array()
    _require_in_domain(spec, x)

    for iteration in itertools.count():
        r = _residual_array(spec, x)
        rnorm = float(np.max(np.abs(r)))
        if rnorm < tol:
            return Configuration(tuple(x))
        if iteration >= max_iter:
            raise MaxIterExceeded(Configuration(tuple(x)), rnorm)
        J = residual_jacobian(spec, Configuration(tuple(x)))
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(
                f"singular Jacobian at residual norm {rnorm:.3e}"
            ) from exc
        step = 1.0
        for _ in range(40):
            trial = x + step * delta
            if np.all(np.diff(trial) > 0.0) and spec.domain.contains(trial):
                break
            step *= 0.5
        else:
            raise MaxIterExceeded(
                Configuration(tuple(x)), rnorm, "step damping exhausted"
            )
        x = trial


def monic_from_roots(points: Sequence[float]) -> np.ndarray:
    """Ascending coefficients of prod_k (x - x_k); leading coefficient 1."""
    c = np.array([1.0])
    for r in points:
        c = np.concatenate(([0.0], c)) - float(r) * np.concatenate((c, [0.0]))
    return c


def verify_theorem1(
    spec: EquationSpec, config: Configuration, tol: float
) -> EquilibriumReport:
    """Check both sides of the equilibrium <-> eigenfunction equivalence.

    Expands the monic polynomial with the given roots, applies the operator
    matrix, and reports both the relative operator defect
    ||M c - lambda_n c|| / ||c|| and the residual max-norm.  lambda is not
    fitted: for a monic candidate the leading coefficient forces
    lambda = eigenvalue(spec, n).
    """
    x = config.as_array()
    _require_in_domain(spec, x)
    n = config.n
    c = monic_from_roots(x)
    M = operator_matrix(spec, n)
    lam = eigenvalue(spec, n)
    defect = float(np.linalg.norm(M @ c - lam * c) / np.linalg.norm(c))
    rnorm = float(np.max(np.abs(_residual_array(spec, x))))
    return EquilibriumReport(
        residual_norm=rnorm,
        lambda_recovered=lam,
        operator_defect=defect,
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
        -0.5 * _pair_sums(x)
        - 0.5 * (alpha + 1.0) / (x - 1.0)
        - 0.5 * (beta + 1.0) / (x + 1.0)
    )
