"""Reference answers for the benchmark, computed without zeroflow.

Zeros come from the eigenvalues of the symmetric tridiagonal Jacobi matrix
built from the textbook three-term recurrence of each monic classical family
(Golub & Welsch 1969).  Heat propagation comes from scipy's matrix
exponential of the operator matrix, assembled here from p and q.  scipy is
imported on first use, so that its import is not part of the benchmark's
set-up time.  Every
tolerance is derived from the requested residual tolerance, the round-off of
the computation and the scale of the problem, never from measured errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Family:
    """One classical family, described independently of zeroflow.

    ``hermite`` is the probabilists' family stretched and moved so that its
    zeros are ``shift + scale * z`` for the zeros z of He_n; with scale 1 and
    shift 0 it is the plain family.  ``jacobi`` uses alpha and beta,
    ``laguerre`` uses alpha.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    scale: float = 1.0
    shift: float = 0.0

    def coefficients(self) -> tuple[float, float, float, float, float]:
        """(p2, p1, p0, q1, q0) of -(p y')' + q y' with this family's
        polynomials as eigenfunctions."""
        if self.kind == "hermite":
            # -s^2 y'' + (x - shift) y' maps to -y'' + z y' under x = shift + s z
            return 0.0, 0.0, self.scale**2, 1.0, -self.shift
        if self.kind == "jacobi":
            a, b = self.alpha, self.beta
            return -1.0, 0.0, 1.0, a + b, a - b
        if self.kind == "laguerre":
            return 0.0, 1.0, 0.0, 1.0, -self.alpha
        raise ValueError(f"unknown family kind {self.kind!r}")

    def domain(self) -> tuple[float, float]:
        if self.kind == "jacobi":
            return -1.0, 1.0
        if self.kind == "laguerre":
            return 0.0, math.inf
        return -math.inf, math.inf


def recurrence(fam: Family, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Monic recurrence x P_k = P_{k+1} + b_k P_k + g_k P_{k-1}.

    Returns b_0..b_{n-1} and g_1..g_{n-1} of the unstretched family.
    """
    k = np.arange(n, dtype=float)
    if fam.kind == "hermite":
        return np.zeros(n), k[1:].copy()
    if fam.kind == "laguerre":
        a = fam.alpha
        return 2.0 * k + a + 1.0, k[1:] * (k[1:] + a)
    if fam.kind == "jacobi":
        a, b = fam.alpha, fam.beta
        s = 2.0 * k + a + b
        m, sm = k[1:], s[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            diag = (b * b - a * a) / (s * (s + 2.0))
            g = 4.0 * m * (m + a) * (m + b) * (m + a + b) / (
                sm * sm * (sm + 1.0) * (sm - 1.0)
            )
        diag[0] = (b - a) / (a + b + 2.0)
        if n > 1:
            # the factor (1 + a + b) cancels in g_1; the formula is 0/0 at a+b = -1
            g[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
        return diag, g
    raise ValueError(f"unknown family kind {fam.kind!r}")


def _jacobi_matrix(fam: Family, n: int) -> tuple[np.ndarray, np.ndarray]:
    diag, g = recurrence(fam, n)
    if np.any(g <= 0.0):
        raise ValueError("recurrence is not positive definite (Favard)")
    return diag, np.sqrt(g)


def zeros(fam: Family, n: int) -> np.ndarray:
    """Ascending zeros of the degree-n eigenpolynomial."""
    from scipy.linalg import eigvalsh_tridiagonal

    diag, off = _jacobi_matrix(fam, n)
    # bisection: absolute accuracy eps * ||T||; the default MRRR driver was
    # about 100 times less accurate on Hermite at n = 1000
    z = eigvalsh_tridiagonal(diag, off, lapack_driver="stebz")
    return fam.shift + fam.scale * np.sort(z)


def zeros_error(fam: Family, n: int) -> float:
    """Bound on the absolute error of ``zeros``: a small multiple of
    eps * ||T|| for the symmetric tridiagonal eigenproblem, with ||T|| the
    largest Gershgorin row sum, stretched like the zeros."""
    diag, off = _jacobi_matrix(fam, n)
    rows = np.abs(diag)
    rows[:-1] += off
    rows[1:] += off
    return 16.0 * EPS * float(np.max(rows)) * fam.scale + 4.0 * EPS * abs(fam.shift)


def _pq(fam: Family, x: np.ndarray):
    p2, p1, p0, q1, q0 = fam.coefficients()
    return (p2 * x + p1) * x + p0, 2.0 * p2 * x + p1, 2.0 * p2, q1 * x + q0, q1


def equilibrium_tolerance(fam: Family, x: np.ndarray, residual_tol: float) -> float:
    """Largest distance from the exact zeros ``x`` that a configuration may
    have when a solver stopped at residual max-norm below ``residual_tol``.

    To first order the error is J^{-1} R, with J the residual Jacobian at the
    zeros.  The residual that the solver computed may itself be off by its
    round-off, 4 n eps times the magnitude of its terms; the factor 2 covers
    the second-order term.
    """
    n = x.size
    p, dp, ddp, q, dq = _pq(fam, x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    s = 2.0 * inv.sum(axis=1)
    jac = 2.0 * p[:, None] * inv * inv
    jac[np.diag_indices(n)] = dp * s - p * 2.0 * (inv * inv).sum(axis=1) + ddp - dq
    terms = np.abs(p) * 2.0 * np.abs(inv).sum(axis=1) + np.abs(dp) + np.abs(q)
    floor = 4.0 * n * EPS * float(np.max(terms))
    jinv = float(np.max(np.abs(np.linalg.inv(jac)).sum(axis=1)))
    return 2.0 * jinv * (residual_tol + floor) + zeros_error(fam, n)


def root_conditions(x: np.ndarray) -> np.ndarray:
    """For each root x_i of the monic polynomial prod (x - x_k): an upper
    bound of sum |c_k| |x_i|^k divided by |P'(x_i)|, i.e. how far a root
    moves per unit of relative perturbation of the coefficients."""
    ax = np.abs(x)
    diff = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(diff, 1.0)
    # compare logs: both products over- or underflow at moderate degree
    log_size = np.log(ax[:, None] + ax[None, :]).sum(axis=1)
    log_slope = np.log(diff).sum(axis=1)
    return np.exp(log_size - log_slope)


def monomial_tolerance(x: np.ndarray) -> np.ndarray:
    """Per-root tolerance for roots found in double precision from monomial
    coefficients: the Horner evaluation error gamma_2n bounded by
    4 n eps sum |c_k| |x|^k, divided by |P'(x)|."""
    return 4.0 * x.size * EPS * root_conditions(x)


def operator_matrix(fam: Family, n: int) -> np.ndarray:
    """(n+1) x (n+1) matrix of -(p y')' + q y' on ascending monomial
    coefficients: L x^m = -p m(m-1) x^(m-2) + (q - p') m x^(m-1)."""
    p2, p1, p0, q1, q0 = fam.coefficients()
    m = np.arange(n + 1, dtype=float)
    M = np.diag(q1 * m - p2 * m * (m + 1.0))
    M[np.arange(n), np.arange(1, n + 1)] = m[1:] * (q0 - p1 * m[1:])
    M[np.arange(n - 1), np.arange(2, n + 1)] = -p0 * m[2:] * (m[2:] - 1.0)
    return M


def heat(fam: Family, coeffs: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """exp(t M) applied to ascending monomial coefficients, and a bound on
    the 2-norm of its error.

    The operator matrix is far from normal, and scipy's scaling and squaring
    loses up to ten digits on it for lambda_n t in the tens.  So the
    propagation takes k steps with exp(h M), h = t / k and ||h M||_1 <= 1,
    applied to the vector.  Each step is a matrix-vector product with error
    at most gamma_(n+1) |E_h| |v|, which bounds the total error by
    (k + 1) (n + 1) eps || |E_h|^k |c| ||; the factor 2 covers exp(h M)
    itself.
    """
    from scipy.linalg import expm

    n = coeffs.size - 1
    A = t * operator_matrix(fam, n)
    k = max(1, math.ceil(np.linalg.norm(A, 1)))
    step = expm(A / k)
    size = np.abs(step)
    out, bound = coeffs.astype(float), np.abs(coeffs)
    for _ in range(k):
        out = step @ out
        bound = size @ bound
    return out, 2.0 * (k + 1) * (n + 1) * EPS * float(np.linalg.norm(bound))
