"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "ZeroflowError",
    "DegenerateSpectrumError",
    "RootCountMismatch",
    "PropagatorOverflow",
    "PointOnBoundary",
    "SingularJacobian",
    "MaxIterExceeded",
    "InsufficientDecay",
]


class ZeroflowError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateSpectrumError(ZeroflowError):
    """The operator's eigenvalues are not simple and increasing up to the
    requested degree.  Spectral back-substitution and rate claims are refused
    for such equation specs.

    Attributes
    ----------
    j, k : int
        Indices of the offending eigenvalue pair (lambda_k <= lambda_j, j < k).
    """

    def __init__(self, j: int, k: int, lambda_j: float, lambda_k: float):
        self.j = j
        self.k = k
        self.lambda_j = lambda_j
        self.lambda_k = lambda_k
        super().__init__(
            f"degenerate spectrum: lambda_{j}={lambda_j:g} and "
            f"lambda_{k}={lambda_k:g} are not strictly increasing"
        )


class RootCountMismatch(ZeroflowError):
    """Fewer (or more) real roots were isolated than the polynomial degree.

    Signals an invalid equation spec (complex roots) or numerical breakdown.
    ``found`` is None when the spec is refused before any root is isolated.
    """

    def __init__(self, expected: int, found: int | None, detail: str = ""):
        self.expected = expected
        self.found = found
        msg = f"expected {expected} real roots"
        if found is not None:
            msg += f", isolated {found}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PropagatorOverflow(ZeroflowError):
    """The requested propagation time would overflow exp(lambda_n * t)."""


class PointOnBoundary(ZeroflowError):
    """A configuration point sits on or outside the interval (-1, 1) where the
    logarithmic energy is defined."""


class SingularJacobian(ZeroflowError):
    """The Newton linear system is singular at the current iterate."""


class MaxIterExceeded(ZeroflowError):
    """Newton iteration did not reach the tolerance.

    Attributes
    ----------
    last : Configuration
        The final iterate.
    residual_norm : float
        Max-norm of the residual at the final iterate.
    """

    def __init__(self, last, residual_norm: float, detail: str = ""):
        self.last = last
        self.residual_norm = residual_norm
        msg = f"no convergence; final residual max-norm {residual_norm:.3e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InsufficientDecay(ZeroflowError):
    """The trajectory does not contain enough snapshots in the decay window
    to fit an exponential rate."""
