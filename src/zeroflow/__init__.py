"""Zeros of polynomial eigenfunctions of -(p(x) y')' + q(x) y'.

Three independent routes to the zero set of the degree-n polynomial
eigenfunction (deg p <= 2, deg q <= 1):

* an interacting-particle flow whose unique stationary point is the zero
  set and which converges at an exponential rate (``flow``),
* damped Newton iteration directly on the electrostatic equilibrium
  equations (``equilibrium``),
* a spectral oracle: one triangular back-substitution for the monomial
  eigenbasis plus real-root isolation at low degree, the eigenvalues of the
  three-term recurrence's Jacobi matrix above it (``spectral``).

The routes certify each other; ``cli`` wraps them in a command-line tool.
"""

from .equilibrium import (
    Configuration,
    EquilibriumReport,
    newton_solve,
    residual,
    residual_jacobian,
    stieltjes_energy,
    stieltjes_gradient,
    verify_theorem1,
)
from .errors import (
    DegenerateSpectrumError,
    InsufficientDecay,
    MaxIterExceeded,
    PointOnBoundary,
    PropagatorOverflow,
    RootCountMismatch,
    SingularJacobian,
    ZeroflowError,
)
from .flow import (
    FlowOptions,
    InitStrategy,
    RateReport,
    Snapshot,
    TerminationReason,
    Trajectory,
    convergence_options,
    default_init,
    estimate_rate,
    integrate,
)
from .operator_core import (
    ClassicalFamily,
    Domain,
    EquationSpec,
    FamilyTag,
    check_simple_spectrum,
    eigenvalue,
    eigenvalue_gap,
    make_classical,
    operator_matrix,
)
from .spectral import (
    PolynomialCoefficients,
    eigen_coefficients,
    heat_propagate,
    oracle_zeros,
    poly_roots,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ClassicalFamily",
    "Configuration",
    "DegenerateSpectrumError",
    "Domain",
    "EquationSpec",
    "EquilibriumReport",
    "FamilyTag",
    "FlowOptions",
    "InitStrategy",
    "InsufficientDecay",
    "MaxIterExceeded",
    "PointOnBoundary",
    "PolynomialCoefficients",
    "PropagatorOverflow",
    "RateReport",
    "RootCountMismatch",
    "SingularJacobian",
    "Snapshot",
    "TerminationReason",
    "Trajectory",
    "ZeroflowError",
    "check_simple_spectrum",
    "convergence_options",
    "default_init",
    "eigen_coefficients",
    "eigenvalue",
    "eigenvalue_gap",
    "estimate_rate",
    "heat_propagate",
    "integrate",
    "make_classical",
    "newton_solve",
    "operator_matrix",
    "oracle_zeros",
    "poly_roots",
    "residual",
    "residual_jacobian",
    "stieltjes_energy",
    "stieltjes_gradient",
    "verify_theorem1",
]
