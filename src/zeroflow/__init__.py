"""Zeros of polynomial eigenfunctions of -(p(x) y')' + q(x) y'.

Three independent routes to the zero set of the degree-n polynomial
eigenfunction (deg p <= 2, deg q <= 1):

* an interacting-particle flow whose unique stationary point is the zero
  set and which converges at an exponential rate (``flow``),
* Newton's method directly on the electrostatic equilibrium equations,
  with steps that act on the gaps between the points so that every iterate
  stays ordered and inside the domain (``equilibrium``),
* a spectral oracle: one triangular back-substitution for the monomial
  eigenbasis plus real-root isolation at low degree, the eigenvalues of the
  three-term recurrence's Jacobi matrix above it (``spectral``).

The routes certify each other; ``cli`` wraps them in a command-line tool.
"""

from . import equilibrium, errors, flow, operator_core, spectral
from .equilibrium import *
from .errors import *
from .flow import *
from .operator_core import *
from .spectral import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = (
    ["__version__"]
    + equilibrium.__all__
    + errors.__all__
    + flow.__all__
    + operator_core.__all__
    + spectral.__all__
)
