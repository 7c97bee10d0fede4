import math

import numpy as np
import pytest

from zeroflow import ClassicalFamily, Domain, EquationSpec, make_classical

# representative parameter choices for the parametric families
CLASSICAL = [
    ("hermite", ClassicalFamily.hermite()),
    ("legendre", ClassicalFamily.legendre()),
    ("jacobi(0.3,1.2)", ClassicalFamily.jacobi(0.3, 1.2)),
    ("laguerre(0)", ClassicalFamily.laguerre(0.0)),
    ("laguerre(0.7)", ClassicalFamily.laguerre(0.7)),
    ("chebyshev1", ClassicalFamily.chebyshev_first()),
    ("chebyshev2", ClassicalFamily.chebyshev_second()),
]

CLASSICAL_SPECS = [(name, make_classical(fam)) for name, fam in CLASSICAL]


# classical families moved by affine maps of x
def jacobi_on(a, b, alpha, beta):
    """Jacobi(alpha, beta) moved to (a, b): p = (x - a)(b - x),
    q = (alpha + beta)(x - m) + s(alpha - beta), with m the midpoint and s
    the half-width."""
    m, s = 0.5 * (a + b), 0.5 * (b - a)
    q0 = -(alpha + beta) * m + s * (alpha - beta)
    return EquationSpec(-1.0, a + b, -a * b, alpha + beta, q0, Domain(a, b))


def laguerre_right_of(a, alpha):
    """Laguerre(alpha) moved to (a, inf): p = x - a, q = x - a - alpha."""
    return EquationSpec(0.0, 1.0, -a, 1.0, -a - alpha, Domain(a, math.inf))


def laguerre_left_of(b, alpha):
    """Laguerre(alpha) mirrored onto (-inf, b): p = b - x, q = x + alpha - b."""
    return EquationSpec(0.0, -1.0, b, 1.0, alpha - b, Domain(-math.inf, b))


def hermite_at(mu, sigma):
    """Hermite centred at mu with scale sigma: p = sigma^2, q = x - mu."""
    return EquationSpec(0.0, 0.0, sigma * sigma, 1.0, -mu, Domain(-math.inf, math.inf))


# twelve affine images of the classical families on all four domain shapes
MAPPED_SPECS = [
    ("jacobi(0.3,1.2) on (0.25,3.7)", jacobi_on(0.25, 3.7, 0.3, 1.2)),
    ("jacobi(-0.5,0.5) on (-3.3,0.7)", jacobi_on(-3.3, 0.7, -0.5, 0.5)),
    ("jacobi(2,0) on (0.1,0.7)", jacobi_on(0.1, 0.7, 2.0, 0.0)),
    ("laguerre(0.5) on (0.37,inf)", laguerre_right_of(0.37, 0.5)),
    ("laguerre(1.5) on (-2.25,inf)", laguerre_right_of(-2.25, 1.5)),
    ("laguerre(0) on (7.3,inf)", laguerre_right_of(7.3, 0.0)),
    ("laguerre(0.7) on (-inf,0.37)", laguerre_left_of(0.37, 0.7)),
    ("laguerre(0) on (-inf,-1.6)", laguerre_left_of(-1.6, 0.0)),
    ("laguerre(2.5) on (-inf,4.1)", laguerre_left_of(4.1, 2.5)),
    ("hermite at 0.3, scale 1.5", hermite_at(0.3, 1.5)),
    ("hermite at -2.2, scale 0.7", hermite_at(-2.2, 0.7)),
    ("hermite at 5.5, scale 0.25", hermite_at(5.5, 0.25)),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_config(rng, spec, n, min_gap=0.05):
    """Sorted points inside the domain with a guaranteed minimum gap."""
    lo, hi = spec.domain.lower, spec.domain.upper
    if not np.isfinite(lo):
        lo = -3.0 if np.isfinite(hi) else -3.0
    if not np.isfinite(hi):
        hi = lo + max(6.0, 2.0 * n)
    width = hi - lo
    pad = 0.02 * width
    for _ in range(200):
        pts = np.sort(rng.uniform(lo + pad, hi - pad, size=n))
        if n == 1 or np.min(np.diff(pts)) > min_gap * width / max(n, 4):
            return pts
    raise AssertionError("could not draw a well-separated configuration")
