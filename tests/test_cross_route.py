"""The three routes agree on classical families moved by affine maps.

Each spec is a classical family on an interval or half-line with
non-integer ends (or a Hermite with shifted centre and scale), so the
starts of default_init run on all four domain shapes away from the
classical ones: Newton from the equispaced start, the flow from the seeded
start, and the oracle must find the same zeros.
"""

import numpy as np
import pytest

from zeroflow import (
    TerminationReason,
    convergence_options,
    default_init,
    integrate,
    newton_solve,
    oracle_zeros,
)
from conftest import hermite_at, jacobi_on, laguerre_left_of, laguerre_right_of


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


@pytest.mark.parametrize("n", [13, 20])
@pytest.mark.parametrize("name,spec", MAPPED_SPECS)
def test_newton_and_flow_agree_with_oracle(name, spec, n):
    ref = oracle_zeros(spec, n).as_array()
    scale = np.maximum(1.0, np.abs(ref))

    newton = newton_solve(spec, default_init(spec, n), tol=1e-10).as_array()
    assert np.max(np.abs(newton - ref) / scale) < 1e-8, name

    seeded = default_init(spec, n, "seeded", seed=1)
    traj = integrate(spec, seeded, convergence_options(n))
    assert traj.terminated_by is TerminationReason.CONVERGED, name
    flow = traj.final.config.as_array()
    assert np.max(np.abs(flow - ref) / scale) < 1e-8, name
