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
from conftest import MAPPED_SPECS


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
