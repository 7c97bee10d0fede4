"""Interacting-particle flow whose stationary point is the eigenpolynomial
zero set, plus trajectory recording, rate estimation, and initializers.

The system of ordinary differential equations is

    dx_i/dt = R_i(x) = p(x_i) * sum_{k != i} 2/(x_i - x_k) + p'(x_i) - q(x_i)

(the right-hand side is exactly the electrostatic residual).  For
p(x) = x = q(x) the first component reads, written out for three particles,

    dx/dt = 2x/(x - y) + 2x/(x - z) + 1 - x

and for p(x) = 1 - x^2, q = 0 the components are

    dx_i/dt = (1 - x_i^2) * sum_{k != i} 2/(x_i - x_k) - 2 x_i.

Note the coefficient multiplying the pair sum is the full quadratic
1 - x_i^2, not (1 - x_i)^2; only that reading makes the zero set of the
degree-n eigenpolynomial stationary, which is also confirmed numerically
by the stationarity tests.

When the eigenvalues lambda_0 < ... < lambda_n are simple and increasing,
the flow converges from any ordered start to the eigenpolynomial zeros, and
the error decays like exp(-sigma t) with sigma >= lambda_n - lambda_{n-1};
the linearization at the fixed point has eigenvalues lambda_k - lambda_n
for k < n, so it is strictly stable.  That rate sets the default horizon:
without an explicit t_max, integrate runs to t = 10 + 50/(lambda_n -
lambda_{n-1}), by which the slowest mode has shrunk by e^-50 after a
transient of 10 time units.

The integrator is an explicit embedded Dormand-Prince 5(4) pair with two
extra accept/reject guards per step: the particle ordering and domain
membership must be preserved, and the minimum inter-particle gap may shrink
by at most 50% in one step.  Steps violating a guard are rejected and
halved.  Ordering is checked at every stage argument by one strict
comparison of neighbours, (y[1:] > y[:-1]).all(), plus finite end points:
NaN fails every comparison and finite ends bound an increasing vector, so
the argument is also finite.  The last stage argument is the step's 5th
order end point, so that check also covers the end point.  The error norm
is one dot product.  The right-hand side is the equilibrium module's
residual kernel, with p' - q folded into one linear polynomial.

A particle that an accepted step leaves on the last double inside a
finite end, with its slope pointing out of the domain, ends the run in
LEFT_DOMAIN: every step long enough to move it leaves the domain, and the
shorter ones that pass the guard move neither it nor t by much.

The linearization's eigenvalues fix the flow's stiffness near the zeros at
rho = max_{k<n} |lambda_k - lambda_n| (lambda_n for every classical family).
An explicit method whose step controller runs up to its stability boundary
oscillates there, rejecting a large share of its steps, so every attempted
step is capped at h <= 3/rho, just inside DP5's real stability interval
[-3.31, 0].  Every accepted step still passes the same error test and
guards.  The first-same-as-last slope is copied out of the stage buffer on
acceptance, so a rejected attempt cannot overwrite it.  A run gives up on
its guards only when the step has shrunk below one that can move t or x.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .equilibrium import Configuration, _residual_array
from .errors import InsufficientDecay
from .operator_core import (
    EquationSpec,
    _require_in_domain,
    _simple_spectrum,
    _spectrum,
    eigenvalue_gap,
)

__all__ = [
    "TerminationReason",
    "Snapshot",
    "FlowOptions",
    "Trajectory",
    "RateReport",
    "InitStrategy",
    "integrate",
    "estimate_rate",
    "default_init",
    "convergence_options",
]


class TerminationReason(enum.Enum):
    CONVERGED = "converged"
    MAX_TIME = "max_time"
    COLLISION_IMMINENT = "collision_imminent"
    LEFT_DOMAIN = "left_domain"
    MAX_STEPS_EXCEEDED = "max_steps_exceeded"

    @property
    def is_error(self) -> bool:
        return self not in (TerminationReason.CONVERGED, TerminationReason.MAX_TIME)


@dataclass(frozen=True)
class Snapshot:
    t: float
    config: Configuration
    residual_norm: float


@dataclass(frozen=True)
class FlowOptions:
    """Integration controls.  All fields must be positive, except that
    t_max = None (the default) leaves integrate to derive the horizon from
    the eigenvalue gap."""

    t_max: float | None = None
    residual_tol: float = 1e-9
    max_steps: int = 1_000_000
    snapshot_stride: int = 1
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (value is None and field.name == "t_max" or value > 0):
                raise ValueError(f"FlowOptions.{field.name} must be positive")


@dataclass(frozen=True)
class Trajectory:
    snapshots: tuple[Snapshot, ...]
    spec: EquationSpec
    terminated_by: TerminationReason
    accepted_steps: int = 0
    rejected_steps: int = 0

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    def positions(self) -> np.ndarray:
        """Snapshot positions as an (n_snapshots, n) array."""
        return np.stack([s.config.as_array() for s in self.snapshots])


@dataclass(frozen=True)
class RateReport:
    sigma_hat: float
    theoretical_gap: float
    fit_window: tuple[float, float]
    fit_quality: float


class InitStrategy(str, enum.Enum):
    EQUISPACED = "equispaced"
    SEEDED = "seeded"
    INDEXED = "indexed"


# Dormand-Prince 5(4): propagate the 5th order solution, estimate the error
# against the embedded 4th order one.  FSAL: the last stage at the accepted
# point is the first stage of the next step.
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_E = _B5 - _B4

_INITIAL_STEP = 1e-4
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Largest h * rho attempted (rho: the stiffness, see integrate), about 10%
# inside DP5's real stability interval [-3.31, 0]
_STABLE_H_RHO = 3.0
_EPS = float(np.finfo(float).eps)


def _increasing(y: np.ndarray) -> bool:
    """Whether y is finite and strictly increasing, by one strict
    comparison of neighbours and two finite end points: NaN fails every
    comparison, and finite ends bound an increasing vector."""
    return bool((y[1:] > y[:-1]).all()) and math.isfinite(y[0]) and math.isfinite(y[-1])


def _min_gap(x: np.ndarray) -> float:
    return float((x[1:] - x[:-1]).min()) if x.size > 1 else math.inf


def _step_factor(err: float) -> float:
    """Step size multiplier after an attempt with scaled error err: halve
    after a failed guard (err = inf), otherwise SAFETY * err^(-1/5) kept
    within [MIN_FACTOR, MAX_FACTOR]."""
    if not math.isfinite(err):
        return 0.5
    if err == 0.0:
        return _MAX_FACTOR
    return min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))


def integrate(
    spec: EquationSpec, start: Configuration, opts: FlowOptions
) -> Trajectory:
    """Integrate the particle system from an ordered start.

    Terminates with CONVERGED when the residual max-norm drops below
    opts.residual_tol, with MAX_TIME at t_max, or with an error reason when
    a guard keeps failing at the minimum step size or the step budget is
    exhausted.  When opts.t_max is None the horizon is t_max = 10 + 50 /
    (lambda_n - lambda_{n-1}), which the theorem's rate covers only for a
    simple, increasing spectrum: otherwise the DegenerateSpectrumError of
    check_simple_spectrum is raised before the first step.  The trajectory
    records every snapshot_stride-th accepted step plus the initial and
    final states.

    Each attempted step is capped at 3/rho, rho = max_{k<n} |lambda_k -
    lambda_n| being the stiffness at the zeros (no cap when rho = 0), so the
    controller never runs into DP5's stability boundary.  The minimum step
    is 4 eps max(t, max|x| / max|f|): a step that can no longer move t or x.
    The slope at the accepted point (FSAL) is kept as a copy, independent
    of later attempts.
    """
    x = _require_in_domain(spec.domain, start.as_array())
    lo, hi = spec.domain.lower, spec.domain.upper
    # the last doubles inside the domain
    first, last = math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)
    n = x.size
    t_max = opts.t_max
    # the default horizon rests on the rate of a simple spectrum
    lam = _spectrum(spec, n) if t_max is not None else _simple_spectrum(spec, n)
    rho = float(np.max(np.abs(lam[:-1] - lam[-1])))
    h_stable = _STABLE_H_RHO / rho if rho > 0 else math.inf
    if t_max is None:
        t_max = 10.0 + 50.0 / float(lam[-1] - lam[-2])

    f = _residual_array(spec, x)
    rnorm = float(np.abs(f).max())
    snaps = [Snapshot(0.0, Configuration(x), rnorm)]
    t = 0.0
    h = min(_INITIAL_STEP, t_max)
    accepted = rejected = 0
    ks = np.empty((7, n))
    gap = _min_gap(x)  # of the accepted point

    def finish(reason: TerminationReason) -> Trajectory:
        # the final state, unless the last snapshot already holds it
        if snaps[-1].t < t:
            snaps.append(Snapshot(t, Configuration(x), rnorm))
        return Trajectory(tuple(snaps), spec, reason, accepted, rejected)

    if rnorm < opts.residual_tol:
        return finish(TerminationReason.CONVERGED)

    while True:
        if accepted + rejected >= opts.max_steps:
            return finish(TerminationReason.MAX_STEPS_EXCEEDED)
        h = min(h, t_max - t, h_stable)

        # every stage argument must be finite and strictly increasing; the
        # last one is the 5th order solution, the step's end point
        ks[0] = f
        y_new = None
        for i in range(1, 7):
            yi = x + h * (ks[:i].T @ _A[i])
            if not _increasing(yi):
                break
            ks[i] = _residual_array(spec, yi)
        else:
            y_new = yi

        # y_new is ordered, so its end points decide domain membership
        ordered = (
            y_new is not None
            and np.isfinite(ks).all()
            and y_new[0] > lo
            and y_new[-1] < hi
        )
        if ordered:
            gap_new = _min_gap(y_new)
        if ordered and gap_new >= 0.5 * gap:
            scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(x), np.abs(y_new))
            e = h * (ks.T @ _E) / scale
            err = math.sqrt(float(e @ e) / n)
        else:
            err = math.inf

        if err > 1.0:
            rejected += 1
            h *= _step_factor(err)
            # a zero or non-finite slope leaves no step worth trying
            reach = float(np.abs(x).max()) / rnorm if rnorm > 0 else math.inf
            if h < 4.0 * _EPS * max(t, reach):
                if not ordered and y_new is not None and (y_new[0] <= lo or y_new[-1] >= hi):
                    return finish(TerminationReason.LEFT_DOMAIN)
                return finish(TerminationReason.COLLISION_IMMINENT)
            continue

        t += h
        x = y_new
        gap = gap_new
        # FSAL: the rhs at the accepted point, copied out of ks, which the
        # next attempt overwrites
        f = ks[6].copy()
        accepted += 1
        rnorm = float(np.abs(f).max())

        if rnorm < opts.residual_tol:
            return finish(TerminationReason.CONVERGED)
        # an end particle on the last double, pushed outwards: any step
        # that moves it leaves the domain, and a shorter one moves nothing
        if x[-1] == last and f[-1] > 0.0 or x[0] == first and f[0] < 0.0:
            return finish(TerminationReason.LEFT_DOMAIN)
        if t >= t_max * (1.0 - 1e-15):
            return finish(TerminationReason.MAX_TIME)
        if accepted % opts.snapshot_stride == 0:
            snaps.append(Snapshot(t, Configuration(x), rnorm))
        h *= _step_factor(err)


def estimate_rate(traj: Trajectory, reference: Configuration) -> RateReport:
    """Least-squares decay rate of log max_i |x_i(t) - x_i*| over the tail
    window where the error sits between 1e-3 and 1e-9 of its initial value.

    Requires a converged trajectory and at least 10 snapshots inside the
    window; sigma_hat is minus the fitted slope and fit_quality is the
    R-squared of the fit.
    """
    if traj.terminated_by is not TerminationReason.CONVERGED:
        raise ValueError("rate estimation requires a converged trajectory")
    ref = reference.as_array()
    pos = traj.positions()
    if pos.shape[1] != ref.size:
        raise ValueError("reference size does not match trajectory")
    times = traj.times()
    errs = np.max(np.abs(pos - ref[None, :]), axis=1)
    err0 = errs[0]
    if err0 <= 0:
        raise InsufficientDecay("trajectory starts at the reference")
    mask = (errs > 0) & (errs <= 1e-3 * err0) & (errs >= 1e-9 * err0)
    if int(mask.sum()) < 10:
        raise InsufficientDecay(
            f"only {int(mask.sum())} snapshots in the decay window"
        )
    tw = times[mask]
    yw = np.log(errs[mask])
    slope, intercept = np.polyfit(tw, yw, 1)
    fitted = slope * tw + intercept
    ss_res = float(np.sum((yw - fitted) ** 2))
    ss_tot = float(np.sum((yw - yw.mean()) ** 2))
    quality = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    n = ref.size
    return RateReport(
        sigma_hat=float(-slope),
        theoretical_gap=eigenvalue_gap(traj.spec, n),
        fit_window=(float(tw.min()), float(tw.max())),
        fit_quality=quality,
    )


def convergence_options(
    n: int, t_max: float | None = None, residual_tol: float = FlowOptions.residual_tol
) -> FlowOptions:
    """Options for runs meant to terminate by residual.

    t_max = None leaves the horizon to integrate, which derives it from the
    eigenvalue gap (see integrate).

    The step-control tolerances stay at the FlowOptions defaults, however
    small residual_tol is.  The residual stop certifies the returned point,
    since the FSAL slope is R at the accepted point, and the step cap 3/rho
    keeps every step inside DP5's real stability interval, where the
    linearization's real spectrum lambda_k - lambda_n contracts the numeric
    flow to the exact fixed point at any error tolerance.  A tighter error
    tolerance would only resolve the transient more finely.  Snapshots keep
    every accepted step for small systems and every 10th for larger ones.
    """
    return FlowOptions(
        t_max=t_max,
        residual_tol=residual_tol,
        snapshot_stride=1 if n <= 10 else 10,
    )


def default_init(
    spec: EquationSpec,
    n: int,
    strategy: InitStrategy | str = InitStrategy.EQUISPACED,
    seed: int | None = None,
) -> Configuration:
    """Deterministic starting configurations.

    One rule lays out every start: the domain's shape picks a left end and
    a width.  A bounded domain gives the whole interval; a half-line gives
    a span of n + 1 that ends at its finite end; the real line gives a
    span of n + 1 centred at 0.

    equispaced: left + width * k / (n + 1) for k = 1..n, which splits a
    bounded domain into n + 1 equal parts and gives {lower+1, ..., lower+n}
    on (lower, inf).
    indexed: the same points with the fixed left end 0 and width n + 1,
    that is x_k = k.
    seeded: sorted uniform draws from the middle tenth of the width, from
    a seeded generator.

    Equispaced and indexed points must lie inside the open domain.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    strategy = InitStrategy(strategy)
    lo, hi = spec.domain.lower, spec.domain.upper
    width = n + 1.0
    if strategy is InitStrategy.INDEXED:
        left = 0.0
    elif spec.domain.is_bounded:
        left, width = lo, hi - lo
    elif math.isfinite(lo):
        left = lo
    elif math.isfinite(hi):
        left = hi - width
    else:
        left = -0.5 * width

    if strategy is InitStrategy.SEEDED:
        if seed is None:
            raise ValueError("seeded initialization requires a seed")
        rng = np.random.default_rng(seed)
        middle, half = left + 0.5 * width, width / 20.0
        pts = np.sort(rng.uniform(middle - half, middle + half, size=n))
    else:
        pts = left + width * np.arange(1.0, n + 1.0) / (n + 1.0)
        _require_in_domain(spec.domain, pts)
    return Configuration(pts)
