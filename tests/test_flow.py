import math
from dataclasses import replace

import numpy as np
import pytest

from zeroflow import (
    ClassicalFamily,
    Configuration,
    DegenerateSpectrumError,
    Domain,
    EquationSpec,
    FlowOptions,
    InitStrategy,
    InsufficientDecay,
    TerminationReason,
    convergence_options,
    default_init,
    eigenvalue,
    eigenvalue_gap,
    estimate_rate,
    heat_propagate,
    integrate,
    make_classical,
    newton_solve,
    oracle_zeros,
    poly_roots,
    residual,
)
from zeroflow import flow
from zeroflow.equilibrium import _residual_array
from zeroflow.spectral import PolynomialCoefficients
from conftest import CLASSICAL_SPECS, random_config

HER = make_classical(ClassicalFamily.hermite())
LEG = make_classical(ClassicalFamily.legendre())
LAG = make_classical(ClassicalFamily.laguerre(0.0))

L3_ZEROS = (0.41577455678347908, 2.2942803602790417, 6.2899450829374792)


class TestFlowRhs:
    def test_laguerre_three_particle_form(self, rng):
        # dx/dt = 2x/(x-y) + 2x/(x-z) + 1 - x, and cyclically
        for _ in range(10):
            x, y, z = np.sort(rng.uniform(0.1, 9.0, size=3))
            got = residual(LAG, Configuration((x, y, z)))
            expect = np.array(
                [
                    2 * x / (x - y) + 2 * x / (x - z) + 1 - x,
                    2 * y / (y - x) + 2 * y / (y - z) + 1 - y,
                    2 * z / (z - x) + 2 * z / (z - y) + 1 - z,
                ]
            )
            np.testing.assert_allclose(got, expect, rtol=1e-13)

    def test_legendre_component_form(self, rng):
        # dx_i/dt = (1 - x_i^2) sum 2/(x_i - x_k) - 2 x_i
        x = np.sort(rng.uniform(-0.9, 0.9, size=5))
        got = residual(LEG, Configuration(tuple(x)))
        for i in range(5):
            s = sum(2.0 / (x[i] - x[k]) for k in range(5) if k != i)
            assert got[i] == pytest.approx((1 - x[i] ** 2) * s - 2 * x[i], rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 80])
    def test_residual_array_bitwise_equal_to_two_pass_formula(self, rng, n):
        # the pair sums as first written: reciprocals of a difference matrix
        # with a unit diagonal, the diagonal then zeroed, twice the row sums;
        # closely spaced points are welcome here
        for name, spec in CLASSICAL_SPECS:
            x = random_config(rng, spec, n, min_gap=1e-3)
            diff = x[:, None] - x[None, :]
            np.fill_diagonal(diff, 1.0)
            inv = 1.0 / diff
            np.fill_diagonal(inv, 0.0)
            s = 2.0 * inv.sum(axis=1)
            expect = spec.p(x) * s + spec.dp(x) - spec.q(x)
            got = _residual_array(spec, x)
            assert got.tobytes() == expect.tobytes(), name

    def test_stationary_at_oracle_zeros(self):
        for name, spec in CLASSICAL_SPECS:
            cfg = oracle_zeros(spec, 6)
            scale = 1.0 + np.max(np.abs(cfg.as_array()))
            assert np.max(np.abs(residual(spec, cfg))) < 1e-8 * scale


class TestDefaultInit:
    def test_indexed_laguerre(self):
        cfg = default_init(LAG, 100, InitStrategy.INDEXED)
        np.testing.assert_array_equal(cfg.as_array(), np.arange(1.0, 101.0))

    def test_indexed_rejected_on_bounded_domain(self):
        with pytest.raises(ValueError):
            default_init(LEG, 3, InitStrategy.INDEXED)

    def test_equispaced_legendre3(self):
        cfg = default_init(LEG, 3, InitStrategy.EQUISPACED)
        np.testing.assert_allclose(cfg.points, [-0.5, 0.0, 0.5], atol=1e-15)

    def test_equispaced_halfline_is_integers(self):
        cfg = default_init(LAG, 5, InitStrategy.EQUISPACED)
        np.testing.assert_array_equal(cfg.as_array(), np.arange(1.0, 6.0))

    def test_equispaced_real_line_centered(self):
        cfg = default_init(HER, 4, InitStrategy.EQUISPACED)
        np.testing.assert_allclose(cfg.points, [-1.5, -0.5, 0.5, 1.5])

    def test_seeded_legendre_middle_tenth(self):
        cfg = default_init(LEG, 100, InitStrategy.SEEDED, seed=7)
        x = cfg.as_array()
        assert np.all(x > -0.1) and np.all(x < 0.1)
        again = default_init(LEG, 100, InitStrategy.SEEDED, seed=7)
        np.testing.assert_array_equal(cfg.as_array(), again.as_array())
        other = default_init(LEG, 100, InitStrategy.SEEDED, seed=8)
        assert not np.array_equal(cfg.as_array(), other.as_array())

    def test_seeded_requires_seed(self):
        with pytest.raises(ValueError):
            default_init(LEG, 3, InitStrategy.SEEDED)

    def test_left_halfline(self):
        # p = 2 - x on (-inf, 2): equispaced ends one unit short of the
        # finite end, seeded draws from the middle tenth of a span of n + 1
        spec = EquationSpec(0.0, -1.0, 2.0, 1.0, 0.0, Domain(-math.inf, 2.0))
        cfg = default_init(spec, 4, InitStrategy.EQUISPACED)
        np.testing.assert_array_equal(cfg.as_array(), [-2.0, -1.0, 0.0, 1.0])
        x = default_init(spec, 4, InitStrategy.SEEDED, seed=5).as_array()
        assert np.all(x > -0.75) and np.all(x < -0.25)
        again = default_init(spec, 4, InitStrategy.SEEDED, seed=5)
        np.testing.assert_array_equal(x, again.as_array())

    @pytest.mark.parametrize("n", [250, 500, 750, 1000])
    def test_newton_workload_starts_are_byte_pinned(self, n):
        # the equispaced starts the benchmark's Newton cases take, against
        # the per-shape formulas they were first written with
        k = np.arange(1.0, n + 1.0)
        pinned = [
            (LEG, -1.0 + 2.0 * k / (n + 1.0)),
            (LAG, k),
            (HER, k - (n + 1.0) / 2.0),
        ]
        for spec, expect in pinned:
            got = default_init(spec, n).as_array()
            assert got.tobytes() == expect.tobytes()

    def test_integrate_and_newton_refuse_an_outside_start_alike(self):
        start = Configuration((0.5, 1.5))
        with pytest.raises(ValueError, match="inside the open domain") as flow_err:
            integrate(LEG, start, FlowOptions(t_max=1.0))
        with pytest.raises(ValueError) as newton_err:
            newton_solve(LEG, start, tol=1e-10)
        assert str(flow_err.value) == str(newton_err.value)


class TestIntegrate:
    def test_laguerre3_converges_to_zeros(self):
        traj = integrate(
            LAG, Configuration((1.0, 2.0, 3.0)), convergence_options(3, 40.0, 1e-9)
        )
        assert traj.terminated_by is TerminationReason.CONVERGED
        assert traj.final.residual_norm < 1e-9
        np.testing.assert_allclose(traj.final.config.points, L3_ZEROS, atol=1e-6)

    def test_positions_stack_the_snapshot_arrays(self):
        traj = integrate(
            LAG, Configuration((1.0, 2.0, 3.0)), convergence_options(3, 40.0, 1e-9)
        )
        pos = traj.positions()
        assert pos.shape == (len(traj.snapshots), 3)
        assert pos.tobytes() == b"".join(
            s.config.as_array().tobytes() for s in traj.snapshots
        )

    def test_start_at_zeros_converges_immediately(self):
        cfg = oracle_zeros(LEG, 5)
        traj = integrate(LEG, cfg, FlowOptions(t_max=1.0, residual_tol=1e-6))
        assert traj.terminated_by is TerminationReason.CONVERGED
        assert traj.accepted_steps == 0
        assert traj.final.t == 0.0

    def test_time_strictly_increasing_and_order_preserved(self):
        traj = integrate(
            LAG, Configuration((1.0, 2.0, 3.0)), convergence_options(3, 40.0, 1e-9)
        )
        times = traj.times()
        assert np.all(np.diff(times) > 0)
        for snap in traj.snapshots:
            assert np.all(np.diff(snap.config.as_array()) > 0)

    def test_start_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="inside the open domain"):
            integrate(LEG, Configuration((0.5, 1.5)), FlowOptions(t_max=1.0))

    def test_max_time_termination(self):
        traj = integrate(
            HER, Configuration((5.0,)), FlowOptions(t_max=0.5, residual_tol=1e-14)
        )
        assert traj.terminated_by is TerminationReason.MAX_TIME
        assert traj.final.t == pytest.approx(0.5, rel=1e-12)
        # exact linear decay dx/dt = -x
        assert traj.final.config.points[0] == pytest.approx(5.0 * math.exp(-0.5), rel=1e-8)

    def test_max_steps_termination(self):
        traj = integrate(
            LAG,
            Configuration((1.0, 2.0, 3.0)),
            FlowOptions(t_max=40.0, residual_tol=1e-12, max_steps=3),
        )
        assert traj.terminated_by is TerminationReason.MAX_STEPS_EXCEEDED

    def test_close_start_pair_converges(self):
        # two repelling points 2e-7 apart give |R| near 1e7, so the first
        # accepted steps are tiny; the step floor scales with max|x| / max|f|
        spec = make_classical(ClassicalFamily.jacobi(0.98913, 0.49593))
        x = np.linspace(-0.09, 0.09, 32)
        x[16] = x[15] + 2e-7
        t_max = 10.0 + 50.0 / eigenvalue_gap(spec, 32)
        traj = integrate(
            spec, Configuration(tuple(x)), convergence_options(32, t_max, 1e-9)
        )
        assert traj.terminated_by is TerminationReason.CONVERGED

    def test_attracting_pairs_collide(self):
        # p = -1 inside the domain flips the pair interaction to attraction,
        # so particles collide and the gap guard must stop the run
        spec = EquationSpec(0.0, 0.0, -1.0, 0.0, 0.0, Domain(-math.inf, math.inf))
        traj = integrate(
            spec,
            Configuration((-0.5, 0.5)),
            FlowOptions(t_max=10.0, residual_tol=1e-13),
        )
        assert traj.terminated_by is TerminationReason.COLLISION_IMMINENT
        for snap in traj.snapshots:
            assert np.all(np.diff(snap.config.as_array()) > 0)

    def test_outward_drift_leaves_bounded_domain(self):
        # p = 1 on (-1, 1) with q = -x pushes particles outward
        spec = EquationSpec(0.0, 0.0, 1.0, -1.0, 0.0, Domain(-1.0, 1.0))
        traj = integrate(
            spec,
            Configuration((-0.6, 0.6)),
            FlowOptions(t_max=50.0, residual_tol=1e-13),
        )
        assert traj.terminated_by is TerminationReason.LEFT_DOMAIN

    def test_snapshot_stride_decimation(self):
        dense = integrate(
            LAG, Configuration((1.0, 2.0, 3.0)), convergence_options(3, 40.0, 1e-9)
        )
        opts = FlowOptions(
            t_max=40.0, residual_tol=1e-9, snapshot_stride=10,
            rel_tol=1e-11, abs_tol=1e-12,
        )
        sparse = integrate(LAG, Configuration((1.0, 2.0, 3.0)), opts)
        assert len(sparse.snapshots) < len(dense.snapshots)
        assert sparse.final.residual_norm < 1e-9

    def test_deterministic_repeat(self):
        a = integrate(LEG, default_init(LEG, 8, "seeded", seed=3),
                      convergence_options(8, 5.0, 1e-9))
        b = integrate(LEG, default_init(LEG, 8, "seeded", seed=3),
                      convergence_options(8, 5.0, 1e-9))
        assert a.times().tolist() == b.times().tolist()
        assert a.positions().tolist() == b.positions().tolist()

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_converges_from_equispaced(self, name, spec):
        n = 6
        traj = integrate(
            spec, default_init(spec, n), convergence_options(n, 200.0, 1e-9)
        )
        assert traj.terminated_by is TerminationReason.CONVERGED, name
        ref = oracle_zeros(spec, n).as_array()
        scale = 1.0 + np.max(np.abs(ref))
        assert np.max(np.abs(traj.final.config.as_array() - ref)) < 1e-7 * scale

    def test_fsal_slope_survives_rejected_attempts(self):
        # from this clump the error test still rejects attempts 44 and 46
        # under the step cap; a run cut off right after one reports the
        # residual norm of its FSAL slope, which must be that of its end point
        spec = make_classical(ClassicalFamily.laguerre(0.5))
        start = default_init(spec, 50, "seeded", seed=2)
        t_max = 10.0 + 50.0 / eigenvalue_gap(spec, 50)
        cut_after_rejection = 0
        prev = None
        for m in range(1, 61):
            opts = FlowOptions(
                t_max=t_max, residual_tol=1e-9, max_steps=m, snapshot_stride=1000
            )
            traj = integrate(spec, start, opts)
            assert traj.terminated_by is TerminationReason.MAX_STEPS_EXCEEDED
            assert len(traj.snapshots) <= 2
            r = float(np.abs(residual(spec, traj.final.config)).max())
            assert traj.final.residual_norm == r, m
            if prev is not None and traj.accepted_steps > 0:
                cut_after_rejection += traj.rejected_steps > prev.rejected_steps
            prev = traj
        assert cut_after_rejection >= 2

    @pytest.mark.parametrize(
        "family",
        [
            ClassicalFamily.hermite(),
            ClassicalFamily.laguerre(0.5),
            ClassicalFamily.jacobi(0.3, 1.2),
        ],
        ids=["hermite", "laguerre", "jacobi"],
    )
    def test_steps_capped_by_stiffness(self, family):
        # no attempted step exceeds 3/rho, rho = max_k |lambda_k - lambda_n|
        # the stiffness at the zeros; near the zeros the cap is what binds
        spec = make_classical(family)
        n = 20
        lam_n = eigenvalue(spec, n)
        cap = 3.0 / max(abs(eigenvalue(spec, k) - lam_n) for k in range(n))
        opts = replace(
            convergence_options(n, 10.0 + 50.0 / eigenvalue_gap(spec, n)),
            snapshot_stride=1,
        )
        traj = integrate(spec, default_init(spec, n), opts)
        assert traj.terminated_by is TerminationReason.CONVERGED
        times = traj.times()
        dt = np.diff(times)
        assert np.all(dt <= cap + 4 * np.finfo(float).eps * times[1:])
        assert dt.max() >= 0.99 * cap

    @pytest.mark.parametrize(
        "family",
        [ClassicalFamily.legendre(), ClassicalFamily.jacobi(0.3, 1.2)],
        ids=["legendre", "jacobi"],
    )
    @pytest.mark.parametrize("init", ["equispaced", "seeded"])
    def test_stiff_n100_converges(self, family, init):
        # lambda_n / gap is about n/2: without the step cap these runs
        # oscillate at DP5's stability boundary until MAX_TIME
        spec = make_classical(family)
        n = 100
        start = default_init(spec, n, init, seed=1)
        opts = convergence_options(n, 10.0 + 50.0 / eigenvalue_gap(spec, n), 1e-9)
        traj = integrate(spec, start, opts)
        assert traj.terminated_by is TerminationReason.CONVERGED
        assert traj.accepted_steps < 2000
        ref = oracle_zeros(spec, n).as_array()
        assert np.max(np.abs(traj.final.config.as_array() - ref)) < 1e-10


def _tied(opts: FlowOptions) -> FlowOptions:
    """opts with step tolerances tied two to three orders of magnitude
    below its residual_tol, as zeroflow rate sets them"""
    tol = opts.residual_tol
    return replace(
        opts,
        rel_tol=min(1e-8, max(1e-13, 1e-2 * tol)),
        abs_tol=min(1e-10, max(1e-15, 1e-3 * tol)),
    )


def _clumped_start(spec, n, seed):
    """n points in the middle tenth of default_init's span, with gaps drawn
    from [0.5, 1.5] times the mean gap (bounded or half-line domains)"""
    lo, hi = spec.domain.lower, spec.domain.upper
    if math.isfinite(hi):
        center, span = 0.5 * (lo + hi), hi - lo
    else:
        center, span = lo + 0.5 * (n + 1.0), n + 1.0
    gaps = np.random.default_rng(seed).uniform(0.5, 1.5, size=n + 1)
    x = center - span / 20.0 + (span / 10.0) * np.cumsum(gaps)[:-1] / gaps.sum()
    return Configuration(tuple(x))


class TestConvergenceOptions:
    @pytest.mark.parametrize(
        "family",
        [
            ClassicalFamily.legendre(),
            ClassicalFamily.jacobi(0.3, 1.2),
            ClassicalFamily.laguerre(0.5),
            ClassicalFamily.hermite(),
            ClassicalFamily.chebyshev_first(),
        ],
        ids=["legendre", "jacobi", "laguerre", "hermite", "chebyshev1"],
    )
    @pytest.mark.parametrize("n", [5, 30])
    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_residual_stop_sets_final_accuracy(self, family, n, tol):
        # the step tolerances stay at the defaults: the final distance to
        # the zeros is set by the residual stop, as with tied tolerances
        # (from the start solve --method flow uses by default)
        spec = make_classical(family)
        start = default_init(spec, n)
        opts = convergence_options(n, 10.0 + 50.0 / eigenvalue_gap(spec, n), tol)
        assert (opts.rel_tol, opts.abs_tol) == (1e-8, 1e-10)
        ref = oracle_zeros(spec, n).as_array()
        dist = []
        for o in (opts, _tied(opts)):
            traj = integrate(spec, start, o)
            assert traj.terminated_by is TerminationReason.CONVERGED
            dist.append(np.max(np.abs(traj.final.config.as_array() - ref)))
        assert dist[0] <= 4.0 * dist[1]

    @pytest.mark.parametrize(
        "family",
        [ClassicalFamily.jacobi(0.3, 1.2), ClassicalFamily.laguerre(0.5)],
        ids=["jacobi", "laguerre"],
    )
    def test_clumped_start_takes_fewer_steps_than_tied(self, family):
        # from a clump the expansion is a transient no answer uses; tied
        # tolerances resolve it to 1e-11 and take more than twice the steps
        spec = make_classical(family)
        n = 20
        start = _clumped_start(spec, n, seed=1)
        opts = convergence_options(n, 10.0 + 50.0 / eigenvalue_gap(spec, n), 1e-9)
        fast = integrate(spec, start, opts)
        tied = integrate(spec, start, _tied(opts))
        assert fast.terminated_by is TerminationReason.CONVERGED
        assert tied.terminated_by is TerminationReason.CONVERGED
        assert fast.accepted_steps <= 0.6 * tied.accepted_steps


class TestHeatFlowConsistency:
    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS[:4])
    def test_roots_of_propagated_polynomial_match_flow(self, name, spec, rng):
        # the root motion of exp(tM) c(0) is the particle flow
        for _ in range(4):
            n = int(rng.integers(2, 9))
            x0 = random_config(rng, spec, n, min_gap=0.1)
            c0 = PolynomialCoefficients.from_roots(x0)
            for t in (0.01, 0.05, 0.1):
                ct = heat_propagate(spec, c0, t)
                heat_roots = poly_roots(ct, spec.domain).as_array()
                opts = FlowOptions(
                    t_max=t, residual_tol=1e-300, rel_tol=1e-11, abs_tol=1e-13
                )
                traj = integrate(spec, Configuration(tuple(x0)), opts)
                assert traj.terminated_by is TerminationReason.MAX_TIME
                flow_pts = traj.final.config.as_array()
                assert np.max(np.abs(heat_roots - flow_pts)) < 1e-6, (name, n, t)


class TestEstimateRate:
    def test_hermite_linear_flow_rate_one(self):
        traj = integrate(
            HER,
            Configuration((5.0,)),
            FlowOptions(
                t_max=40.0, residual_tol=1e-11, rel_tol=1e-12, abs_tol=1e-14
            ),
        )
        assert traj.terminated_by is TerminationReason.CONVERGED
        report = estimate_rate(traj, oracle_zeros(HER, 1))
        assert report.sigma_hat == pytest.approx(1.0, abs=0.05)
        assert report.theoretical_gap == 1.0
        assert report.fit_quality >= 0.98
        t_lo, t_hi = report.fit_window
        assert 0.0 < t_lo < t_hi <= traj.final.t

    def test_requires_converged_trajectory(self):
        traj = integrate(
            HER, Configuration((5.0,)), FlowOptions(t_max=0.2, residual_tol=1e-13)
        )
        with pytest.raises(ValueError):
            estimate_rate(traj, oracle_zeros(HER, 1))

    def test_insufficient_decay(self):
        # converges almost immediately; the window cannot hold 10 snapshots
        start = oracle_zeros(LEG, 4).as_array() + 1e-8
        traj = integrate(
            LEG,
            Configuration(tuple(start)),
            FlowOptions(t_max=5.0, residual_tol=1e-6),
        )
        assert traj.terminated_by is TerminationReason.CONVERGED
        with pytest.raises(InsufficientDecay):
            estimate_rate(traj, oracle_zeros(LEG, 4))

    @pytest.mark.parametrize(
        "family,n,t_max",
        [
            (ClassicalFamily.laguerre(0.0), 3, 40.0),
            (ClassicalFamily.legendre(), 10, 3.0),
        ],
    )
    def test_rate_meets_gap_bound(self, family, n, t_max):
        spec = make_classical(family)
        start = default_init(spec, n, "seeded", seed=11)
        traj = integrate(
            spec,
            start,
            FlowOptions(
                t_max=t_max, residual_tol=1e-10, rel_tol=1e-11, abs_tol=1e-13
            ),
        )
        assert traj.terminated_by is TerminationReason.CONVERGED
        report = estimate_rate(traj, oracle_zeros(spec, n))
        assert report.sigma_hat >= 0.9 * report.theoretical_gap
        assert report.fit_quality >= 0.98


class TestDerivedHorizon:
    def test_defaults_leave_the_horizon_to_integrate(self):
        assert FlowOptions().t_max is None
        assert convergence_options(5).t_max is None

    def test_runs_to_ten_plus_fifty_over_gap(self):
        # a residual tolerance below R's round-off floor never stops the
        # run, so it ends at the derived horizon, the rule FlowCase and the
        # tests above write out by hand
        n = 3
        traj = integrate(HER, default_init(HER, n), FlowOptions(residual_tol=1e-300))
        assert traj.terminated_by is TerminationReason.MAX_TIME
        horizon = 10.0 + 50.0 / eigenvalue_gap(HER, n)
        assert traj.final.t == pytest.approx(horizon, rel=1e-12, abs=0.0)

    def test_degenerate_spectrum_refused_before_any_step(self, monkeypatch):
        # lambda_m = m^2 - 2m: lambda_1 = -1 < lambda_0 = 0, so no horizon
        # follows from the gap
        spec = EquationSpec(-1.0, 0.0, 1.0, -3.0, 0.0, Domain(-1.0, 1.0))
        start = default_init(spec, 3)

        def no_rhs(*args):
            raise AssertionError("residual evaluated")

        monkeypatch.setattr(flow, "_residual_array", no_rhs)
        with pytest.raises(DegenerateSpectrumError) as exc_info:
            integrate(spec, start, convergence_options(3))
        assert (exc_info.value.j, exc_info.value.k) == (0, 1)


class TestFlowOptions:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            FlowOptions(t_max=0.0)
        with pytest.raises(ValueError):
            FlowOptions(t_max=1.0, snapshot_stride=0)
        fields = ("t_max", "residual_tol", "max_steps", "snapshot_stride", "rel_tol", "abs_tol")
        for name in fields:
            for bad in (0, -1.0, math.nan):
                with pytest.raises(ValueError, match=f"FlowOptions.{name} "):
                    FlowOptions(**{"t_max": 1.0, name: bad})
