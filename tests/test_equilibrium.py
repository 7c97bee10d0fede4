import math
import warnings

import numpy as np
import pytest

from zeroflow import (
    ClassicalFamily,
    Configuration,
    DegenerateSpectrumError,
    Domain,
    EquationSpec,
    MaxIterExceeded,
    PointOnBoundary,
    RootCountMismatch,
    SingularJacobian,
    ZeroflowError,
    default_init,
    eigenvalue,
    make_classical,
    newton_solve,
    oracle_zeros,
    residual,
    residual_jacobian,
    stieltjes_energy,
    stieltjes_gradient,
    verify_theorem1,
)
from zeroflow import equilibrium
from conftest import CLASSICAL_SPECS, random_config

HER = make_classical(ClassicalFamily.hermite())
LEG = make_classical(ClassicalFamily.legendre())
LAG = make_classical(ClassicalFamily.laguerre(0.0))
JAC = make_classical(ClassicalFamily.jacobi(0.3, 1.2))

INV_SQRT3 = 0.57735026918962576
L3_ZEROS = (0.41577455678347908, 2.2942803602790417, 6.2899450829374792)

# frozen on first computation: energy at the degree-2 equilibrium for
# alpha = beta = 0; equals -log(2/sqrt(3)) + log(3/2)
E_AT_P2_ZEROS = 0.26162407188227392


class TestConfiguration:
    def test_rejects_duplicates_and_disorder(self):
        with pytest.raises(ValueError):
            Configuration((1.0, 1.0))
        with pytest.raises(ValueError):
            Configuration((2.0, 1.0))
        with pytest.raises(ValueError):
            Configuration(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_point(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            Configuration((0.0, bad))

    def test_accepts_any_iterable_values(self):
        cfg = Configuration(np.array([0.5, 1.5]))
        assert cfg.points == (0.5, 1.5)
        assert cfg.n == 2

    def test_as_array_is_the_stored_read_only_array(self):
        cfg = Configuration((0.5, 1.5))
        x = cfg.as_array()
        assert x is cfg.as_array()
        assert x.dtype == np.float64 and not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert cfg.points == (0.5, 1.5)

    def test_copies_the_callers_array(self):
        x = np.array([0.5, 1.5])
        cfg = Configuration(x)
        x[0] = 0.0
        assert x.flags.writeable and cfg.points == (0.5, 1.5)

    @pytest.mark.parametrize(
        "make",
        [tuple, list, np.array, lambda v: (x for x in v)],
        ids=["tuple", "list", "ndarray", "generator"],
    )
    def test_accepts_tuple_list_array_and_generator(self, make):
        cfg = Configuration(make([0.5, 1.5, 2.5]))
        assert cfg.points == (0.5, 1.5, 2.5)
        assert all(type(x) is float for x in cfg.points)

    def test_rejects_a_two_dimensional_input(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Configuration(np.array([[0.5, 1.5]]))

    def test_equality_and_hash_are_by_value(self):
        cfg = Configuration((0.5, 1.5))
        same = Configuration(np.array([0.5, 1.5]))
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg != Configuration((0.5, 1.25))
        assert cfg != Configuration((0.5,))
        assert cfg != (0.5, 1.5)
        assert repr(cfg) == "Configuration(points=(0.5, 1.5))"


class TestResidual:
    def test_hermite_degree2_zeros(self):
        r = residual(HER, Configuration((-1.0, 1.0)))
        np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-15)

    def test_legendre_degree2_zeros(self):
        r = residual(LEG, Configuration((-INV_SQRT3, INV_SQRT3)))
        np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-15)

    def test_hermite_single_point(self):
        for x in (-2.5, 0.0, 0.7):
            r = residual(HER, Configuration((x,)))
            np.testing.assert_allclose(r, [-x], atol=0)

    def test_laguerre3_reference_zeros(self):
        r = residual(LAG, Configuration(L3_ZEROS))
        assert np.max(np.abs(r)) < 1e-8

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            residual(LEG, Configuration((-0.5, 1.5)))

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_zero_exactly_at_oracle_zeros(self, name, spec):
        for n in (1, 2, 3, 5, 8, 12):
            cfg = oracle_zeros(spec, n)
            scale = 1.0 + np.max(np.abs(cfg.as_array()))
            assert np.max(np.abs(residual(spec, cfg))) < 1e-8 * scale

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_perturbation_raises_residual(self, name, spec):
        for n in (1, 4, 8, 12):
            cfg = oracle_zeros(spec, n)
            for i in range(n):
                pts = list(cfg.points)
                pts[i] += 1e-3
                r = residual(spec, Configuration(tuple(pts)))
                assert np.max(np.abs(r)) > 1e-4, (name, n, i)


class TestResidualJacobian:
    def test_hermite_single_point(self):
        J = residual_jacobian(HER, Configuration((0.0,)))
        np.testing.assert_allclose(J, [[-1.0]])

    def test_symmetric_config_symmetric_offdiag(self):
        J = residual_jacobian(LEG, Configuration((-INV_SQRT3, INV_SQRT3)))
        assert J[0, 1] == pytest.approx(J[1, 0], rel=1e-14)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_finite_difference_agreement(self, name, spec, rng):
        h = 1e-7
        for n in (1, 2, 4, 7):
            x = random_config(rng, spec, n)
            J = residual_jacobian(spec, Configuration(tuple(x)))
            J_fd = np.empty((n, n))
            for j in range(n):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                rp = residual(spec, Configuration(tuple(xp)))
                rm = residual(spec, Configuration(tuple(xm)))
                J_fd[:, j] = (rp - rm) / (2 * h)
            scale = np.max(np.abs(J)) + 1.0
            assert np.max(np.abs(J - J_fd)) < 1e-6 * scale, (name, n)

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_matches_two_pass_formula(self, name, spec, rng):
        # the Jacobian as first written: one difference matrix for the pair
        # sums S and T, a second one for the off-diagonal p(x_i) * 2/d^2
        n = 200
        x = random_config(rng, spec, n, min_gap=1e-3)
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        s, t = 2.0 * inv.sum(axis=1), 2.0 * (inv * inv).sum(axis=1)
        expect = spec.p(x)[:, None] * (2.0 / (diff * diff))
        expect[np.arange(n), np.arange(n)] = (
            spec.dp(x) * s - spec.p(x) * t + spec.ddp() - spec.dq()
        )
        J = residual_jacobian(spec, Configuration(tuple(x)))
        np.testing.assert_allclose(J, expect, rtol=1e-14, atol=0.0)


class TestNewtonSolve:
    def test_laguerre3_from_integers(self):
        out = newton_solve(LAG, Configuration((1.0, 2.0, 3.0)), tol=1e-10)
        np.testing.assert_allclose(out.points, L3_ZEROS, atol=1e-10)

    def test_hermite_from_far_start(self):
        out = newton_solve(HER, Configuration((5.0,)), tol=1e-12)
        np.testing.assert_allclose(out.points, [0.0], atol=1e-12)

    def test_legendre8_from_perturbed_oracle(self, rng):
        ref = oracle_zeros(LEG, 8).as_array()
        start = ref + rng.uniform(-1e-3, 1e-3, size=8)
        out = newton_solve(LEG, Configuration(tuple(np.sort(start))), tol=1e-12)
        np.testing.assert_allclose(out.points, ref, atol=1e-10)

    def test_max_iter_exceeded_carries_state(self):
        with pytest.raises(MaxIterExceeded) as exc_info:
            newton_solve(LAG, Configuration((1.0, 2.0, 3.0)), tol=1e-10, max_iter=2)
        err = exc_info.value
        assert isinstance(err.last, Configuration)
        assert err.residual_norm > 0

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_iterations_only_checks_the_start(self, max_iter):
        start = Configuration((1.0, 2.0, 3.0))
        with pytest.raises(MaxIterExceeded) as exc_info:
            newton_solve(LAG, start, tol=1e-10, max_iter=max_iter)
        assert exc_info.value.last == start
        assert exc_info.value.residual_norm == np.max(np.abs(residual(LAG, start)))
        zeros = oracle_zeros(LAG, 3)
        assert newton_solve(LAG, zeros, tol=1e-9, max_iter=max_iter) == zeros

    def test_singular_jacobian(self):
        # constant p, zero q: the residual is translation invariant, so the
        # Jacobian has the all-ones null vector
        spec = EquationSpec(0.0, 0.0, 1.0, 0.0, 0.0, Domain(-math.inf, math.inf))
        with pytest.raises(SingularJacobian):
            newton_solve(spec, Configuration((0.0, 1.0)), tol=1e-12)

    def test_step_damping_exhausted(self):
        # p = 1, q = 1e-300 x + 1 on (-1, 1) and n = 1: R = -(1e-300 x + 1)
        # has slope -1e-300, so the Newton step from 0 is 1e300 long and 40
        # halvings leave it far outside the domain
        spec = EquationSpec(0.0, 0.0, 1.0, 1e-300, 1.0, Domain(-1.0, 1.0))
        start = Configuration((0.0,))
        with pytest.raises(MaxIterExceeded, match="step damping exhausted") as exc_info:
            newton_solve(spec, start, tol=1e-12)
        assert exc_info.value.last == start

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            newton_solve(HER, Configuration((0.5,)), tol=0.0)


def _mirrored_default_init(spec, n):
    """The right half of the equispaced start and its mirror image, with 0
    in the middle for odd n."""
    right = default_init(spec, n).as_array()[n - n // 2 :]
    return Configuration(np.concatenate((-right[::-1], np.zeros(n % 2), right)))


@pytest.fixture
def solved(monkeypatch):
    """Copies of the (matrix, right-hand side) pairs np.linalg.solve is
    given."""
    systems = []
    solve = np.linalg.solve

    def spy(a, b):
        systems.append((a.copy(), b.copy()))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return systems


class TestNewtonMirror:
    # p even, q odd, a domain symmetric about 0 and a start equal to minus
    # its reverse: Newton solves for the right half only
    @pytest.mark.parametrize("n", [2, 3, 250, 251])
    @pytest.mark.parametrize(
        "spec,start",
        [
            (HER, default_init),
            (LEG, _mirrored_default_init),
            (make_classical(ClassicalFamily.jacobi(0.7, 0.7)), _mirrored_default_init),
        ],
        ids=["hermite", "legendre", "jacobi(0.7,0.7)"],
    )
    def test_answer_is_an_exact_mirror_image(self, spec, start, n, solved):
        x = newton_solve(spec, start(spec, n), tol=2e-13 * n).as_array()
        h = n // 2
        assert x[n - h :].tobytes() == (-x[h - 1 :: -1]).tobytes()
        if n % 2:
            assert x[h : h + 1].tobytes() == np.zeros(1).tobytes()
        ref = oracle_zeros(spec, n).as_array()
        assert np.all(np.abs(x - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
        assert solved and {a.shape for a, _ in solved} == {(h, h)}

    @pytest.mark.parametrize(
        "spec,start",
        [
            (JAC, _mirrored_default_init),
            (HER, lambda spec, n: default_init(spec, n, "seeded", seed=1)),
        ],
        ids=["jacobi(0.3,1.2)", "hermite-seeded"],
    )
    def test_other_inputs_solve_the_full_system(self, spec, start, solved):
        n = 40
        newton_solve(spec, start(spec, n), tol=1e-10)
        assert solved and {a.shape for a, _ in solved} == {(n, n)}

    def test_single_point_at_the_origin_returns_at_once(self, solved):
        start = Configuration((0.0,))
        assert newton_solve(HER, start, tol=1e-12) == start
        assert solved == []

    def test_translation_invariant_spec_keeps_the_full_solve(self, solved):
        # p = 1, q = 0: the mirror system would leave out the all-ones null
        # vector and follow the points out to +-2^40, so this start solves
        # the full system and fails as test_singular_jacobian does
        spec = EquationSpec(0.0, 0.0, 1.0, 0.0, 0.0, Domain(-math.inf, math.inf))
        with pytest.raises(ZeroflowError) as exc_info:
            newton_solve(spec, Configuration((-0.5, 0.5)), tol=1e-12)
        assert type(exc_info.value) is SingularJacobian
        assert [a.shape for a, _ in solved] == [(2, 2)]


class TestFormulasStatedOnce:
    @pytest.mark.parametrize("n", [1, 2, 50])
    @pytest.mark.parametrize(
        "spec",
        [make_classical(ClassicalFamily.laguerre(0.5)), JAC, HER],
        ids=["laguerre(0.5)", "jacobi(0.3,1.2)", "hermite"],
    )
    def test_newton_rows_equal_the_public_functions(self, spec, n, rng):
        cfg = Configuration(random_config(rng, spec, n))
        x = cfg.as_array()
        r, J = residual(spec, cfg), residual_jacobian(spec, cfg)
        for lo in (0, n - n // 2):  # all rows, then the right-half rows
            inv, s = equilibrium._pair_rows(x, lo)
            assert equilibrium._residual_rows(spec, x[lo:], s).tobytes() == r[lo:].tobytes()
            rows = equilibrium._jacobian_rows(spec, x, lo, inv, s)
            assert rows.tobytes() == J[lo:].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 50, 51])
    def test_factored_systems_come_from_the_public_functions(self, n, solved):
        # the full system is (J, -R); the mirror one takes the right h rows
        # and folds the columns as J[:, n-h:] - J[:, h-1::-1]
        h = n // 2
        for spec, start in ((JAC, default_init(LEG, n)), (HER, default_init(HER, n))):
            solved.clear()
            newton_solve(spec, start, tol=1e-10)
            r, J = residual(spec, start), residual_jacobian(spec, start)
            if spec is JAC:
                want = J, -r
            else:
                want = J[n - h :, n - h :] - J[n - h :, h - 1 :: -1], -r[n - h :]
            a, b = solved[0]
            assert a.tobytes() == want[0].tobytes() and b.tobytes() == want[1].tobytes()


class TestVerifyTheorem1:
    def test_legendre_equilibrium(self):
        report = verify_theorem1(
            LEG, Configuration((-INV_SQRT3, INV_SQRT3)), tol=1e-9
        )
        assert report.is_equilibrium
        assert report.lambda_recovered == 6.0
        assert report.operator_defect < 1e-12

    def test_laguerre_non_equilibrium(self):
        report = verify_theorem1(LAG, Configuration((1.0, 2.0, 3.0)), tol=1e-9)
        assert not report.is_equilibrium
        assert report.operator_defect > 1e-2

    @pytest.mark.parametrize("name,spec", CLASSICAL_SPECS)
    def test_degree_one_root_of_q_minus_dp(self, name, spec):
        # for n = 1 the residual is p'(x) - q(x); its root is the
        # equilibrium and lambda_1 is recovered
        x = (spec.q0 - spec.p1) / (2.0 * spec.p2 - spec.q1)
        report = verify_theorem1(spec, Configuration((x,)), tol=1e-10)
        assert report.is_equilibrium
        assert report.lambda_recovered == pytest.approx(eigenvalue(spec, 1))
        assert report.operator_defect < 1e-13

    @pytest.mark.parametrize(
        "spec,n,bound", [(LAG, 100, 1e-12), (HER, 200, 1e-3)], ids=["lag100", "her200"]
    )
    def test_defect_stays_finite_where_the_coefficient_norm_overflows(
        self, spec, n, bound
    ):
        # the monomial coefficients of prod (x - x_i) leave double range
        # here (max|c| = 4.9e164 for Laguerre(0) at n = 100); the defect is
        # read on the recurrence, rescaled by exact powers of two instead
        report = verify_theorem1(spec, oracle_zeros(spec, n), tol=1e-9)
        assert 0.0 < report.operator_defect < bound

    def test_biconditional_both_numbers_move_together(self, rng):
        for n in (2, 4, 6, 8):
            cfg = oracle_zeros(LEG, n)
            good = verify_theorem1(LEG, cfg, tol=1e-9)
            assert good.is_equilibrium and good.operator_defect < 1e-10
            pts = np.array(cfg.points)
            pts[rng.integers(0, n)] += 1e-3
            bad = verify_theorem1(LEG, Configuration(tuple(np.sort(pts))), tol=1e-9)
            assert not bad.is_equilibrium
            assert bad.operator_defect > 1e-6

    @pytest.mark.parametrize(
        "spec,n",
        [(LEG, 100), (LEG, 1000), (LAG, 100), (LAG, 200), (HER, 200)],
        ids=["leg100", "leg1000", "lag100", "lag200", "her200"],
    )
    def test_defect_vanishes_at_the_oracle_zeros_at_any_degree(self, spec, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_theorem1(spec, oracle_zeros(spec, n), tol=1e-9)
        assert report.operator_defect <= 1e-13

    @pytest.mark.parametrize("fraction", [1e-3, 1e-9])
    @pytest.mark.parametrize(
        "spec,n", [(LEG, 100), (LAG, 100), (HER, 200)], ids=["leg100", "lag100", "her200"]
    )
    def test_defect_reads_the_move_of_one_zero(self, spec, n, fraction):
        x = oracle_zeros(spec, n).as_array()
        move = fraction * np.min(np.diff(x))
        scale = max(1.0, np.max(np.abs(x)))
        for i in (0, n // 2, n - 1):
            moved = x.copy()
            moved[i] += move
            report = verify_theorem1(spec, Configuration(moved), tol=1e-9)
            assert report.operator_defect == pytest.approx(move / scale, rel=0.01), i

    def test_zero_derivative_reads_inf_without_warning(self):
        # y_2 = x^2 - 1/3 has y_2' = 0 at x = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_theorem1(LEG, Configuration((0.0, 0.5)), tol=1e-9)
        assert report.operator_defect == math.inf

    def test_degenerate_spectrum_refused(self):
        # lambda_m = m^2 - 2m, so lambda_1 < lambda_0
        spec = EquationSpec(-1.0, 0.0, 1.0, -3.0, 0.0, Domain(-1.0, 1.0))
        with pytest.raises(DegenerateSpectrumError, match="lambda_0=0 and lambda_1=-1"):
            verify_theorem1(spec, Configuration((-0.5, 0.5)), tol=1e-9)

    def test_recurrence_without_positive_weight_refused_as_by_the_oracle(self):
        # Jacobi(-1.5, 0.5) as a plain spec: p = 1 - x^2, q = -x - 2, g_1 = -1.5
        spec = EquationSpec(-1.0, 0.0, 1.0, -1.0, -2.0, Domain(-1.0, 1.0))
        with pytest.raises(RootCountMismatch) as oracle:
            oracle_zeros(spec, 13)
        assert "g_1 = -1.5 <= 0" in str(oracle.value)
        start = Configuration(np.linspace(-0.9, 0.9, 13))
        with pytest.raises(RootCountMismatch) as verify:
            verify_theorem1(spec, start, tol=1e-9)
        assert str(verify.value) == str(oracle.value)


class TestStieltjesEnergy:
    def test_single_point_at_origin(self):
        assert stieltjes_energy(0.0, 0.0, Configuration((0.0,))) == 0.0

    def test_frozen_regression_value(self):
        e = stieltjes_energy(0.0, 0.0, Configuration((-INV_SQRT3, INV_SQRT3)))
        assert e == pytest.approx(E_AT_P2_ZEROS, abs=1e-14)

    def test_energy_grows_toward_collision(self):
        base = stieltjes_energy(0.0, 0.0, Configuration((-0.3, 0.3)))
        for gap in (0.1, 0.01, 1e-5):
            e = stieltjes_energy(0.0, 0.0, Configuration((-gap / 2, gap / 2)))
            assert e > base
            base = e

    def test_boundary_rejected(self):
        with pytest.raises(PointOnBoundary):
            stieltjes_energy(0.0, 0.0, Configuration((0.0, 1.0)))
        with pytest.raises(PointOnBoundary):
            stieltjes_energy(0.0, 0.0, Configuration((-1.5, 0.0)))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            stieltjes_energy(-1.0, 0.0, Configuration((0.0,)))

    def test_minimum_at_jacobi_zeros(self, rng):
        # energy at the oracle zeros beats nearby perturbed configurations
        spec = make_classical(ClassicalFamily.jacobi(0.4, 0.9))
        cfg = oracle_zeros(spec, 5)
        e_star = stieltjes_energy(0.4, 0.9, cfg)
        for _ in range(20):
            pts = cfg.as_array() + rng.uniform(-1e-3, 1e-3, size=5)
            pts.sort()
            if np.any(np.abs(pts) >= 1) or np.any(np.diff(pts) <= 0):
                continue
            assert stieltjes_energy(0.4, 0.9, Configuration(tuple(pts))) > e_star


class TestStieltjesGradient:
    def test_vanishes_at_legendre2_zeros(self):
        g = stieltjes_gradient(0.0, 0.0, Configuration((-INV_SQRT3, INV_SQRT3)))
        np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-12)

    def test_single_point_symmetric(self):
        np.testing.assert_allclose(
            stieltjes_gradient(0.0, 0.0, Configuration((0.0,))), [0.0], atol=0
        )

    def test_finite_difference(self, rng):
        h = 1e-7
        for _ in range(8):
            n = int(rng.integers(1, 7))
            alpha = float(rng.uniform(-0.9, 2.0))
            beta = float(rng.uniform(-0.9, 2.0))
            x = np.sort(rng.uniform(-0.85, 0.85, size=n))
            while n > 1 and np.min(np.diff(x)) < 0.03:
                x = np.sort(rng.uniform(-0.85, 0.85, size=n))
            g = stieltjes_gradient(alpha, beta, Configuration(tuple(x)))
            for j in range(n):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd = (
                    stieltjes_energy(alpha, beta, Configuration(tuple(xp)))
                    - stieltjes_energy(alpha, beta, Configuration(tuple(xm)))
                ) / (2 * h)
                assert abs(g[j] - fd) < 1e-6 * (1.0 + abs(g[j]))

    def test_stationarity_matches_field_balance(self, rng):
        # gradient zero is the same statement as the pairwise-sum/endpoint
        # field balance, written with the sum over k != i of 1/(x_k - x_i)
        alpha, beta = 1.1, -0.2
        x = np.sort(rng.uniform(-0.8, 0.8, size=4))
        cfg = Configuration(tuple(x))
        g = stieltjes_gradient(alpha, beta, cfg)
        for i in range(4):
            lhs = sum(1.0 / (x[k] - x[i]) for k in range(4) if k != i)
            rhs = 0.5 * (alpha + 1) / (x[i] - 1) + 0.5 * (beta + 1) / (x[i] + 1)
            assert g[i] == pytest.approx(lhs - rhs, rel=1e-12, abs=1e-12)


class TestGradientResidualIdentity:
    def test_jacobi_identity(self, rng):
        # R_i = -2 p(x_i) dE/dx_i for p = 1 - x^2, q = (a+b) x + (a-b)
        for _ in range(25):
            alpha = float(rng.uniform(-0.9, 2.0))
            beta = float(rng.uniform(-0.9, 2.0))
            spec = make_classical(ClassicalFamily.jacobi(alpha, beta))
            n = int(rng.integers(1, 8))
            x = np.sort(rng.uniform(-0.9, 0.9, size=n))
            while n > 1 and np.min(np.diff(x)) < 0.02:
                x = np.sort(rng.uniform(-0.9, 0.9, size=n))
            cfg = Configuration(tuple(x))
            r = residual(spec, cfg)
            g = stieltjes_gradient(alpha, beta, cfg)
            lhs = r + 2.0 * spec.p(x) * g
            scale = 1.0 + np.max(np.abs(r))
            assert np.max(np.abs(lhs)) < 1e-10 * scale



NEAR_ENDPOINTS = [
    (-1.0 + 1e-8, 0.1, 1.0 - 1e-8),
    (-1.0 + 1e-12, -0.5, 0.999999),
]


class TestGradientNearEndpoints:
    # x - 1 and x + 1 are exact next to +-1, so the closed-form gradient
    # keeps full accuracy there; p(x) = 1 - x^2 rounds x^2, so -R/(2p)
    # would lose about eps/(1 - |x|)
    ALPHA, BETA = 0.3, 1.2

    def _check_against_high_precision(self, x):
        # error measured against the sum of the terms' sizes, since the
        # gradient cancels to about 0 at an equilibrium
        mp = pytest.importorskip("mpmath")
        a, b = self.ALPHA, self.BETA
        g = stieltjes_gradient(a, b, Configuration(tuple(x)))
        with mp.workdps(50):
            xs = [mp.mpf(float(v)) for v in x]
            for i, xi in enumerate(xs):
                terms = [-1 / (xi - xk) for k, xk in enumerate(xs) if k != i]
                terms += [-(a + 1) / (2 * (xi - 1)), -(b + 1) / (2 * (xi + 1))]
                size = float(sum(abs(t) for t in terms))
                assert abs(g[i] - float(sum(terms))) <= 4e-15 * size

    @pytest.mark.parametrize("pts", NEAR_ENDPOINTS)
    def test_matches_high_precision(self, pts):
        self._check_against_high_precision(np.array(pts))

    def test_matches_high_precision_at_jacobi100_zeros(self):
        spec = make_classical(ClassicalFamily.jacobi(self.ALPHA, self.BETA))
        self._check_against_high_precision(oracle_zeros(spec, 100).as_array())

    @pytest.mark.parametrize("pts", NEAR_ENDPOINTS)
    def test_jacobi_identity(self, pts):
        # p written as (1 - x)(1 + x), exact enough next to +-1 for the
        # identity R = -2 p dE/dx to hold to rounding
        spec = make_classical(ClassicalFamily.jacobi(self.ALPHA, self.BETA))
        x = np.array(pts)
        r = residual(spec, Configuration(pts))
        g = stieltjes_gradient(self.ALPHA, self.BETA, Configuration(pts))
        lhs = r + 2.0 * (1.0 - x) * (1.0 + x) * g
        assert np.max(np.abs(lhs)) < 1e-12 * (1.0 + np.max(np.abs(r)))
