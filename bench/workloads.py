"""The benchmark's workloads: seeded inputs, the timed call into zeroflow's
public API, and the check of each answer against ``reference``.

A workload hands out passes: lists of cases that are solved one after the
other.  Every case has ``call()``, the operation that is timed, ``check()``,
which returns None for a correct answer and a reason otherwise, and
``trace()``, which makes the same call with spans around the layers it
calls into.  The reference answer of a case is computed by its check,
outside any timed region.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from functools import cached_property

import numpy as np

import reference as ref
import zeroflow as zf
from zeroflow import equilibrium as zf_equilibrium
from zeroflow import spectral as zf_spectral

NEWTON_TOL = 1e-10  # the default of ``zeroflow solve``
FLOW_TOL = 1e-9  # the default of ``convergence_options``


class Tracer:
    """Spans kept in memory: (name, parent name, start, end) in seconds."""

    def __init__(self):
        self.spans: list[tuple[str, str | None, float, float]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((name, parent, start, end))

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def durations(self, name: str) -> list[float]:
        return [e - s for n, _, s, e in self.spans if n == name]

    @contextmanager
    def wrapping(self, module, attr: str, name: str):
        """Replace ``module.attr`` by a version that records a span per call,
        so that calls made inside zeroflow are seen from outside it."""
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, wrapped)
        try:
            yield
        finally:
            setattr(module, attr, original)


def _spec(fam: ref.Family) -> zf.EquationSpec:
    """The zeroflow spec of a family: the classical constructor where the
    family is classical, the raw coefficients for stretched Hermite."""
    if fam.kind == "jacobi":
        return zf.make_classical(zf.ClassicalFamily.jacobi(fam.alpha, fam.beta))
    if fam.kind == "laguerre":
        return zf.make_classical(zf.ClassicalFamily.laguerre(fam.alpha))
    if fam.scale == 1.0 and fam.shift == 0.0:
        return zf.make_classical(zf.ClassicalFamily.hermite())
    p2, p1, p0, q1, q0 = fam.coefficients()
    return zf.EquationSpec(p2, p1, p0, q1, q0, zf.Domain(*fam.domain()))


def _family(kind: str, rng: np.random.Generator, stretch: bool = False) -> ref.Family:
    """Parameters drawn from ``rng``; ranges keep every family well inside
    its classical parameter domain."""
    if kind == "jacobi":
        a, b = rng.uniform(-0.5, 2.0, size=2)
        return ref.Family("jacobi", alpha=float(a), beta=float(b))
    if kind == "laguerre":
        return ref.Family("laguerre", alpha=float(rng.uniform(0.0, 2.0)))
    if stretch:
        return ref.Family(
            "hermite",
            scale=float(rng.uniform(0.5, 2.0)),
            shift=float(rng.uniform(-1.0, 1.0)),
        )
    return ref.Family("hermite")


def _compare(got: np.ndarray, want: np.ndarray, tol) -> str | None:
    if got.shape != want.shape:
        return f"{got.size} points where {want.size} were expected"
    excess = np.abs(got - want) / tol
    worst = int(np.argmax(excess))
    if excess[worst] > 1.0:
        return (
            f"point {worst} is off by {abs(got[worst] - want[worst]):.3e}, "
            f"tolerance {np.broadcast_to(tol, got.shape)[worst]:.3e}"
        )
    return None


class Workload:
    """Passes of cases drawn from the seed.  Every pass draws new parameters
    and starts from its own stream, so that a run averages over several
    draws of the same mix instead of repeating one."""

    stream = 0

    def __init__(self, seed: int):
        self.seed = seed % 2**63  # numpy's seed sequences take no negative entropy
        self.warmup = self.draw(np.random.default_rng([self.seed, self.stream, 2**32]), warmup=True)

    def draw(self, rng: np.random.Generator, warmup: bool = False) -> list:
        raise NotImplementedError

    def cases_for_pass(self, index: int) -> list:
        return self.draw(np.random.default_rng([self.seed, self.stream, index]))


# ---------------------------------------------------------------- flow


def _clumped_start(spec: zf.EquationSpec, n: int, rng: np.random.Generator) -> zf.Configuration:
    """n points in the middle tenth of the span ``default_init`` uses, with
    gaps drawn from [0.5, 1.5] times the mean gap.

    ``default_init(..., "seeded")`` draws the points independently, so two
    of them can land within 1e-7 of each other; ``integrate`` then ends in
    COLLISION_IMMINENT before its first step (see CHANGES.md).  Bounded
    gaps keep the same expansion from a clump without that failure."""
    lo, hi = spec.domain.lower, spec.domain.upper
    if math.isfinite(lo) and math.isfinite(hi):
        center, span = 0.5 * (lo + hi), hi - lo
    elif math.isfinite(lo):
        center, span = lo + 0.5 * (n + 1.0), n + 1.0
    else:
        center, span = 0.0, float(n + 1)
    gaps = rng.uniform(0.5, 1.5, size=n + 1)
    x = center - span / 20.0 + (span / 10.0) * np.cumsum(gaps)[:-1] / gaps.sum()
    return zf.Configuration(tuple(x))


class FlowCase:
    def __init__(self, fam: ref.Family, n: int, rng: np.random.Generator):
        self.fam, self.n = fam, n
        self.spec = _spec(fam)
        self.start = _clumped_start(self.spec, n, rng)
        # the horizon ``zeroflow bench`` uses: ample for the slowest mode
        gap = zf.eigenvalue_gap(self.spec, n)
        self.opts = zf.convergence_options(n, 10.0 + 50.0 / gap, FLOW_TOL)

    def call(self):
        traj = zf.integrate(self.spec, self.start, self.opts)
        if traj.terminated_by is not zf.TerminationReason.CONVERGED:
            # a failed operation, not a wrong answer
            raise RuntimeError(f"flow ended in {traj.terminated_by.name}")
        return traj

    @cached_property
    def expected(self):
        x = ref.zeros(self.fam, self.n)
        return x, ref.equilibrium_tolerance(self.fam, x, FLOW_TOL)

    def check(self, traj) -> str | None:
        if traj.terminated_by is not zf.TerminationReason.CONVERGED:
            return f"flow ended in {traj.terminated_by.name}"
        return _compare(traj.final.config.as_array(), *self.expected)

    def trace(self, tracer: Tracer):
        with tracer.span("flow.integrate"):
            traj = self.call()
        tracer.add("flow.steps_accepted", traj.accepted_steps)
        tracer.add("flow.steps_rejected", traj.rejected_steps)
        return traj


class FlowWorkload(Workload):
    """Hermite and Laguerre at n = 20..80, Jacobi at n = 20..44.

    Jacobi stops at 44: from n = 60 on, some (alpha, beta) make the residual
    hover near the 1e-9 tolerance and the step count jump four-fold, which
    would make the cost of a pass depend on the seed."""

    name, stream = "flow", 1
    plan = [("hermite", 20), ("hermite", 50), ("hermite", 80),
            ("laguerre", 20), ("laguerre", 50), ("laguerre", 80),
            ("jacobi", 20), ("jacobi", 32), ("jacobi", 44)]  # fmt: skip

    def draw(self, rng, warmup=False):
        plan = [(kind, 10) for kind in ("hermite", "laguerre", "jacobi")] if warmup else self.plan
        return [FlowCase(_family(kind, rng), n, rng) for kind, n in plan]


# ---------------------------------------------------------------- newton


class NewtonCase:
    def __init__(self, fam: ref.Family, n: int):
        self.fam, self.n = fam, n
        self.spec = _spec(fam)
        self.start = zf.default_init(self.spec, n)

    def call(self):
        return zf.newton_solve(self.spec, self.start, tol=NEWTON_TOL)

    @cached_property
    def expected(self):
        x = ref.zeros(self.fam, self.n)
        return x, ref.equilibrium_tolerance(self.fam, x, NEWTON_TOL)

    def check(self, config) -> str | None:
        return _compare(config.as_array(), *self.expected)

    def trace(self, tracer: Tracer):
        with tracer.span("equilibrium.newton"):
            with tracer.wrapping(
                zf_equilibrium, "residual_jacobian", "equilibrium.jacobian"
            ):
                return self.call()


class NewtonWorkload(Workload):
    """Newton from the equispaced start at n = 250..1000.

    Only Hermite goes to 1000: for Jacobi and Laguerre the residual's
    round-off floor reaches about 8e-11 at n = 1000, so close to the 1e-10
    tolerance that whether a solve succeeds would depend on the parameters."""

    name, stream = "newton", 2
    plan = [("hermite", 250), ("hermite", 500), ("hermite", 750), ("hermite", 1000),
            ("jacobi", 250), ("jacobi", 500), ("jacobi", 750),
            ("laguerre", 250), ("laguerre", 500), ("laguerre", 750)]  # fmt: skip

    def draw(self, rng, warmup=False):
        if warmup:
            return [NewtonCase(ref.Family("hermite"), 100)]
        return [NewtonCase(_family(kind, rng), n) for kind, n in self.plan]


# ---------------------------------------------------------------- oracle


class OracleCase:
    def __init__(self, fam: ref.Family, n: int):
        self.fam, self.n = fam, n
        self.spec = _spec(fam)

    def call(self):
        return zf.oracle_zeros(self.spec, self.n)

    @cached_property
    def expected(self):
        x = ref.zeros(self.fam, self.n)
        if self.n <= 12:
            # double-precision path: the monomial coefficients' conditioning
            tol = ref.monomial_tolerance(x)
        else:
            # extended-precision path: only the final rounding to double
            tol = 4.0 * ref.EPS * np.maximum(np.abs(x), 1.0)
        return x, tol + ref.zeros_error(self.fam, self.n)

    def check(self, config) -> str | None:
        return _compare(config.as_array(), *self.expected)

    def trace(self, tracer: Tracer):
        if self.n > 12:
            with tracer.span("spectral.oracle.deg_gt12"):
                return self.call()
        with tracer.span("spectral.oracle.deg_le12"), tracer.wrapping(
            zf_spectral, "eigen_coefficients", "spectral.eigen_coefficients"
        ), tracer.wrapping(zf_spectral, "poly_roots", "spectral.poly_roots"):
            return self.call()


class OracleWorkload(Workload):
    """Degrees 8 and 12 (double-precision path) and 20, 32, 48 (mpmath
    path) for stretched Hermite, Jacobi and Laguerre.  Every pass draws new
    parameters, so ``oracle_zeros``' lru_cache never holds the answer."""

    name, stream = "oracle", 3
    degrees = (8, 12, 20, 32, 48)

    def draw(self, rng, warmup=False):
        if warmup:
            return [OracleCase(_family("hermite", rng, stretch=True), n) for n in (8, 13)]
        return [
            OracleCase(_family(kind, rng, stretch=True), n)
            for n in self.degrees
            for kind in ("hermite", "jacobi", "laguerre")
        ]


# ---------------------------------------------------------------- heat


class HeatCase:
    def __init__(self, fam: ref.Family, n: int, lam_t: float, rng: np.random.Generator):
        self.fam, self.n = fam, n
        self.spec = _spec(fam)
        self.t = lam_t / zf.eigenvalue(self.spec, n)
        # start roots spread over about the span of the zeros, at least half
        # an average spacing apart so that root isolation is well posed
        if fam.kind == "jacobi":
            lo, hi = -0.95, 0.95
        elif fam.kind == "laguerre":
            lo, hi = 0.5, 3.5 * n
        else:
            half = 1.8 * fam.scale * math.sqrt(n)
            lo, hi = fam.shift - half, fam.shift + half
        gaps = rng.uniform(0.5, 1.5, size=n + 1)
        x0 = lo + (hi - lo) * np.cumsum(gaps)[:-1] / gaps.sum()
        self.start = zf.PolynomialCoefficients.from_roots(x0)
        self.with_roots = n <= 12

    def call(self):
        out = zf.heat_propagate(self.spec, self.start, self.t)
        roots = zf.poly_roots(out, self.spec.domain) if self.with_roots else None
        return out, roots

    @cached_property
    def expected(self):
        return ref.heat(self.fam, self.start.as_array(), self.t)

    def check(self, result) -> str | None:
        out, roots = result
        want, bound = self.expected
        err = float(np.linalg.norm(out.as_array() - want))
        if not err <= bound:
            return f"coefficients off by {err:.3e}, bound {bound:.3e}"
        if roots is None:
            return None
        x = roots.as_array()
        if x.size != self.n:
            return f"{x.size} roots for degree {self.n}"
        lo, hi = self.fam.domain()
        if not (np.all(x > lo) and np.all(x < hi)):
            return "a root left the domain"
        # each root must be a root of the reference polynomial, up to the
        # coefficients' error (at most ``bound`` in the 2-norm, so at most
        # bound * ||(1, x, x^2, ...)|| in value), the round-off of evaluating
        # it, and the root's own rounding to a few ulp of 1 + |x|
        poly = np.polynomial.Polynomial(want)
        powers = np.abs(x)[:, None] ** np.arange(self.n + 1)
        allowed = (
            bound * np.linalg.norm(powers, axis=1)
            + 4.0 * self.n * ref.EPS * (powers @ np.abs(want))
            + 8.0 * ref.EPS * (1.0 + np.abs(x)) * np.abs(poly.deriv()(x))
        )
        excess = np.abs(poly(x)) / allowed
        worst = int(np.argmax(excess))
        if excess[worst] > 1.0:
            return f"root {worst} leaves a residual {excess[worst]:.3g} times the allowed"
        return None

    def trace(self, tracer: Tracer):
        with tracer.span("spectral.heat"):
            with tracer.wrapping(zf_spectral, "eigenbasis_matrix", "spectral.eigenbasis"):
                out = zf.heat_propagate(self.spec, self.start, self.t)
        roots = None
        if self.with_roots:
            with tracer.span("spectral.poly_roots"):
                roots = zf.poly_roots(out, self.spec.domain)
        return out, roots


class HeatWorkload(Workload):
    """Exact propagation at lambda_n t in [1, 10]: n = 4, 8, 12 followed by
    root isolation, larger n propagated only, three starts each.  Hermite
    and Laguerre go to n = 60.  Jacobi stops at 30: beyond it,
    heat_propagate's error near alpha = beta = 0 outgrows the reference's
    error bound on some draws (see CHANGES.md)."""

    name, stream = "heat", 4
    plan = {"hermite": (4, 8, 12, 30, 45, 60),
            "laguerre": (4, 8, 12, 30, 45, 60),
            "jacobi": (4, 8, 12, 20, 25, 30)}  # fmt: skip

    def draw(self, rng, warmup=False):
        if warmup:
            return [HeatCase(_family("jacobi", rng), n, 2.0, rng) for n in (6, 30)]
        return [
            HeatCase(_family(kind, rng), n, float(rng.uniform(1.0, 10.0)), rng)
            for kind, degrees in self.plan.items()
            for n in degrees
            for _ in range(3)
        ]


WORKLOADS = {
    w.name: w for w in (FlowWorkload, NewtonWorkload, OracleWorkload, HeatWorkload)
}


# ---------------------------------------------------------------- layers


def _median_call_s(fn, budget_s: float = 0.2, batches: int = 7) -> float:
    """Median over batches of the mean time of one call; the batch size is
    chosen so that all batches together take about ``budget_s``."""
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    reps = max(1, int(budget_s / batches / once))
    means = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        means.append((time.perf_counter() - start) / reps)
    return float(np.median(means))


def layer_calls(seed: int) -> dict[str, float]:
    """Single public functions timed alone, on inputs drawn like the
    workloads' own: the residual at n = 10, 100, 1000, the Jacobian at
    n = 1000, and the two operator_core calls that heat_propagate repeats
    for every k, at n = 60."""
    rng = np.random.default_rng([seed % 2**63, 5])
    out = {}
    specs = [_spec(_family(kind, rng)) for kind in ("hermite", "jacobi", "laguerre")]
    for n in (10, 100, 1000):
        configs = [zf.default_init(s, n, "seeded", seed=int(rng.integers(2**31))) for s in specs]
        out[f"equilibrium.residual_us.n{n}"] = 1e6 * float(
            np.mean([_median_call_s(lambda s=s, c=c: zf.residual(s, c)) for s, c in zip(specs, configs)])
        )
        if n == 1000:
            out["equilibrium.jacobian_ms.n1000"] = 1e3 * float(
                np.mean([
                    _median_call_s(lambda s=s, c=c: zf.residual_jacobian(s, c), budget_s=0.3, batches=5)
                    for s, c in zip(specs, configs)
                ])
            )
    out["operator_core.operator_matrix_us.n60"] = 1e6 * float(
        np.mean([_median_call_s(lambda s=s: zf.operator_matrix(s, 60)) for s in specs])
    )
    out["operator_core.check_simple_spectrum_us.n60"] = 1e6 * float(
        np.mean([_median_call_s(lambda s=s: zf.check_simple_spectrum(s, 60)) for s in specs])
    )
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-operation figures from the spans and counts of traced passes."""
    out = {}
    flow = tracer.durations("flow.integrate")
    acc = tracer.counts.get("flow.steps_accepted", 0.0)
    rej = tracer.counts.get("flow.steps_rejected", 0.0)
    out["flow.integrate_s"] = float(np.mean(flow))
    out["flow.steps_accepted"] = acc / len(flow)
    out["flow.steps_rejected"] = rej / len(flow)
    out["flow.accept_ratio"] = acc / (acc + rej)
    out["flow.step_us"] = 1e6 * sum(flow) / (acc + rej)
    newton = tracer.durations("equilibrium.newton")
    out["equilibrium.newton_s"] = float(np.mean(newton))
    out["equilibrium.newton_iters"] = len(tracer.durations("equilibrium.jacobian")) / len(newton)
    for path in ("deg_le12", "deg_gt12"):
        out[f"spectral.oracle_ms.{path}"] = 1e3 * float(
            np.mean(tracer.durations(f"spectral.oracle.{path}"))
        )
    out["spectral.eigen_coefficients_us"] = 1e6 * float(
        np.median(tracer.durations("spectral.eigen_coefficients"))
    )
    out["spectral.poly_roots_ms"] = 1e3 * float(np.median(tracer.durations("spectral.poly_roots")))
    out["spectral.heat_ms"] = 1e3 * float(np.mean(tracer.durations("spectral.heat")))
    out["spectral.eigenbasis_ms"] = 1e3 * float(np.mean(tracer.durations("spectral.eigenbasis")))
    return out

