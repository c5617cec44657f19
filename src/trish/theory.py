"""Convergence constants, parameter bounds, and empirical verification oracles.

The oracles work on small synthetic quadratics whose Lipschitz and
gradient-dominance constants are known in closed form.  Conditional
expectations over mini-batches are exact: the batch-gradient moments come
from their without-replacement closed forms, and only E[F(x + p)], which is
not linear in the batch gradient, enumerates all batches of a given size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import FiniteSumProblem, as_vector, check_count, check_gammas, check_positive
from .optimizer import HyperParams, run_trish, trish_step


def beta_const(alpha: float, gamma1: float, gamma2: float, L: float) -> float:
    """The positive constant governing the asymptotic optimality gap, for
    gammas that pass `check_gammas` and positive finite alpha and L."""
    check_gammas(gamma1, gamma2)
    check_positive("alpha", alpha)
    check_positive("L", L)
    return (gamma1**2 - gamma2**2) / (2.0 * gamma2) + 0.5 * alpha * gamma1**2 * L


@dataclass(frozen=True)
class StepsizeBounds:
    """Named steplength bounds and the gamma-ratio admissibility flag.

    base: the bound gamma2 / (2 gamma1^2 L) required for the plateau results.
    pl: base tightened by 1/(mu gamma2) under gradient dominance.
    zero_noise: 1 / (4 gamma2 L M2) for the vanishing-gap regime (M1 = 0).
    zero_noise_pl: zero_noise tightened by 2 gamma2 / (mu gamma1^2).
    ratio_ok: whether (gamma2/gamma1)^2 > 1 - 1/(4 M2).
    """

    base: float
    pl: float | None = None
    zero_noise: float | None = None
    zero_noise_pl: float | None = None
    ratio_ok: bool | None = None


def stepsize_bounds(gamma1: float, gamma2: float, L: float,
                    mu: float | None = None,
                    M2: float | None = None) -> StepsizeBounds:
    """Every steplength bound available from the given constants: gammas
    that pass `check_gammas`, L, mu and M2 positive (+inf passes) or absent."""
    check_gammas(gamma1, gamma2)
    for name, value in (("L", L), ("mu", mu), ("M2", M2)):
        if value is not None:
            check_positive(name, value, finite=False)
    base = gamma2 / (2.0 * gamma1**2 * L)
    pl = min(base, 1.0 / (mu * gamma2)) if mu is not None else None
    zero_noise = 1.0 / (4.0 * gamma2 * L * M2) if M2 is not None else None
    zero_noise_pl = (min(zero_noise, 2.0 * gamma2 / (mu * gamma1**2))
                     if mu is not None and M2 is not None else None)
    ratio_ok = ((gamma2 / gamma1) ** 2 > 1.0 - 1.0 / (4.0 * M2)
                if M2 is not None else None)
    return StepsizeBounds(base=base, pl=pl, zero_noise=zero_noise,
                          zero_noise_pl=zero_noise_pl, ratio_ok=ratio_ok)


def asymptotic_gaps(beta: float, M_g: float, mu: float,
                    gamma2: float) -> tuple[float, float]:
    """Limit values of the optimality gap (PL case) and of the averaged
    squared gradient norm (nonconvex case), for beta, mu and gamma2 positive
    and M_g zero or positive, all finite."""
    for name, value in (("beta", beta), ("mu", mu), ("gamma2", gamma2)):
        check_positive(name, value)
    if M_g != 0 or isinstance(M_g, bool):
        check_positive("M_g", M_g)
    return 2.0 * beta * M_g / (mu * gamma2), 4.0 * beta * M_g / gamma2


class SyntheticQuadratic(FiniteSumProblem):
    """Finite-sum diagonal quadratic with controlled gradient noise.

    Component i is 0.5 * c_i * x.Dx + b_i.x where the scales c_i average to
    one and stay positive after that shift (every component is convex; a
    spread that would make one concave raises ValueError), and the offsets
    b_i sum to zero, so the full objective is exactly
    0.5 * x.Dx with gradient Dx, minimizer 0, L = max D and mu = min D.
    Every input must be finite, and scales, if given, one per component.
    Offsets give additive (position-independent) noise; scales give
    multiplicative noise that vanishes at the minimizer.
    """

    def __init__(self, diag, offsets=None, scales=None):
        diag = as_vector(diag)
        if not ((diag > 0) & (diag < np.inf)).all():  # NaN fails both
            raise ValueError(f"diagonal entries must be positive and finite, got {diag}")
        if offsets is None and scales is None:
            raise ValueError("provide offsets and/or scales to fix N")
        ref = offsets if offsets is not None else scales
        N = np.asarray(ref).shape[0]

        if offsets is None:
            offsets = np.zeros((N, diag.size))
        offsets = np.array(offsets, dtype=np.float64)
        if offsets.shape != (N, diag.size):
            raise ValueError("offsets must be N rows of dimension n")
        if not np.isfinite(offsets).all():
            raise ValueError("offsets must be finite")
        offsets -= offsets.mean(axis=0)
        offsets[-1] = -offsets[:-1].sum(axis=0)  # force the sum to zero
        if not np.isfinite(offsets).all():
            raise ValueError("offsets overflow when centered to sum to zero")

        if scales is None:
            scales = np.ones(N)
        scales = np.array(scales, dtype=np.float64)
        if scales.shape != (N,):
            raise ValueError("scales must be a vector of length N")
        if not ((scales > 0) & (scales < np.inf)).all():
            raise ValueError(f"scales must be positive and finite, got {scales}")
        scales += 1.0 - scales.mean()
        scales[-1] = N - scales[:-1].sum()  # force the mean to one
        if np.any(scales <= 0):  # a concave component
            raise ValueError(f"scales shifted to mean one must be positive, got {scales}")

        self.diag = diag
        self.offsets = offsets
        self.scales = scales
        self.N = int(N)
        self.n = int(diag.size)

    @property
    def lipschitz(self) -> float:
        return float(self.diag.max())

    @property
    def pl_constant(self) -> float:
        return float(self.diag.min())

    @property
    def minimizer(self) -> np.ndarray:
        return np.zeros(self.n)

    F_star = 0.0

    def component_gradients(self, indices, x: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp)
        return (np.multiply.outer(self.scales.take(idx), self.diag * x)
                + self.offsets.take(idx, axis=0))  # fewer calls than broadcasting

    def component_losses(self, indices, x: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp)
        quad = 0.5 * float(x @ (self.diag * x))
        return self.scales[idx] * quad + self.offsets[idx] @ x

    def loss(self, x: np.ndarray) -> float:
        x = as_vector(x)
        return float(0.5 * x @ (self.diag * x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.diag * as_vector(x)


@dataclass(frozen=True)
class GradientMoments:
    """Exact conditional moments of the batch gradient at a point."""

    grad: np.ndarray          # full gradient
    e_g_sq: float             # E ||g||^2
    e_err_sq: float           # E ||g - grad||^2
    inner_moment: float       # E [(g.grad - ||grad||^2)^2]
    orth_moment: float        # E ||g - (g.grad/||grad||^2) grad||^2


def gradient_moments(problem: FiniteSumProblem, x, batch_size: int) -> GradientMoments:
    """Moments of the uniform without-replacement batch gradient, in closed form.

    The mean g of s = batch_size of the N component gradients g_i, drawn
    without replacement, has E||g - grad||^2 = c * mean_i ||g_i - grad||^2
    with c = (N - s) / (s (N - 1)), and 0 at s = N.  The same finite-
    population factor gives inner_moment = c * mean_i (g_i.grad - ||grad||^2)^2
    and orth_moment = c * mean_i ||P g_i||^2, where P removes the component
    along grad; e_g_sq is ||grad||^2 + e_err_sq.  One component_gradients call
    and O(N n) work.  `batch_size` must be an integer in [1, N]
    (`check_count`).  The projection moments require a nonzero full
    gradient and are NaN otherwise.
    """
    N = problem.N
    check_count("batch_size", batch_size, high=N)
    x = as_vector(x)
    grad = problem.gradient(x)
    per = problem.component_gradients(np.arange(N), x)
    grad_sq = float(grad @ grad)
    c = (N - batch_size) / (batch_size * (N - 1)) if batch_size < N else 0.0
    dev = per - grad
    e_err_sq = c * float(np.vdot(dev, dev)) / N
    inner = orth = float("nan")
    if grad_sq > 0:
        along = dev @ grad  # g_i.grad - ||grad||^2
        residual = dev - np.outer(along / grad_sq, grad)  # P g_i, as P grad = 0
        inner = c * float(along @ along) / N
        orth = c * float(np.vdot(residual, residual)) / N
    return GradientMoments(grad=grad, e_g_sq=grad_sq + e_err_sq, e_err_sq=e_err_sq,
                           inner_moment=inner, orth_moment=orth)


@dataclass(frozen=True)
class ExpectedDecreaseReport:
    """One-step expected-decrease check at a point.

    Two upper bounds on E[F(x + p)] are evaluated with exact expectations:
    one in terms of E||g||^2 (second-moment form), one in terms of
    E||g - grad||^2 (variance form).
    """

    f_x: float
    expected_next: float
    grad_sq: float
    e_g_sq: float
    e_err_sq: float
    rhs_second_moment: float
    rhs_variance: float
    holds_second_moment: bool
    holds_variance: bool

    @property
    def holds(self) -> bool:
        return self.holds_second_moment and self.holds_variance


def verify_lemma1(problem: SyntheticQuadratic, x, params: HyperParams,
                  batch_size: int) -> ExpectedDecreaseReport:
    """Check both expected-decrease inequalities at x, with L = problem.lipschitz.

    E||g||^2 and E||g - grad||^2 are the closed forms of `gradient_moments`
    (with its input checks).  Only E[F(x + p)] enumerates, since the step is
    not linear in g: every batch of `batch_size`, in index order, takes one
    step and one loss.  The inequalities hold for every admissible
    parameter tuple, so violations beyond floating-point slack indicate a
    defect.
    """
    x = as_vector(x)
    f_x = problem.loss(x)
    moments = gradient_moments(problem, x, batch_size)
    grad_sq = float(moments.grad @ moments.grad)
    per = problem.component_gradients(np.arange(problem.N), x)
    e_next = 0.0
    for batch in itertools.combinations(range(problem.N), batch_size):
        g = per[list(batch)].mean(axis=0)
        e_next += problem.loss(x + trish_step(g, params))
    e_next /= math.comb(problem.N, batch_size)

    alpha, g1, g2, L = params.alpha, params.gamma1, params.gamma2, problem.lipschitz
    beta = beta_const(alpha, g1, g2, L)
    rhs_sm = f_x - alpha * g1**2 / (2.0 * g2) * grad_sq + alpha * beta * moments.e_g_sq
    rhs_var = (f_x - 0.5 * alpha * (g2 - alpha * g1**2 * L) * grad_sq
               + alpha * beta * moments.e_err_sq)
    slack = 1e-12 * max(1.0, abs(f_x))
    return ExpectedDecreaseReport(
        f_x=f_x, expected_next=e_next, grad_sq=grad_sq,
        e_g_sq=moments.e_g_sq, e_err_sq=moments.e_err_sq,
        rhs_second_moment=rhs_sm, rhs_variance=rhs_var,
        holds_second_moment=bool(e_next <= rhs_sm + slack),
        holds_variance=bool(e_next <= rhs_var + slack))


@dataclass(frozen=True)
class PlateauReport:
    """Averaged final optimality gap against its theoretical ceiling."""

    mean_gap: float
    std_error: float
    bound: float
    beta: float
    noise_bound: float
    reps: int

    @property
    def satisfied(self) -> bool:
        return self.mean_gap <= self.bound + 3.0 * self.std_error


def verify_theorem_gap(problem: SyntheticQuadratic, params: HyperParams,
                       batch_size: int, horizon_iters: int, reps: int,
                       rng: np.random.Generator) -> PlateauReport:
    """Empirical plateau of the optimality gap under gradient dominance.

    Runs `reps` independent fixed-batch trajectories for `horizon_iters`
    steps from minimizer + 1 and compares the averaged final gap with its
    asymptotic ceiling 2 * beta * M_g / (mu * gamma2) from `asymptotic_gaps`.
    M_g is the exact closed-form gradient-estimate variance at the start
    point; for additive-noise quadratics it is position-independent, hence
    a uniform bound.  `reps` and `horizon_iters` must be integers >= 1 and
    `batch_size` one in [1, N]; anything else raises ValueError.
    """
    check_count("reps", reps)
    check_count("horizon_iters", horizon_iters)
    x0 = problem.minimizer + 1.0
    L, mu = problem.lipschitz, problem.pl_constant
    beta = beta_const(params.alpha, params.gamma1, params.gamma2, L)
    m_g = gradient_moments(problem, x0, batch_size).e_err_sq
    bound = asymptotic_gaps(beta, m_g, mu, params.gamma2)[0]

    budget = horizon_iters * batch_size / problem.N  # exactly horizon_iters steps
    gaps = np.empty(reps)
    for rep, child in enumerate(rng.spawn(reps)):
        x_final, _ = run_trish(problem, x0, params, batch_size, budget, child)
        gaps[rep] = problem.loss(x_final) - problem.F_star
    mean_gap = float(gaps.mean())
    se = float(gaps.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return PlateauReport(mean_gap=mean_gap, std_error=se, bound=bound,
                         beta=beta, noise_bound=m_g, reps=reps)


@dataclass(frozen=True)
class VanishingGapReport:
    """Final gap of a vanishing-noise run; `satisfied` needs ratio_ok and gap < 1e-8."""

    M2: float
    bounds: StepsizeBounds
    gap: float

    @property
    def satisfied(self) -> bool:
        return bool(self.bounds.ratio_ok) and self.gap < 1e-8


def verify_vanishing_gap(problem: SyntheticQuadratic, gamma1: float, gamma2: float,
                         batch_size: int, horizon_iters: int,
                         rng: np.random.Generator) -> VanishingGapReport:
    """Empirical vanishing gap when the gradient noise vanishes at the solution.

    M2 = E||g||^2 / ||grad||^2 is exact at x0 = minimizer + 1, alpha is 0.9 times
    the `zero_noise_pl` bound, and one fixed-batch run takes `horizon_iters`
    steps from x0.  `horizon_iters` must be an integer >= 1, `batch_size` one in
    [1, N] and ||grad F(x0)||^2 nonzero (not underflowed); else ValueError.
    """
    check_count("horizon_iters", horizon_iters)
    x0 = problem.minimizer + 1.0
    moments = gradient_moments(problem, x0, batch_size)
    grad_sq = float(moments.grad @ moments.grad)
    check_positive("||grad F(x0)||^2", grad_sq)  # M2 divides by it
    M2 = moments.e_g_sq / grad_sq
    bounds = stepsize_bounds(gamma1, gamma2, problem.lipschitz, mu=problem.pl_constant, M2=M2)
    params = HyperParams(alpha=0.9 * bounds.zero_noise_pl, gamma1=gamma1, gamma2=gamma2)
    x_final, _ = run_trish(problem, x0, params, batch_size,
                           horizon_iters * batch_size / problem.N, rng)
    return VanishingGapReport(M2=M2, bounds=bounds, gap=problem.loss(x_final) - problem.F_star)
