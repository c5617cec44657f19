"""Step rule and run drivers.

The step is SG-like with a twist: when the stochastic gradient norm falls in
[1/gamma1, 1/gamma2] the step is normalized to length alpha (the minimizer of
g.p over ||p|| <= alpha), otherwise it is a scaled SG step.  Every step is
accepted; no ratio test.  Runs are budgeted in effective gradient evaluations
(EGE): a run counts its per-component gradient evaluations as an integer,
redraws included, and each record holds that count divided by N, so one
epoch equals EGE 1 and a sum of whole epochs is exact.

Telemetry is optional and leaves the trajectory untouched.  With
`metric_fn` set, a driver keeps a reference to every iterate and, after its
loop, fills in each record's train loss and held-out metric once, in stacked
calls of at most TELEMETRY_BLOCK iterates each, the blocks of one run
balanced in size.  `metric_fn` receives a K x n stack of iterates and
returns K values.  Without it, no iterate is kept and nothing is evaluated.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .core import (FiniteSumProblem, NumericError, as_vector, check_count,
                   check_gammas, check_positive, draw_batch, sampled_gradient)
from .sampling import noisy_regime_step, required_size


@dataclass(frozen=True)
class HyperParams:
    """Step-rule parameters plus adaptive-sampling controls.

    alpha > 0: steplength; 0 < gamma2 < gamma1: normalized-step interval ends,
    all three finite.  theta, nu > 0: variance-test constants (+inf passes every
    test); r >= 1: averaging window of the noisy-regime control.
    """

    alpha: float
    gamma1: float
    gamma2: float
    theta: float = 0.9
    nu: float = 5.84
    r: int = 10

    def __post_init__(self):
        check_positive("alpha", self.alpha)
        check_gammas(self.gamma1, self.gamma2)
        check_positive("theta", self.theta, finite=False)
        check_positive("nu", self.nu, finite=False)
        check_count("r", self.r)


class StepCase(Enum):
    """Which branch of the step rule an iteration took."""

    CASE1 = 1  # small gradient: SG step scaled by gamma1
    CASE2 = 2  # middle interval: normalized step of length alpha
    CASE3 = 3  # large gradient: SG step scaled by gamma2


@dataclass(slots=True)
class IterationRecord:
    """Per-iteration telemetry; the iteration number is the list index."""

    case: Optional[StepCase]
    grad_norm: float
    batch_size: int
    ege: float
    train_loss: Optional[float] = None
    test_metric: Optional[float] = None


def classify_case(grad_norm: float, gamma1: float, gamma2: float) -> StepCase:
    """Select the step branch from the gradient norm.

    Both ends of [1/gamma1, 1/gamma2] are in the normalized branch, so ties never
    reach CASE1 or CASE3.  Bad gammas and a NaN or negative norm raise ValueError.
    """
    check_gammas(gamma1, gamma2)
    if not grad_norm >= 0:
        raise ValueError(f"grad_norm must be >= 0, got {grad_norm}")
    return (StepCase.CASE1 if grad_norm < 1.0 / gamma1 else
            StepCase.CASE2 if grad_norm <= 1.0 / gamma2 else StepCase.CASE3)


def _step_vector(g: np.ndarray, gnorm: float, case: StepCase,
                 params: HyperParams) -> np.ndarray:
    if case is StepCase.CASE2:
        return (-params.alpha / gnorm) * g
    scale = params.gamma1 if case is StepCase.CASE1 else params.gamma2
    return (-scale * params.alpha) * g


def trish_step(g, params: HyperParams) -> np.ndarray:
    """The step taken for stochastic gradient g (zero vector when g = 0)."""
    g = as_vector(g)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite stochastic gradient")
    return _trish_rule(params)(g, math.sqrt(g.dot(g)))[1]


# Held-out metric over a K x n stack of iterates, returning K values.
MetricFn = Optional[Callable[[np.ndarray], np.ndarray]]

TELEMETRY_BLOCK = 32  # most iterates per stacked telemetry evaluation


def _fill_telemetry(records, iterates, problem, metric_fn):
    """Set train_loss and test_metric of every record from its iterate.

    The n iterates go in ceil(n / TELEMETRY_BLOCK) stacks of sizes within one
    of each other: a short tail stack costs more per iterate (sparse products).
    """
    n = len(iterates)
    blocks = -(-n // TELEMETRY_BLOCK)
    cuts = [-(-n * b // blocks) for b in range(1, blocks + 1)]  # ceil(n*b/blocks)
    for start, stop in zip([0] + cuts, cuts):
        block = records[start:stop]
        xs = np.stack(iterates[start:stop])
        losses = problem.losses(xs).tolist()
        values = np.asarray(metric_fn(xs), dtype=np.float64)
        if values.shape != (len(block),):
            raise ValueError(f"metric_fn returned shape {values.shape} "
                             f"for {len(block)} iterates")
        for rec, loss, value in zip(block, losses, values.tolist()):
            rec.train_loss, rec.test_metric = loss, value


def _trish_rule(params: HyperParams):
    """The TRish step as a step rule for `_run`, its interval formed once."""
    low, high = 1.0 / params.gamma1, 1.0 / params.gamma2  # HyperParams checked them
    case1, case2, case3 = StepCase.CASE1, StepCase.CASE2, StepCase.CASE3
    def step(g, gnorm):
        # `classify_case`'s branch, inline: one call fewer per iteration.
        case = case1 if gnorm < low else case2 if gnorm <= high else case3
        return case, _step_vector(g, gnorm, case, params)
    return step


def _run(problem: FiniteSumProblem, x0, size: int, budget_epochs: float,
         rng: np.random.Generator, metric_fn: MetricFn, step,
         sampler: Optional[HyperParams] = None) -> tuple[np.ndarray, list[IterationRecord]]:
    """The run loop behind every driver.

    `step(g, gnorm)` returns the step case (None for SG) and the step.  The
    batch size stays `size` unless `sampler` holds the adaptive-sampling
    constants, in which case it follows `run_trish_as`, whose controls stop
    at size N.  Each iteration steps with the current gradient, records,
    stops at the first record with EGE >= `budget_epochs`, and otherwise
    forms the next gradient.  Each drawn batch adds its size to the integer
    `evals`, and a record's EGE is `evals / N`: so budget `h * size / N`
    takes exactly h fixed-batch steps.
    `size` must be an integer in [1, N], `budget_epochs` positive and finite.
    """
    N = problem.N
    check_count("batch_size", size, high=N)
    check_positive("budget_epochs", budget_epochs)
    x = as_vector(x0).copy()
    size = int(size)
    evals = 0  # component gradients drawn so far, redraws included
    records: list[IterationRecord] = []
    iterates: list[np.ndarray] = []

    def sample():
        """Gradient at x over a fresh batch of the current size, charged to `evals`."""
        nonlocal evals
        est = sampled_gradient(problem, x, draw_batch(N, size, rng))
        evals += size
        return est

    def grow(proposed):
        """Adopt a proposed size, never shrinking and at most N, and redraw.
        A new size empties `recent`, which holds one size's aggregates."""
        nonlocal size
        adopted = min(N, max(size, proposed))
        if adopted != size:
            recent.clear()
        size = adopted
        return sample()

    est = sample()
    if sampler is not None:
        # Aggregates drawn at the current size, oldest first, for the
        # noisy-regime control.
        recent = deque([est.aggregate], maxlen=sampler.r + 1)
    while True:
        gnorm = math.sqrt(est.sq_norm)
        case, p = step(est.aggregate, gnorm)
        x = x + p
        ege = evals / N
        records.append(IterationRecord(case, gnorm, size, ege))
        if metric_fn is not None:
            iterates.append(x)
        if ege >= budget_epochs:
            break
        est = sample()
        if sampler is None or size == N:
            continue  # a batch of all N components is the exact gradient
        if 0.0 < est.sq_norm < math.inf:  # exact zeros, common on a saturated MLP, skip the tests
            proposed = required_size(est, est.aggregate, sampler.theta, sampler.nu, N)
            if proposed is not None:
                est = grow(proposed)
                if size == N:
                    continue
        recent.append(est.aggregate)
        proposed = noisy_regime_step(recent, sampler.r, est, sampler.theta, sampler.nu, N)
        if proposed is not None:
            recent.pop()  # the redraw replaces this gradient
            est = grow(proposed)
            recent.append(est.aggregate)

    _fill_telemetry(records, iterates, problem, metric_fn)  # none kept: a no-op
    return x, records


def run_trish(problem: FiniteSumProblem, x0, params: HyperParams,
              batch_size: int, budget_epochs: float, rng: np.random.Generator,
              metric_fn: MetricFn = None) -> tuple[np.ndarray, list[IterationRecord]]:
    """Fixed-batch run of the step rule until the EGE budget is spent.

    With `metric_fn` set, records carry train_loss and test_metric, filled
    in once per run from the kept iterates before return.
    """
    return _run(problem, x0, batch_size, budget_epochs, rng, metric_fn,
                _trish_rule(params))


def run_sg(problem: FiniteSumProblem, x0, alpha: float, batch_size: int,
           budget_epochs: float, rng: np.random.Generator,
           metric_fn: MetricFn = None) -> tuple[np.ndarray, list[IterationRecord]]:
    """Plain stochastic-gradient baseline: x <- x - alpha * g.

    `alpha` must be a finite number >= 0 (0 freezes the iterates).
    Telemetry is filled in after the loop, as in `run_trish`.
    """
    if alpha != 0 or isinstance(alpha, bool):
        check_positive("alpha", alpha)
    # x + (-alpha) * g equals x - alpha * g bit for bit.
    return _run(problem, x0, batch_size, budget_epochs, rng, metric_fn,
                lambda g, gnorm: (None, (-alpha) * g))


def run_trish_as(problem: FiniteSumProblem, x0, params: HyperParams,
                 s0: int, budget_epochs: float, rng: np.random.Generator,
                 metric_fn: MetricFn = None) -> tuple[np.ndarray, list[IterationRecord]]:
    """Adaptive-sampling run: the batch grows when the variance tests fail.

    Per iteration: take the step with the current gradient, then form the
    next gradient at the current size; if the inner-product or orthogonality
    test fails, grow the size via the proposed-size formula and redraw a
    completely fresh batch; finally apply the noisy-regime control, which may
    grow and redraw once more.  That control averages the last r gradients
    kept at the current size once it has held for r + 1 iterations; a
    redrawn gradient replaces the one it discards.  The size never decreases
    and never exceeds N.
    Every drawn batch is charged to EGE, re-evaluations included.  Once the
    size is N the batch gradient is the full gradient: neither control runs
    and nothing is redrawn, so each later iteration is a full-batch step
    charged exactly one epoch.

    The tests need a sample variance, so `s0` is an integer in [2, N]; a
    batch of one is `run_trish`'s.  Guard rails: the tests are skipped (size
    kept) when the gradient is zero or any test quantity comes out non-finite
    in floating point.  Telemetry is filled in after the loop, as in `run_trish`.
    """
    check_count("s0", s0, low=2, high=problem.N)
    return _run(problem, x0, s0, budget_epochs, rng, metric_fn,
                _trish_rule(params), sampler=params)
