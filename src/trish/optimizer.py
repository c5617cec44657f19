"""Step rule and run drivers.

The step is SG-like with a twist: when the stochastic gradient norm falls in
[1/gamma1, 1/gamma2] the step is normalized to length alpha (the minimizer of
g.p over ||p|| <= alpha), otherwise it is a scaled SG step.  Every step is
accepted; no ratio test.  Runs are budgeted in effective gradient evaluations
(EGE): cumulative per-component gradient evaluations divided by N, so one
epoch equals EGE 1.

Telemetry is optional and leaves the trajectory untouched.  With
`track_loss` or `metric_fn` set, a driver keeps a reference to every iterate
and, after its loop, fills in each record's train loss and held-out metric
once, evaluating TELEMETRY_BLOCK iterates per stacked call.  `metric_fn`
receives a K x n stack of iterates and returns K values.  With both off, no
iterate is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .core import (FiniteSumProblem, NumericError, as_vector, draw_batch,
                   sampled_gradient)
from .sampling import (DegenerateBatchError, GradientHistory,
                       ZeroReferenceError, noisy_regime_step,
                       proposed_sample_size, variance_report)


@dataclass(frozen=True)
class HyperParams:
    """Step-rule parameters plus adaptive-sampling controls.

    alpha: steplength.  gamma1/gamma2 bound the normalized-step interval
    (0 < gamma2 < gamma1).  theta and nu are the variance-test constants,
    r the averaging window, avg_threshold the noisy-regime gate factor.
    """

    alpha: float
    gamma1: float
    gamma2: float
    theta: float = 0.9
    nu: float = 5.84
    r: int = 10
    avg_threshold: float = 1.0

    def __post_init__(self):
        if not 0 < self.gamma2 < self.gamma1:
            raise ValueError(f"need 0 < gamma2 < gamma1, got {self.gamma2}, {self.gamma1}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.theta <= 0 or self.nu <= 0:
            raise ValueError("theta and nu must be positive")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.avg_threshold <= 0:
            raise ValueError("avg_threshold must be positive")


class StepCase(Enum):
    """Which branch of the step rule an iteration took."""

    CASE1 = 1  # small gradient: SG step scaled by gamma1
    CASE2 = 2  # middle interval: normalized step of length alpha
    CASE3 = 3  # large gradient: SG step scaled by gamma2


@dataclass
class IterationRecord:
    """Per-iteration telemetry."""

    k: int
    case: Optional[StepCase]
    grad_norm: float
    batch_size: int
    ege: float
    train_loss: Optional[float] = None
    test_metric: Optional[float] = None


def classify_case(grad_norm: float, gamma1: float, gamma2: float) -> StepCase:
    """Select the step branch from the gradient norm.

    Both endpoints of [1/gamma1, 1/gamma2] belong to the normalized branch,
    so ties never reach CASE1 or CASE3.
    """
    if not 0 < gamma2 < gamma1:
        raise ValueError(f"need 0 < gamma2 < gamma1, got {gamma2}, {gamma1}")
    if not grad_norm >= 0:
        raise ValueError(f"grad_norm must be >= 0, got {grad_norm}")
    if grad_norm < 1.0 / gamma1:
        return StepCase.CASE1
    if grad_norm <= 1.0 / gamma2:
        return StepCase.CASE2
    return StepCase.CASE3


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
    gnorm = float(np.linalg.norm(g))
    case = classify_case(gnorm, params.gamma1, params.gamma2)
    return _step_vector(g, gnorm, case, params)


# Held-out metric over a K x n stack of iterates, returning K values.
MetricFn = Optional[Callable[[np.ndarray], np.ndarray]]

TELEMETRY_BLOCK = 32  # iterates per stacked telemetry evaluation


def _fill_telemetry(records, iterates, problem, track_loss, metric_fn):
    """Set train_loss and test_metric of every record from its iterate.

    Iterates are evaluated in stacks of TELEMETRY_BLOCK, which keeps the
    held-out margins of one stack in memory at a time.
    """
    for start in range(0, len(iterates), TELEMETRY_BLOCK):
        block = records[start:start + TELEMETRY_BLOCK]
        xs = np.stack(iterates[start:start + TELEMETRY_BLOCK])
        if track_loss:
            for rec, value in zip(block, problem.losses(xs).tolist()):
                rec.train_loss = value
        if metric_fn is not None:
            values = np.asarray(metric_fn(xs), dtype=np.float64)
            if values.shape != (len(block),):
                raise ValueError(f"metric_fn returned shape {values.shape} "
                                 f"for {len(block)} iterates")
            for rec, value in zip(block, values.tolist()):
                rec.test_metric = value


def run_trish(problem: FiniteSumProblem, x0, params: HyperParams,
              batch_size: int, budget_epochs: float, rng: np.random.Generator,
              track_loss: bool = False, metric_fn: MetricFn = None
              ) -> tuple[np.ndarray, list[IterationRecord]]:
    """Fixed-batch run of the step rule until the EGE budget is spent.

    Records carry train_loss / test_metric when `track_loss` / `metric_fn`
    are set, filled in once per run from the kept iterates before return.
    """
    N = problem.N
    if not 1 <= batch_size <= N:
        raise ValueError(f"batch size {batch_size} out of range [1, {N}]")
    if budget_epochs <= 0:
        raise ValueError("budget_epochs must be positive")
    x = as_vector(x0).copy()
    ege = 0.0
    records: list[IterationRecord] = []
    keep = track_loss or metric_fn is not None
    iterates: list[np.ndarray] = []
    k = 0
    while ege < budget_epochs:
        batch = draw_batch(N, batch_size, rng)
        est = sampled_gradient(problem, x, batch)
        ege += batch_size / N
        g = est.aggregate
        gnorm = float(np.linalg.norm(g))
        case = classify_case(gnorm, params.gamma1, params.gamma2)
        x = x + _step_vector(g, gnorm, case, params)
        records.append(IterationRecord(k, case, gnorm, batch_size, ege))
        if keep:
            iterates.append(x)
        k += 1
    _fill_telemetry(records, iterates, problem, track_loss, metric_fn)
    return x, records


def run_sg(problem: FiniteSumProblem, x0, alpha: float, batch_size: int,
           budget_epochs: float, rng: np.random.Generator,
           track_loss: bool = False, metric_fn: MetricFn = None
           ) -> tuple[np.ndarray, list[IterationRecord]]:
    """Plain stochastic-gradient baseline: x <- x - alpha * g.

    Telemetry is filled in after the loop, as in `run_trish`.
    """
    N = problem.N
    if not 1 <= batch_size <= N:
        raise ValueError(f"batch size {batch_size} out of range [1, {N}]")
    if budget_epochs <= 0:
        raise ValueError("budget_epochs must be positive")
    x = as_vector(x0).copy()
    ege = 0.0
    records: list[IterationRecord] = []
    keep = track_loss or metric_fn is not None
    iterates: list[np.ndarray] = []
    k = 0
    while ege < budget_epochs:
        batch = draw_batch(N, batch_size, rng)
        est = sampled_gradient(problem, x, batch)
        ege += batch_size / N
        gnorm = float(np.linalg.norm(est.aggregate))
        x = x - alpha * est.aggregate
        records.append(IterationRecord(k, None, gnorm, batch_size, ege))
        if keep:
            iterates.append(x)
        k += 1
    _fill_telemetry(records, iterates, problem, track_loss, metric_fn)
    return x, records


def run_trish_as(problem: FiniteSumProblem, x0, params: HyperParams,
                 s0: int, budget_epochs: float, rng: np.random.Generator,
                 track_loss: bool = False, metric_fn: MetricFn = None
                 ) -> tuple[np.ndarray, list[IterationRecord]]:
    """Adaptive-sampling run: the batch grows when the variance tests fail.

    Per iteration: take the step with the current gradient, then form the
    next gradient at the current size; if the inner-product or orthogonality
    test fails, grow the size via the proposed-size formula and redraw a
    completely fresh batch; finally apply the noisy-regime control, which may
    grow and redraw once more.  The size never decreases and never exceeds N.
    Every drawn batch is charged to EGE, re-evaluations included.

    Guard rails: the tests are skipped (size kept) when the batch has fewer
    than two components, the gradient is zero, or any test quantity comes out
    non-finite in floating point.  Telemetry is filled in after the loop, as
    in `run_trish`.
    """
    N = problem.N
    if not 1 <= s0 <= N:
        raise ValueError(f"s0 {s0} out of range [1, {N}]")
    if budget_epochs <= 0:
        raise ValueError("budget_epochs must be positive")
    x = as_vector(x0).copy()
    size = int(s0)
    ege = 0.0
    records: list[IterationRecord] = []
    keep = track_loss or metric_fn is not None
    iterates: list[np.ndarray] = []
    history = GradientHistory(params.r)

    batch = draw_batch(N, size, rng)
    est = sampled_gradient(problem, x, batch)
    ege += size / N
    history.push(size, est.aggregate)

    k = 0
    while True:
        g = est.aggregate
        gnorm = float(np.linalg.norm(g))
        case = classify_case(gnorm, params.gamma1, params.gamma2)
        x = x + _step_vector(g, gnorm, case, params)
        records.append(IterationRecord(k, case, gnorm, size, ege))
        if keep:
            iterates.append(x)
        k += 1
        if ege >= budget_epochs:
            break

        # Form the gradient for the next step at the unchanged size.
        batch = draw_batch(N, size, rng)
        est = sampled_gradient(problem, x, batch)
        ege += size / N

        new_norm = float(np.linalg.norm(est.aggregate))
        if size >= 2 and new_norm > 0.0 and math.isfinite(new_norm):
            report = variance_report(est, est.aggregate, params.theta, params.nu)
            if not report.ok:
                try:
                    proposed = proposed_sample_size(
                        report, est.aggregate, params.theta, params.nu, N)
                except NumericError:
                    pass  # finite-precision overflow/underflow: keep the size
                else:
                    size = min(N, max(size, proposed))
                    batch = draw_batch(N, size, rng)
                    est = sampled_gradient(problem, x, batch)
                    ege += size / N

        history.push(size, est.aggregate)

        if size >= 2:
            try:
                noisy = noisy_regime_step(history, est, params.theta,
                                          params.nu, params.avg_threshold, N)
            except (DegenerateBatchError, ZeroReferenceError, NumericError):
                noisy = None
            if noisy is not None:
                size = min(N, max(size, noisy))
                batch = draw_batch(N, size, rng)
                est = sampled_gradient(problem, x, batch)
                ege += size / N
                history.replace_last(size, est.aggregate)

    _fill_telemetry(records, iterates, problem, track_loss, metric_fn)
    return x, records
