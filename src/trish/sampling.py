"""Adaptive sample-size machinery.

Two sample-variance tests decide whether the current mini-batch is large
enough: one bounds the variance of the inner products grad_i . ref, the other
the variance of the components of grad_i orthogonal to ref.  On failure a
larger batch size is proposed from the measured variances.  A separate
control handles the noisy regime near stationarity by re-running the tests
against an average of recent gradients, which the run loop keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GradientEstimate, NumericError, as_vector, check_count


class ZeroReferenceError(ValueError):
    """Reference vector has zero norm; the tests are undefined."""


@dataclass(frozen=True)
class VarianceReport:
    """Sample variances of the inner-product and orthogonality statistics.

    inner_ok:  var_inner / |S| <= theta^2 ||ref||^4
    orth_ok:   var_orth        <= nu^2    ||ref||^2
    """

    var_inner: float
    var_orth: float
    inner_ok: bool
    orth_ok: bool

    @property
    def ok(self) -> bool:
        return self.inner_ok and self.orth_ok


def variance_report(est: GradientEstimate, ref_vec: np.ndarray,
                    theta: float, nu: float) -> VarianceReport:
    """Run both batch-variance tests against a reference direction.

    `ref_vec` is normally the batch gradient itself; in the noisy regime it
    is the averaged gradient.  The inner-product statistic is centered at the
    batch mean of grad_i . ref (which equals ||ref||^2 when ref is the batch
    gradient), so it stays a true sample variance for either reference.
    """
    per = est.per_component
    m = per.shape[0]
    if m < 2:
        raise ValueError(f"batch of size {m} has no sample variance")
    ref = as_vector(ref_vec)
    ref_sq = float(ref.dot(ref))
    if ref_sq == 0.0:
        raise ZeroReferenceError("reference vector is zero")

    # The BLAS product, the pairwise sum of squared deviations and einsum's
    # accumulation fix the rounding of both statistics.
    dots = per @ ref
    dev = dots - float(est.aggregate.dot(ref))  # centered at the batch mean of dots
    var_inner = float(np.add.reduce(dev * dev)) / (m - 1)

    # Orthogonal components are materialized explicitly; tests cross-check
    # them against the Pythagorean identity.
    orth = per - (dots / ref_sq)[:, None] * ref
    var_orth = float(np.einsum("ij,ij->", orth, orth)) / (m - 1)

    return VarianceReport(var_inner, var_orth, bool(var_inner / m <= theta**2 * ref_sq**2),
                          bool(var_orth <= nu**2 * ref_sq))


def proposed_sample_size(report: VarianceReport, ref_vec: np.ndarray,
                         theta: float, nu: float, N: int) -> int:
    """Batch size suggested by the measured variances, capped at N.

    Each variance is divided by its test threshold; the ceilings of the two
    quotients are combined with max.  Quotients already above N short-circuit
    to N before the ceiling so no overflow can occur.
    """
    ref = as_vector(ref_vec)
    ref_sq = float(ref @ ref)
    if ref_sq == 0.0:
        raise ZeroReferenceError("reference vector is zero")
    denom_inner = theta**2 * ref_sq**2
    denom_orth = nu**2 * ref_sq
    if denom_inner == 0.0 or denom_orth == 0.0:
        raise NumericError("variance-test threshold underflowed to zero")
    q_inner = report.var_inner / denom_inner
    q_orth = report.var_orth / denom_orth
    if not (math.isfinite(q_inner) and math.isfinite(q_orth)):
        raise NumericError("sample-size quotient is not finite")
    q = max(q_inner, q_orth)  # capping and ceiling are monotone: max commutes
    return N if q > N else math.ceil(q)


def required_size(est: GradientEstimate, ref_vec: np.ndarray, theta: float,
                  nu: float, N: int) -> int | None:
    """The size proposed by the tests against `ref_vec` (capped at N), or None
    when both pass, the reference is zero or a test quantity is not finite
    (a float threshold that overflows raises OverflowError, caught here)."""
    try:
        report = variance_report(est, ref_vec, theta, nu)
        return None if report.ok else proposed_sample_size(report, ref_vec, theta, nu, N)
    except (ZeroReferenceError, NumericError, OverflowError):
        return None


def noisy_regime_step(recent, r: int, current: GradientEstimate,
                      theta: float, nu: float, N: int) -> int | None:
    """Averaged-gradient control for the noisy regime.

    `recent` holds the aggregates drawn at the current batch size, oldest
    first, ending with `current`'s.  The control engages once it holds more
    than the window `r` (an integer >= 1), i.e. the size has been constant
    for r + 1 iterations.  If the average of the newest r is shorter than the
    current gradient, the variance tests are re-run with the average as
    reference over the current batch, and the result is `required_size`'s;
    otherwise None.
    """
    check_count("r", r)
    if len(recent) <= r:
        return None
    # Adds the rows oldest to newest; that order fixes the rounding.
    g_avg = np.add.reduce(np.array(recent, dtype=np.float64)[-r:]) / r
    current_norm = math.sqrt(current.sq_norm)
    if not math.sqrt(g_avg.dot(g_avg)) < current_norm:
        return None
    return required_size(current, g_avg, theta, nu, N)
